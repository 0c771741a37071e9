// Forwarding-path extraction and differential path analysis.
//
// Given a verified data plane, enumerates the concrete node paths a probe
// from `src` to a destination address takes (all ECMP branches, up to a
// limit), and diffs the path sets across a change — the "why did my flow
// move" view that complements the reach-level diff.
#pragma once

#include <string>
#include <vector>

#include "dataplane/verifier.h"

namespace dna::core {

struct ForwardingPath {
  std::vector<topo::NodeId> nodes;  // src first
  enum class Outcome { kDelivered, kDropped, kLooped, kTruncated } outcome =
      Outcome::kDelivered;

  auto operator<=>(const ForwardingPath&) const = default;

  std::string str(const topo::Topology& topology) const;
};

/// Enumerates forwarding paths for (src, dst address). DFS over the EC
/// graph's edges the verifier permits (dp::EdgeTable::permits); each ECMP
/// branch forks a path. Stops after
/// `max_paths` (remaining branches are not reported).
std::vector<ForwardingPath> forwarding_paths(const dp::Verifier& verifier,
                                             topo::NodeId src, Ipv4Addr dst,
                                             size_t max_paths = 16);

struct PathDiff {
  std::vector<ForwardingPath> removed;  // taken before, not after
  std::vector<ForwardingPath> added;    // taken after, not before

  bool empty() const { return removed.empty() && added.empty(); }
};

/// Set-difference of two path enumerations.
PathDiff diff_paths(const std::vector<ForwardingPath>& before,
                    const std::vector<ForwardingPath>& after);

}  // namespace dna::core
