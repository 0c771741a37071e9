// Per-equivalence-class forwarding graphs.
#pragma once

#include <vector>

#include "dataplane/fib.h"
#include "topo/snapshot.h"

namespace dna::dp {

/// One node's forwarding verdict for an EC's representative address.
struct NodeVerdict {
  enum class Kind : uint8_t { kDrop, kLocal, kForward };
  Kind kind = Kind::kDrop;
  std::vector<cp::Hop> hops;  // for kForward

  bool operator==(const NodeVerdict&) const = default;
};

/// The whole network's forwarding behaviour for one EC.
struct EcGraph {
  std::vector<NodeVerdict> verdicts;  // by node id

  bool operator==(const EcGraph&) const = default;
};

/// Rebuilds `graph` by LPM lookup of `rep` at every node (lpm is by node),
/// reusing its storage.
void build_ec_graph(const std::vector<LpmTable>& lpm, Ipv4Addr rep,
                    EcGraph& graph);

}  // namespace dna::dp
