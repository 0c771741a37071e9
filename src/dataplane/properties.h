// Property queries over a verified data plane.
//
// Queries are evaluated per equivalence class; a traffic selector prefix
// maps to the atoms overlapping it. The invariant layer (core/invariants.h)
// composes these into differential verdicts.
#pragma once

#include "dataplane/verifier.h"

namespace dna::dp {

/// True if traffic from `src` to some address in `traffic` is delivered
/// at `dst` (exists an overlapping atom with delivery).
bool any_reach(const Verifier& verifier, topo::NodeId src, topo::NodeId dst,
               const Ipv4Prefix& traffic);

/// True if every overlapping atom delivers from `src` at `dst`.
bool all_reach(const Verifier& verifier, topo::NodeId src, topo::NodeId dst,
               const Ipv4Prefix& traffic);

/// True if no ingress in the network can hit a forwarding loop for any
/// destination in `traffic`.
bool loop_free(const Verifier& verifier, const Ipv4Prefix& traffic);

/// Partition-scoped loop freedom: true if no ingress whose flag is set in
/// `sources` (indexed by NodeId) hits a forwarding loop within `traffic`.
/// ANDing this over a partition of the node set equals loop_free() — the
/// decomposition the shard tier's scatter/gather rides on.
bool loop_free_from(const Verifier& verifier, const std::vector<bool>& sources,
                    const Ipv4Prefix& traffic);

/// True if `src` never reaches a blackhole for destinations in `traffic`.
bool blackhole_free(const Verifier& verifier, topo::NodeId src,
                    const Ipv4Prefix& traffic);

/// True if no atom of `traffic` delivers from `src` at `dst` (isolation).
bool isolated(const Verifier& verifier, topo::NodeId src, topo::NodeId dst,
              const Ipv4Prefix& traffic);

/// True if every delivery from `src` to `dst` for `traffic` passes through
/// `waypoint` (checked by deleting the waypoint and requiring dst to become
/// unreachable in every overlapping atom where it was reachable).
bool waypoint_enforced(const Verifier& verifier, topo::NodeId src,
                       topo::NodeId dst, topo::NodeId waypoint,
                       const Ipv4Prefix& traffic);

}  // namespace dna::dp
