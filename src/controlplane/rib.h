// RIB assembly: protocol route candidates merged into a FIB by
// administrative distance, plus the connected/static candidate derivations.
// A whole table (construction) and one (node, prefix) entry (an advance's
// patch) go through the same route builders and the same merge rule.
#pragma once

#include <optional>

#include "controlplane/route.h"
#include "topo/snapshot.h"
#include "util/flat_map.h"

namespace dna::cp {

/// Candidate routes per prefix, to be merged by admin distance. Hash-keyed
/// (util/flat_map.h) rather than tree-ordered: assembly only ever appends
/// per-prefix and merge_to_fib sorts its output, so the red-black tree's
/// ordering was pure overhead on the FIB rebuild path.
using RibCandidates =
    util::FlatMap<Ipv4Prefix, std::vector<FibEntry>, std::hash<Ipv4Prefix>>;

/// The connected-subnet entry of an enabled interface.
FibEntry connected_fib_entry(const config::InterfaceConfig& iface);

/// The static route's entry at `node`: its next hop resolves to the peer
/// whose enabled interface holds `route.next_hop`, over the first up link
/// whose local interface is enabled and on a subnet containing it. nullopt
/// when no link qualifies (the route is dropped). Besides the node's own
/// config, this reads the link's state and the peer's interface.
std::optional<FibEntry> resolve_static_route(
    const topo::Snapshot& snapshot, topo::NodeId node,
    const config::StaticRouteConfig& route);

/// Adds connected-subnet entries for a node's enabled interfaces.
void add_connected_routes(const topo::Snapshot& snapshot, topo::NodeId node,
                          RibCandidates& out);

/// Adds the node's static routes that resolve (resolve_static_route).
void add_static_routes(const topo::Snapshot& snapshot, topo::NodeId node,
                       RibCandidates& out);

/// Merges one prefix's candidates (non-empty) into its FIB entry: the lowest
/// admin distance wins, then the lowest metric; remaining ties merge ECMP
/// hops. Consumes the candidates.
FibEntry merge_candidates(std::vector<FibEntry>& candidates);

/// merge_candidates for every prefix; emits a sorted FIB.
Fib merge_to_fib(RibCandidates&& candidates);

}  // namespace dna::cp
