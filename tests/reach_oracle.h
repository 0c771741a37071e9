// Reference reachability for the property tests: one DFS per source over an
// EC graph, reading link state, interfaces and ACLs by name from the
// snapshot on every edge it visits. dp::compute_reach must give the same
// EcReach on every EC.
#pragma once

#include "dataplane/reach.h"
#include "topo/snapshot.h"

namespace dna::dp {

/// Walks the EC graph from every source, applying out-ACLs at the sending
/// interface and in-ACLs at the receiving interface with the source node's
/// probe address.
EcReach dfs_reach(const topo::Snapshot& snapshot, const EcGraph& graph,
                  Ipv4Addr rep);

}  // namespace dna::dp
