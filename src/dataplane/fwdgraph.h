// Per-equivalence-class forwarding graphs.
#pragma once

#include <vector>

#include "dataplane/ectrie.h"
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

/// One node's row of an EC's graph, as it was before a rebuild changed it.
struct GraphRow {
  EcId ec = 0;
  topo::NodeId node = 0;
  NodeVerdict verdict;
};

/// Rebuilds `graph`, EC `ec`'s, by LPM lookup of `rep` at every node (lpm
/// is by node), writing only the rows that changed and reusing their
/// storage. If `old_rows` is given, each changed row's old value is
/// appended to it.
void build_ec_graph(const std::vector<LpmTable>& lpm, Ipv4Addr rep,
                    EcGraph& graph, EcId ec, std::vector<GraphRow>* old_rows);

}  // namespace dna::dp
