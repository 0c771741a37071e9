#include "dataplane/fwdgraph.h"

namespace dna::dp {

void build_ec_graph(const std::vector<LpmTable>& lpm, Ipv4Addr rep,
                    EcGraph& graph, EcId ec, std::vector<GraphRow>* old_rows) {
  graph.verdicts.resize(lpm.size());
  for (size_t node = 0; node < lpm.size(); ++node) {
    const cp::FibEntry* entry = lpm[node].lookup(rep);
    const NodeVerdict::Kind kind =
        !entry ? NodeVerdict::Kind::kDrop
        : entry->action == cp::FibEntry::Action::kLocal
            ? NodeVerdict::Kind::kLocal
            : NodeVerdict::Kind::kForward;
    NodeVerdict& verdict = graph.verdicts[node];
    if (verdict.kind == kind &&
        (kind != NodeVerdict::Kind::kForward || verdict.hops == entry->hops)) {
      continue;
    }
    if (old_rows) {
      old_rows->push_back(
          {ec, static_cast<topo::NodeId>(node), std::move(verdict)});
    }
    verdict.kind = kind;
    if (kind == NodeVerdict::Kind::kForward) {
      verdict.hops = entry->hops;
    } else {
      verdict.hops = std::vector<cp::Hop>();  // frees a forward's storage
    }
  }
}

}  // namespace dna::dp
