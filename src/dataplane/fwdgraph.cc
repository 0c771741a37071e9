#include "dataplane/fwdgraph.h"

namespace dna::dp {

void build_ec_graph(const std::vector<LpmTable>& lpm, Ipv4Addr rep,
                    EcGraph& graph) {
  graph.verdicts.resize(lpm.size());
  for (size_t node = 0; node < lpm.size(); ++node) {
    const cp::FibEntry* entry = lpm[node].lookup(rep);
    NodeVerdict& verdict = graph.verdicts[node];
    if (!entry || entry->action == cp::FibEntry::Action::kLocal) {
      verdict.kind =
          entry ? NodeVerdict::Kind::kLocal : NodeVerdict::Kind::kDrop;
      verdict.hops = std::vector<cp::Hop>();  // frees a forward's storage
    } else {
      verdict.kind = NodeVerdict::Kind::kForward;
      verdict.hops = entry->hops;
    }
  }
}

}  // namespace dna::dp
