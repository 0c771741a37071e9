#include "core/paths.h"

#include <algorithm>

namespace dna::core {

std::string ForwardingPath::str(const topo::Topology& topology) const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i) out += " -> ";
    out += topology.node_name(nodes[i]);
  }
  switch (outcome) {
    case Outcome::kDelivered:
      out += " [delivered]";
      break;
    case Outcome::kDropped:
      out += " [dropped]";
      break;
    case Outcome::kLooped:
      out += " [loop]";
      break;
    case Outcome::kTruncated:
      out += " [...]";
      break;
  }
  return out;
}

namespace {

struct Enumerator {
  const dp::EdgeTable& edges;
  const dp::EcGraph& graph;
  dp::Probe probe;
  size_t max_paths;
  std::vector<ForwardingPath> out;
  std::vector<topo::NodeId> current;
  std::vector<bool> on_path;

  void finish(ForwardingPath::Outcome outcome) {
    if (out.size() >= max_paths) return;
    out.push_back({current, outcome});
  }

  void walk(topo::NodeId node) {
    if (out.size() >= max_paths) return;
    if (on_path[node]) {
      finish(ForwardingPath::Outcome::kLooped);
      return;
    }
    current.push_back(node);
    on_path[node] = true;

    const dp::NodeVerdict& verdict = graph.verdicts[node];
    switch (verdict.kind) {
      case dp::NodeVerdict::Kind::kLocal:
        finish(ForwardingPath::Outcome::kDelivered);
        break;
      case dp::NodeVerdict::Kind::kDrop:
        finish(ForwardingPath::Outcome::kDropped);
        break;
      case dp::NodeVerdict::Kind::kForward: {
        bool advanced = false;
        for (const cp::Hop& hop : verdict.hops) {
          if (!edges.permits(node, hop, probe)) continue;
          advanced = true;
          walk(hop.next);
        }
        if (!advanced) finish(ForwardingPath::Outcome::kDropped);
        break;
      }
    }

    on_path[node] = false;
    current.pop_back();
  }
};

}  // namespace

std::vector<ForwardingPath> forwarding_paths(const dp::Verifier& verifier,
                                             topo::NodeId src, Ipv4Addr dst,
                                             size_t max_paths) {
  // The atom containing dst fixes every node's verdict.
  const dp::EcId ec = verifier.ec_index().covering(Ipv4Prefix(dst, 32))[0];
  const dp::EcGraph& graph = verifier.graph(ec);
  Enumerator enumerator{verifier.edges(),
                        graph,
                        {verifier.edges().probe_sources[src], dst},
                        max_paths,
                        {},
                        {},
                        std::vector<bool>(graph.verdicts.size(), false)};
  enumerator.walk(src);
  std::sort(enumerator.out.begin(), enumerator.out.end());
  return std::move(enumerator.out);
}

PathDiff diff_paths(const std::vector<ForwardingPath>& before,
                    const std::vector<ForwardingPath>& after) {
  PathDiff diff;
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::back_inserter(diff.removed));
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(diff.added));
  return diff;
}

}  // namespace dna::core
