#include "dataplane/properties.h"

namespace dna::dp {

bool any_reach(const Verifier& verifier, topo::NodeId src, topo::NodeId dst,
               const Ipv4Prefix& traffic) {
  for (EcId ec : verifier.ec_index().covering(traffic)) {
    if (verifier.reach(ec).delivered[src].test(dst)) return true;
  }
  return false;
}

bool all_reach(const Verifier& verifier, topo::NodeId src, topo::NodeId dst,
               const Ipv4Prefix& traffic) {
  for (EcId ec : verifier.ec_index().covering(traffic)) {
    if (!verifier.reach(ec).delivered[src].test(dst)) return false;
  }
  return true;
}

bool loop_free(const Verifier& verifier, const Ipv4Prefix& traffic) {
  for (EcId ec : verifier.ec_index().covering(traffic)) {
    if (verifier.reach(ec).loop.any()) return false;
  }
  return true;
}

bool loop_free_from(const Verifier& verifier, const std::vector<bool>& sources,
                    const Ipv4Prefix& traffic) {
  for (EcId ec : verifier.ec_index().covering(traffic)) {
    const auto& loop = verifier.reach(ec).loop;
    for (size_t node = 0; node < sources.size(); ++node) {
      if (sources[node] && loop.test(static_cast<topo::NodeId>(node))) {
        return false;
      }
    }
  }
  return true;
}

bool blackhole_free(const Verifier& verifier, topo::NodeId src,
                    const Ipv4Prefix& traffic) {
  for (EcId ec : verifier.ec_index().covering(traffic)) {
    if (verifier.reach(ec).blackhole.test(src)) return false;
  }
  return true;
}

bool isolated(const Verifier& verifier, topo::NodeId src, topo::NodeId dst,
              const Ipv4Prefix& traffic) {
  return !any_reach(verifier, src, dst, traffic);
}

namespace {

/// Does `src` deliver at `dst` in this EC while never visiting `banned`?
/// (A walk over the edges the reachability pass permits.)
bool delivers_avoiding(const Verifier& verifier, EcId ec, topo::NodeId src,
                       topo::NodeId dst, topo::NodeId banned) {
  if (src == banned) return false;
  const EcGraph& graph = verifier.graph(ec);
  const EdgeTable& edges = verifier.edges();
  std::vector<bool> visited(graph.verdicts.size(), false);
  std::vector<topo::NodeId> stack{src};
  visited[src] = true;
  const Probe probe{edges.probe_sources[src],
                    verifier.ec_index().representative(ec)};
  while (!stack.empty()) {
    topo::NodeId node = stack.back();
    stack.pop_back();
    const NodeVerdict& verdict = graph.verdicts[node];
    if (verdict.kind == NodeVerdict::Kind::kLocal && node == dst) return true;
    if (verdict.kind != NodeVerdict::Kind::kForward) continue;
    for (const cp::Hop& hop : verdict.hops) {
      if (hop.next == banned || visited[hop.next]) continue;
      if (!edges.permits(node, hop, probe)) continue;
      visited[hop.next] = true;
      stack.push_back(hop.next);
    }
  }
  return false;
}

}  // namespace

bool waypoint_enforced(const Verifier& verifier, topo::NodeId src,
                       topo::NodeId dst, topo::NodeId waypoint,
                       const Ipv4Prefix& traffic) {
  for (EcId ec : verifier.ec_index().covering(traffic)) {
    if (!verifier.reach(ec).delivered[src].test(dst)) continue;
    if (delivers_avoiding(verifier, ec, src, dst, waypoint)) {
      return false;  // a path bypasses the waypoint
    }
  }
  return true;
}

}  // namespace dna::dp
