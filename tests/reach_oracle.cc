#include "reach_oracle.h"

#include "dataplane/acl_eval.h"

namespace dna::dp {

namespace {

/// DFS colors for cycle detection.
enum class Color : uint8_t { kWhite, kGray, kBlack };

struct Walker {
  const topo::Snapshot& snapshot;
  const EcGraph& graph;
  Probe probe;
  std::vector<Color> color;
  DynamicBitset* delivered = nullptr;
  bool loop = false;
  bool blackhole = false;

  /// Whether the hop u -> hop.next over hop.link passes the egress ACL at u
  /// and the ingress ACL at the peer.
  bool edge_permitted(topo::NodeId u, const cp::Hop& hop) const {
    const topo::Link& link = snapshot.topology.link(hop.link);
    if (!link.up) return false;
    const auto& cfg_u = snapshot.configs[u];
    const auto& cfg_v = snapshot.configs[hop.next];
    const auto* out_if = cfg_u.find_interface(link.if_of(u));
    const auto* in_if = cfg_v.find_interface(link.if_of(hop.next));
    if (!out_if || !in_if || !out_if->enabled || !in_if->enabled) return false;
    if (!acl_permits(cfg_u, out_if->acl_out, probe)) return false;
    if (!acl_permits(cfg_v, in_if->acl_in, probe)) return false;
    return true;
  }

  void visit(topo::NodeId node) {
    color[node] = Color::kGray;
    const NodeVerdict& verdict = graph.verdicts[node];
    switch (verdict.kind) {
      case NodeVerdict::Kind::kDrop:
        blackhole = true;
        break;
      case NodeVerdict::Kind::kLocal:
        delivered->set(node);
        break;
      case NodeVerdict::Kind::kForward: {
        bool any_out = false;
        for (const cp::Hop& hop : verdict.hops) {
          if (!edge_permitted(node, hop)) continue;
          any_out = true;
          if (color[hop.next] == Color::kGray) {
            loop = true;
          } else if (color[hop.next] == Color::kWhite) {
            visit(hop.next);
          }
        }
        // A forwarding entry whose every hop is filtered or down drops.
        if (!any_out) blackhole = true;
        break;
      }
    }
    color[node] = Color::kBlack;
  }
};

}  // namespace

EcReach dfs_reach(const topo::Snapshot& snapshot, const EcGraph& graph,
                  Ipv4Addr rep) {
  const size_t n = snapshot.topology.num_nodes();
  EcReach reach;
  reach.delivered.assign(n, DynamicBitset(n));
  reach.loop = DynamicBitset(n);
  reach.blackhole = DynamicBitset(n);

  for (topo::NodeId src = 0; src < n; ++src) {
    Walker walker{snapshot,
                  graph,
                  {probe_source_address(snapshot.configs[src]), rep},
                  std::vector<Color>(n, Color::kWhite),
                  &reach.delivered[src],
                  false,
                  false};
    walker.visit(src);
    if (walker.loop) reach.loop.set(src);
    if (walker.blackhole) reach.blackhole.set(src);
  }
  return reach;
}

}  // namespace dna::dp
