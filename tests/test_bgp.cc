// BGP: session derivation, the decision process, policies, and equivalence
// of incremental convergence with a from-scratch build.
#include <gtest/gtest.h>

#include "controlplane/bgp.h"
#include "topo/generators.h"
#include "topo/mutators.h"
#include "util/rng.h"

namespace dna::cp {
namespace {

using topo::NodeId;
using topo::Snapshot;

std::vector<std::map<Ipv4Prefix, BgpSim::Best>> fresh_best(
    const Snapshot& snap) {
  BgpSim sim;
  sim.build(snap);
  std::vector<std::map<Ipv4Prefix, BgpSim::Best>> out;
  for (NodeId node = 0; node < snap.topology.num_nodes(); ++node) {
    out.push_back(sim.best(node));
  }
  return out;
}

TEST(Bgp, RoutesPropagateAcrossFabric) {
  Snapshot snap = topo::make_two_tier_as(3, 2);
  BgpSim sim;
  sim.build(snap);

  // Every edge's host /24 must be known everywhere (cores learn it directly,
  // other edges via a core).
  for (int target = 0; target < 3; ++target) {
    Ipv4Prefix host(Ipv4Addr(172, 31, static_cast<uint8_t>(target), 0), 24);
    for (NodeId node = 0; node < snap.topology.num_nodes(); ++node) {
      ASSERT_TRUE(sim.best(node).count(host))
          << snap.topology.node_name(node) << " missing " << host.str();
    }
  }
  // At the originator the route is local; elsewhere it has a via.
  const NodeId as0 = snap.topology.node_id("as0");
  Ipv4Prefix host0(Ipv4Addr(172, 31, 0, 0), 24);
  EXPECT_TRUE(sim.best(as0).at(host0).local);
  const NodeId as1 = snap.topology.node_id("as1");
  const BgpSim::Best& at_as1 = sim.best(as1).at(host0);
  EXPECT_FALSE(at_as1.local);
  // AS path from as1: core AS, then as0's AS.
  EXPECT_EQ(at_as1.route.as_path.size(), 2u);
  EXPECT_EQ(at_as1.route.as_path[0], 65000u);
  EXPECT_EQ(at_as1.route.as_path[1], 65001u);
}

TEST(Bgp, AsLoopPreventionStopsReAdvertisement) {
  // Triangle of distinct ASes: routes circulate but never loop.
  Snapshot snap = topo::make_two_tier_as(2, 1);
  BgpSim sim;
  sim.build(snap);
  // The core must not accept its own AS back: its path to host0 is direct.
  const NodeId core = snap.topology.node_id("as2");
  Ipv4Prefix host0(Ipv4Addr(172, 31, 0, 0), 24);
  EXPECT_EQ(sim.best(core).at(host0).route.as_path.size(), 1u);
}

TEST(Bgp, LocalPrefOverridesPathLength) {
  // as0 (edge) has two cores; prefer the longer path via local-pref.
  Snapshot snap = topo::make_two_tier_as(2, 2);
  BgpSim sim;
  sim.build(snap);

  const NodeId as1 = snap.topology.node_id("as1");
  Ipv4Prefix host0(Ipv4Addr(172, 31, 0, 0), 24);
  const BgpSim::Best before = sim.best(as1).at(host0);

  // Raise local-pref for routes from the *other* core.
  const topo::NodeId other_core =
      before.via == snap.topology.node_id("as2")
          ? snap.topology.node_id("as3")
          : snap.topology.node_id("as2");
  // Find as1's interface address facing other_core.
  Ipv4Addr neighbor_ip;
  for (uint32_t li : snap.topology.links_of(as1)) {
    const topo::Link& link = snap.topology.link(li);
    if (link.peer_of(as1) == other_core) {
      neighbor_ip = snap.configs[other_core]
                        .find_interface(link.if_of(other_core))
                        ->address;
    }
  }
  Snapshot changed =
      topo::with_bgp_local_pref(snap, "as1", neighbor_ip, 200);
  std::set<NodeId> dirty = nodes_of(sim.update(
      changed, config::diff_configs(snap.configs, changed.configs), {}));
  EXPECT_TRUE(dirty.count(as1));
  const BgpSim::Best after = sim.best(as1).at(host0);
  EXPECT_EQ(after.via, other_core);
  EXPECT_EQ(after.route.local_pref, 200);
}

TEST(Bgp, WithdrawRemovesEverywhere) {
  Snapshot snap = topo::make_two_tier_as(3, 2);
  BgpSim sim;
  sim.build(snap);
  Ipv4Prefix host0(Ipv4Addr(172, 31, 0, 0), 24);

  Snapshot changed = topo::with_bgp_withdraw(snap, "as0", host0);
  sim.update(changed,
             config::diff_configs(snap.configs, changed.configs), {});
  for (NodeId node = 0; node < snap.topology.num_nodes(); ++node) {
    EXPECT_EQ(sim.best(node).count(host0), 0u)
        << snap.topology.node_name(node);
  }
}

TEST(Bgp, SessionLossWithdrawsLearnedRoutes) {
  Snapshot snap = topo::make_two_tier_as(2, 1);  // as0, as1 edges; as2 core
  BgpSim sim;
  sim.build(snap);
  Ipv4Prefix host0(Ipv4Addr(172, 31, 0, 0), 24);
  const NodeId as1 = snap.topology.node_id("as1");
  ASSERT_TRUE(sim.best(as1).count(host0));

  // Fail the as0-core link: as1 must lose the route.
  uint32_t link_as0_core = 0;
  for (uint32_t li : snap.topology.links_of(snap.topology.node_id("as0"))) {
    link_as0_core = li;
  }
  Snapshot broken = topo::with_link_state(snap, link_as0_core, false);
  sim.update(broken, {}, {});
  EXPECT_EQ(sim.best(as1).count(host0), 0u);

  // Restore: the route comes back.
  sim.update(snap, {}, {});
  EXPECT_TRUE(sim.best(as1).count(host0));
}

TEST(Bgp, ExportDenyFiltersPrefix) {
  Snapshot snap = topo::make_two_tier_as(2, 1);
  // as0 denies exporting host0 to the core via an export map.
  config::NodeConfig& cfg = snap.config_of("as0");
  config::PrefixListConfig pl;
  pl.name = "NOHOST";
  pl.entries.push_back({config::FilterAction::kDeny,
                        Ipv4Prefix(Ipv4Addr(172, 31, 0, 0), 24), -1, -1});
  pl.entries.push_back(
      {config::FilterAction::kPermit, Ipv4Prefix(), -1, 32});
  cfg.prefix_lists.push_back(pl);
  config::RouteMapConfig rm;
  rm.name = "EXP";
  config::RouteMapClause clause;
  clause.seq = 10;
  clause.match_prefix_list = "NOHOST";
  rm.clauses.push_back(clause);
  cfg.route_maps.push_back(rm);
  for (auto& neighbor : cfg.bgp.neighbors) neighbor.export_map = "EXP";

  BgpSim sim;
  sim.build(snap);
  Ipv4Prefix host0(Ipv4Addr(172, 31, 0, 0), 24);
  const NodeId core = snap.topology.node_id("as2");
  // NOHOST denies host0, so route-map clause 10 never matches it and the
  // implicit deny filters it; every other prefix passes via the prefix
  // list's permit-all entry.
  EXPECT_EQ(sim.best(core).count(host0), 0u);
  Ipv4Prefix host1(Ipv4Addr(172, 31, 1, 0), 24);
  EXPECT_TRUE(sim.best(core).count(host1));
}

TEST(Bgp, PrependLengthensPath) {
  Snapshot snap = topo::make_two_tier_as(2, 2);
  // as0 prepends 3 extra copies toward core as2, steering traffic via as3.
  config::NodeConfig& cfg = snap.config_of("as0");
  config::RouteMapConfig rm;
  rm.name = "PREP";
  config::RouteMapClause clause;
  clause.seq = 10;
  clause.prepend_count = 3;
  rm.clauses.push_back(clause);
  cfg.route_maps.push_back(rm);
  const NodeId as2 = snap.topology.node_id("as2");
  for (auto& neighbor : cfg.bgp.neighbors) {
    if (find_address_owner(snap, neighbor.peer_ip) == as2) {
      neighbor.export_map = "PREP";
    }
  }
  BgpSim sim;
  sim.build(snap);
  Ipv4Prefix host0(Ipv4Addr(172, 31, 0, 0), 24);
  EXPECT_EQ(sim.best(as2).at(host0).route.as_path.size(), 4u);
  const NodeId as3 = snap.topology.node_id("as3");
  EXPECT_EQ(sim.best(as3).at(host0).route.as_path.size(), 1u);
}

TEST(Bgp, EffectiveRouterIdFallsBackToHighestAddress) {
  Snapshot snap = topo::make_two_tier_as(2, 1);
  config::NodeConfig cfg = snap.config_of("as0");
  EXPECT_EQ(effective_router_id(cfg), cfg.bgp.router_id);
  cfg.bgp.router_id = Ipv4Addr();
  Ipv4Addr highest;
  for (const auto& iface : cfg.interfaces) {
    highest = std::max(highest, iface.address);
  }
  EXPECT_EQ(effective_router_id(cfg), highest);
}

class BgpChurn : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BgpChurn, IncrementalEqualsFreshBuild) {
  Rng rng(GetParam());
  Snapshot snap = topo::make_two_tier_as(4, 2);
  BgpSim sim;
  sim.build(snap);

  for (int step = 0; step < 30; ++step) {
    Snapshot next = snap;
    switch (rng.below(4)) {
      case 0: {  // announce a fresh prefix at a random edge
        Ipv4Prefix p(Ipv4Addr(192, 168, static_cast<uint8_t>(rng.below(10)), 0),
                     24);
        next = topo::with_bgp_announce(
            snap, "as" + std::to_string(rng.below(4)), p);
        break;
      }
      case 1: {  // withdraw one (possibly absent) prefix
        Ipv4Prefix p(Ipv4Addr(192, 168, static_cast<uint8_t>(rng.below(10)), 0),
                     24);
        next = topo::with_bgp_withdraw(
            snap, "as" + std::to_string(rng.below(4)), p);
        break;
      }
      case 2: {  // toggle a random link
        uint32_t link =
            static_cast<uint32_t>(rng.below(snap.topology.num_links()));
        next = topo::with_link_state(snap, link,
                                     !snap.topology.link(link).up);
        break;
      }
      default: {  // local-pref tweak on a random edge node's first neighbor
        int edge = static_cast<int>(rng.below(4));
        const auto& neighbors =
            snap.config_of("as" + std::to_string(edge)).bgp.neighbors;
        if (neighbors.empty()) continue;
        next = topo::with_bgp_local_pref(
            snap, "as" + std::to_string(edge),
            neighbors[rng.below(neighbors.size())].peer_ip,
            static_cast<int>(rng.range(50, 300)));
        break;
      }
    }
    sim.update(next, config::diff_configs(snap.configs, next.configs),
               {});
    snap = std::move(next);

    auto expected = fresh_best(snap);
    for (NodeId node = 0; node < snap.topology.num_nodes(); ++node) {
      ASSERT_EQ(sim.best(node), expected[node])
          << "step " << step << " node " << snap.topology.node_name(node);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpChurn, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace dna::cp
