// The headline property of the whole system: Mode::kDifferential and
// Mode::kMonolithic produce identical NetworkDiffs, across topologies,
// change types, and randomized sequences, while the differential advance
// skips the stages a change does not feed and keeps invariant verdicts
// between advances. Structural changes match two fresh engines compared by
// node name, and the FIBs a differential engine patches match a fresh
// build's after every step of a churn. Plus invariant-flip reporting and
// the interval-difference helper.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/engine.h"
#include "core/report.h"
#include "scenario/spec.h"
#include "topo/generators.h"
#include "topo/mutators.h"
#include "util/rng.h"

namespace dna::core {
namespace {

using topo::Snapshot;

Ipv4Prefix host(int i) {
  return Ipv4Prefix(Ipv4Addr(172, 31, static_cast<uint8_t>(i), 0), 24);
}

void expect_same_semantic_diff(const NetworkDiff& a, const NetworkDiff& b,
                               const std::string& context) {
  EXPECT_EQ(a.config_changes, b.config_changes) << context;
  EXPECT_EQ(a.link_changes, b.link_changes) << context;
  // FIB deltas: same per-node added/removed sets.
  ASSERT_EQ(a.fib_delta.by_node.size(), b.fib_delta.by_node.size()) << context;
  for (const auto& [node, delta] : a.fib_delta.by_node) {
    auto it = b.fib_delta.by_node.find(node);
    ASSERT_NE(it, b.fib_delta.by_node.end()) << context;
    auto sorted = [](std::vector<cp::FibEntry> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    EXPECT_EQ(sorted(delta.added), sorted(it->second.added)) << context;
    EXPECT_EQ(sorted(delta.removed), sorted(it->second.removed)) << context;
  }
  EXPECT_EQ(a.reach_delta, b.reach_delta) << context;
  EXPECT_EQ(a.invariant_flips, b.invariant_flips) << context;
}

TEST(FactsMinus, IntervalDifference) {
  std::vector<dp::ReachFact> a = {{1, 2, 0, 100}, {1, 2, 200, 300}};
  std::vector<dp::ReachFact> b = {{1, 2, 50, 250}};
  auto diff = facts_minus(a, b);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0].lo, 0u);
  EXPECT_EQ(diff[0].hi, 49u);
  EXPECT_EQ(diff[1].lo, 251u);
  EXPECT_EQ(diff[1].hi, 300u);
}

TEST(FactsMinus, DisjointKeysPassThrough) {
  std::vector<dp::ReachFact> a = {{1, 2, 0, 10}, {3, 4, 0, 10}};
  std::vector<dp::ReachFact> b = {{1, 9, 0, 10}};
  EXPECT_EQ(facts_minus(a, b), a);
  EXPECT_TRUE(facts_minus({}, a).empty());
}

TEST(DnaEngine, NoopChangeIsSemanticallyEmpty) {
  Snapshot snap = topo::make_ring(5);
  DnaEngine engine(snap);
  NetworkDiff diff = engine.advance(snap, Mode::kDifferential);
  EXPECT_TRUE(diff.semantically_empty());
  EXPECT_TRUE(diff.config_changes.empty());
}

TEST(DnaEngine, CostChangeKeepsHostReachability) {
  // Raising one ring link's cost reroutes traffic. Deliveries for *link
  // subnets* may legitimately flip endpoints (a /30 behaves like anycast:
  // the first subnet owner on the path delivers), but every *host network*
  // (172.31.0.0/16) must stay reachable exactly as before.
  Snapshot snap = topo::make_ring(6);
  DnaEngine engine(snap);
  NetworkDiff diff =
      engine.advance(topo::with_link_cost(snap, 0, 80), Mode::kDifferential);
  EXPECT_FALSE(diff.fib_delta.empty());
  const Ipv4Prefix hosts(Ipv4Addr(172, 31, 0, 0), 16);
  const Ipv4Prefix loopbacks(Ipv4Addr(172, 16, 0, 0), 16);
  auto in_stable_space = [&](const dp::ReachFact& fact) {
    return hosts.contains(Ipv4Addr(fact.lo)) ||
           loopbacks.contains(Ipv4Addr(fact.lo));
  };
  for (const auto& fact : diff.reach_delta.gained) {
    EXPECT_FALSE(in_stable_space(fact)) << Ipv4Addr(fact.lo).str();
  }
  for (const auto& fact : diff.reach_delta.lost) {
    EXPECT_FALSE(in_stable_space(fact)) << Ipv4Addr(fact.lo).str();
  }
  EXPECT_TRUE(diff.reach_delta.loops_gained.empty());
  EXPECT_TRUE(diff.reach_delta.blackholes_gained.empty());
}

TEST(DnaEngine, LinkFailureOnLineLosesReachability) {
  Snapshot snap = topo::make_line(3);
  DnaEngine engine(snap);
  NetworkDiff diff =
      engine.advance(topo::with_link_state(snap, 1, false),
                     Mode::kDifferential);
  EXPECT_FALSE(diff.reach_delta.lost.empty());
  EXPECT_TRUE(diff.reach_delta.gained.empty());
  EXPECT_FALSE(diff.reach_delta.blackholes_gained.empty());
}

TEST(DnaEngine, InvariantFlipReported) {
  Snapshot snap = topo::make_line(3);
  DnaEngine engine(snap);
  engine.add_invariant(
      {Invariant::Kind::kReachable, "r0", "r2", "", host(1)});
  NetworkDiff diff = engine.advance(
      topo::with_acl_block(snap, "r1", host(1)), Mode::kDifferential);
  ASSERT_EQ(diff.invariant_flips.size(), 1u);
  EXPECT_TRUE(diff.invariant_flips[0].before_holds);
  EXPECT_FALSE(diff.invariant_flips[0].after_holds);

  // Reverting fixes it.
  NetworkDiff revert = engine.advance(snap, Mode::kDifferential);
  ASSERT_EQ(revert.invariant_flips.size(), 1u);
  EXPECT_FALSE(revert.invariant_flips[0].before_holds);
  EXPECT_TRUE(revert.invariant_flips[0].after_holds);
}

TEST(DnaEngine, RenderProducesReadableReport) {
  Snapshot snap = topo::make_line(3);
  DnaEngine engine(snap);
  NetworkDiff diff = engine.advance(
      topo::with_link_state(snap, 1, false), Mode::kDifferential);
  std::string report = render(diff, engine.snapshot().topology);
  EXPECT_NE(report.find("reachability lost"), std::string::npos);
  EXPECT_NE(report.find("r1"), std::string::npos);
  EXPECT_FALSE(summarize(diff).empty());
}

// ---------------------------------------------------------------------------
// Equivalence: differential == monolithic, on directed single changes...
// ---------------------------------------------------------------------------

struct ChangeCase {
  const char* name;
  Snapshot (*make)();
  Snapshot (*change)(Snapshot);
  /// Stages the differential advance must not run.
  std::vector<std::string> skipped = {};
};

/// Binds, inbound on every interface of `node`, an ACL that drops packets
/// whose source address is in `src`.
Snapshot with_source_block(Snapshot s, const std::string& node,
                           Ipv4Prefix src) {
  config::NodeConfig& cfg = s.config_of(node);
  std::erase_if(cfg.acls, [](const auto& acl) { return acl.name == "SRC"; });
  cfg.acls.push_back(
      {"SRC",
       {{config::FilterAction::kDeny, src, Ipv4Prefix(), -1, -1, -1},
        {config::FilterAction::kPermit, Ipv4Prefix(), Ipv4Prefix(), -1, -1,
         -1}}});
  for (auto& iface : cfg.interfaces) iface.acl_in = "SRC";
  return s;
}

/// A static route at link `link`'s `a` end toward its `b` end.
Snapshot with_static_over_link(Snapshot s, uint32_t link, Ipv4Prefix prefix) {
  const topo::Link& l = s.topology.link(link);
  const Ipv4Addr via = s.configs[l.b].find_interface(l.b_if)->address;
  return topo::with_static_route(s, s.topology.node_name(l.a), prefix, via);
}

/// ring:4 whose link 0 (r0-r1) carries no OSPF adjacency, r0's end being
/// passive, and a static route at r0 via r1's address on that link.
Snapshot ring_with_passive_static() {
  Snapshot s = topo::make_ring(4);
  const topo::Link& link = s.topology.link(0);
  s.configs[link.a].find_interface(link.a_if)->ospf_passive = true;
  return with_static_over_link(s, 0, Ipv4Prefix(Ipv4Addr(198, 18, 0, 0), 24));
}

/// Shuts or re-enables r1's end of link 0, the static route's next hop.
Snapshot with_next_hop_enabled(Snapshot s, bool enabled) {
  const topo::Link& link = s.topology.link(0);
  return topo::with_interface_enabled(s, s.topology.node_name(link.b),
                                      link.b_if, enabled);
}

// Prints the case by name, so its test id is the same on every build.
void PrintTo(const ChangeCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

ChangeCase cases[] = {
    {"ring_cost",
     [] { return topo::make_ring(6); },
     [](Snapshot s) { return topo::with_link_cost(s, 2, 99); }},
    {"ring_fail",
     [] { return topo::make_ring(6); },
     [](Snapshot s) { return topo::with_link_state(s, 2, false); }},
    {"fattree_fail",
     [] { return topo::make_fattree(4); },
     [](Snapshot s) { return topo::with_link_state(s, 5, false); }},
    {"fattree_acl",
     [] { return topo::make_fattree(4); },
     [](Snapshot s) { return topo::with_acl_block(s, "sw2", host(3)); }},
    {"line_static",
     [] { return topo::make_line(4); },
     [](Snapshot s) {
       const topo::Link& link = s.topology.link(0);
       Ipv4Addr via = s.configs[link.b].find_interface(link.b_if)->address;
       return topo::with_static_route(s, "r0",
                                      Ipv4Prefix(Ipv4Addr(198, 18, 0, 0), 24),
                                      via);
     }},
    {"bgp_withdraw",
     [] { return topo::make_two_tier_as(3, 2); },
     [](Snapshot s) { return topo::with_bgp_withdraw(s, "as0", host(0)); }},
    {"bgp_announce",
     [] { return topo::make_two_tier_as(3, 2); },
     [](Snapshot s) {
       return topo::with_bgp_announce(s, "as1",
                                      Ipv4Prefix(Ipv4Addr(198, 19, 0, 0), 24));
     }},
    // No node redistributes statics: the route feeds r1's FIB alone.
    {"ring_static",
     [] { return topo::make_ring(6); },
     [](Snapshot s) {
       return with_static_over_link(s, 1,
                                    Ipv4Prefix(Ipv4Addr(198, 18, 1, 0), 24));
     },
     {"ospf", "bgp"}},
    // r1's OSPF redistributes statics, so the route feeds OSPF everywhere.
    {"ring_static_redistributed",
     [] {
       Snapshot s = topo::make_ring(6);
       s.config_of("r1").ospf.redistribute_static = true;
       return s;
     },
     [](Snapshot s) {
       return with_static_over_link(s, 1,
                                    Ipv4Prefix(Ipv4Addr(198, 18, 1, 0), 24));
     }},
    // as0's BGP redistributes statics; nothing runs OSPF.
    {"two_tier_static_redistributed",
     [] {
       Snapshot s = topo::make_two_tier_as(3, 2);
       s.config_of("as0").bgp.redistribute_static = true;
       return s;
     },
     [](Snapshot s) {
       return with_static_over_link(s, 0,
                                    Ipv4Prefix(Ipv4Addr(198, 18, 2, 0), 24));
     },
     {"ospf"}},
    {"fattree_cost",
     [] { return topo::make_fattree(4); },
     [](Snapshot s) { return topo::with_link_cost(s, 7, 55); }},
    // An ACL feeds the data plane alone: no control-plane stage runs.
    {"ring_acl",
     [] { return topo::make_ring(6); },
     [](Snapshot s) { return topo::with_acl_block(s, "r2", host(1)); },
     {"ospf", "bgp", "fib"}},
    {"ring_shutdown",
     [] { return topo::make_ring(6); },
     [](Snapshot s) {
       return topo::with_interface_enabled(s, "r2", "eth0", false);
     }},
    {"ring_loopback",
     [] { return topo::make_ring(6); },
     [](Snapshot s) {
       s.config_of("r2").find_interface("lo")->address =
           Ipv4Addr(172, 16, 9, 9);
       return s;
     }},
    // The loopback is r2's probe source, and r3 drops packets from its old
    // address: moving it changes r2's reach in every EC routed via r3,
    // though no FIB entry for those ECs changes.
    {"ring_probe_source",
     [] {
       return with_source_block(topo::make_ring(6), "r3",
                                Ipv4Prefix(Ipv4Addr(172, 16, 0, 2), 32));
     },
     [](Snapshot s) {
       s.config_of("r2").find_interface("lo")->address =
           Ipv4Addr(172, 16, 9, 9);
       return s;
     }},
    // r0's static route resolves over r1's interface on link 0. No OSPF
    // route of r0's changes when that interface goes down or comes back,
    // yet the static route goes or comes with it.
    {"ring_passive_next_hop_shut", ring_with_passive_static,
     [](Snapshot s) { return with_next_hop_enabled(s, false); }},
    {"ring_passive_next_hop_enabled",
     [] { return with_next_hop_enabled(ring_with_passive_static(), false); },
     [](Snapshot s) { return with_next_hop_enabled(s, true); }},
};

class ModeEquivalence : public ::testing::TestWithParam<ChangeCase> {};

TEST_P(ModeEquivalence, DifferentialEqualsMonolithic) {
  const ChangeCase& test_case = GetParam();
  Snapshot base = test_case.make();
  Snapshot target = test_case.change(base);

  DnaEngine differential(base);
  DnaEngine monolithic(base);
  NetworkDiff diff_d = differential.advance(target, Mode::kDifferential);
  NetworkDiff diff_m = monolithic.advance(target, Mode::kMonolithic);
  expect_same_semantic_diff(diff_d, diff_m, test_case.name);
  for (const std::string& stage : test_case.skipped) {
    for (const auto& entry : diff_d.stages.entries()) {
      EXPECT_NE(entry.stage, stage) << test_case.name << " ran " << stage;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, ModeEquivalence, ::testing::ValuesIn(cases),
                         ::testing::PrintToStringParamName());

TEST(DnaEngine, InterfaceEditReverifiesEveryEcOnlyWhenTheDataPlaneReadsIt) {
  // Beyond FIBs and ACLs the data plane reads a node's probe source and
  // whether a link's interfaces are enabled. A probe source matters only to
  // ACL verdicts, and this ring binds no ACL. Other interface edits reach
  // the data plane through the FIB delta alone.
  const Snapshot base = topo::make_ring(6);
  DnaEngine engine(base);
  DnaEngine monolithic(base);
  auto affected = [&](const Snapshot& target) {
    const NetworkDiff diff = engine.preview(target, Mode::kDifferential);
    return std::pair(diff.affected_ecs, diff.total_ecs);
  };
  Snapshot loopback = base;
  loopback.config_of("r2").find_interface("lo")->address =
      Ipv4Addr(172, 16, 9, 9);
  const auto [moved, all] = affected(loopback);
  EXPECT_LT(moved, all);
  expect_same_semantic_diff(engine.preview(loopback, Mode::kDifferential),
                            monolithic.preview(loopback, Mode::kMonolithic),
                            "loopback without ACLs");
  // Each preview's total is its own: the loopback preview's atoms went
  // with its rollback.
  const auto [shut, shut_total] =
      affected(topo::with_interface_enabled(base, "r2", "eth0", false));
  EXPECT_EQ(shut, shut_total);
  const auto [cost, cost_total] = affected(topo::with_link_cost(base, 2, 99));
  EXPECT_LT(cost, cost_total);
  const auto [host, host_total] =
      affected(topo::with_interface_enabled(base, "r0", "host0", false));
  EXPECT_LT(host, host_total);
}

TEST(DnaEngine, ProbeSourceMoveReverifiesEveryEcWhenAnAclIsBound) {
  // r3 drops packets from r2's old loopback. Moving it changes r2's reach
  // in ECs whose FIB entries do not change, so every EC is re-verified.
  const Snapshot base = with_source_block(
      topo::make_ring(6), "r3", Ipv4Prefix(Ipv4Addr(172, 16, 0, 2), 32));
  Snapshot target = base;
  target.config_of("r2").find_interface("lo")->address =
      Ipv4Addr(172, 16, 9, 9);
  DnaEngine differential(base);
  DnaEngine monolithic(base);
  const NetworkDiff diff = differential.preview(target, Mode::kDifferential);
  EXPECT_EQ(diff.affected_ecs, diff.total_ecs);
  EXPECT_FALSE(diff.reach_delta.gained.empty());
  expect_same_semantic_diff(diff,
                            monolithic.preview(target, Mode::kMonolithic),
                            "loopback past a source ACL");
}

TEST(DnaEngine, ProbeSourceMoveIgnoresAnAclNoLinkCrosses) {
  // An ACL bound on r0's host interface is on no link direction, so no
  // probe's source address is read against it: moving r2's loopback
  // re-verifies what it does with no ACL at all.
  const Snapshot plain = topo::make_ring(6);
  Snapshot base = plain;
  config::NodeConfig& r0 = base.config_of("r0");
  r0.acls.push_back(
      {"ANY",
       {{config::FilterAction::kPermit, Ipv4Prefix(), Ipv4Prefix(), -1, -1,
         -1}}});
  r0.find_interface("host0")->acl_out = "ANY";
  auto moved = [](Snapshot s) {
    s.config_of("r2").find_interface("lo")->address = Ipv4Addr(172, 16, 9, 9);
    return s;
  };
  DnaEngine differential(base);
  DnaEngine monolithic(base);
  DnaEngine without_acl(plain);
  const NetworkDiff diff =
      differential.preview(moved(base), Mode::kDifferential);
  EXPECT_LT(diff.affected_ecs, diff.total_ecs);
  EXPECT_EQ(diff.affected_ecs,
            without_acl.preview(moved(plain), Mode::kDifferential)
                .affected_ecs);
  expect_same_semantic_diff(
      diff, monolithic.preview(moved(base), Mode::kMonolithic),
      "loopback beside a host-interface ACL");
}

TEST(DnaEngine, CostOnlyEditReverifiesWhatItsFibDeltaNames) {
  // A cost edit changes no probe source and no interface's enabled state,
  // so only the ECs of the prefixes whose forwarding changed are
  // re-verified, not all 175: on average no more than a link failure's
  // (136). Every fat-tree link is like link 0 (edge-aggregation) or link 9
  // (aggregation-core), and the two tiers have equally many links. The
  // link's own /30 changes only in metric, at every node, and so dirties
  // no EC: 136 and 130 ECs re-verify.
  Snapshot base = topo::make_fattree(6);
  DnaEngine differential(base);
  DnaEngine monolithic(base);
  size_t affected = 0;
  for (const auto [link, expected] : {std::pair{0u, 136u}, {9u, 130u}}) {
    Snapshot target = topo::with_link_cost(base, link, 60);
    NetworkDiff diff = differential.preview(target, Mode::kDifferential);
    EXPECT_LT(diff.affected_ecs, diff.total_ecs) << "link " << link;
    EXPECT_EQ(diff.affected_ecs, expected) << "link " << link;
    affected += diff.affected_ecs;
    expect_same_semantic_diff(diff,
                              monolithic.preview(target, Mode::kMonolithic),
                              "cost of link " + std::to_string(link));
  }
  EXPECT_LE(static_cast<double>(affected) / 2, 136.0);
}

// ---------------------------------------------------------------------------
// Structural changes: a node added at the end of the node list, a link added
// or removed. The reference is two fresh engines' facts, compared by node
// name. (Removing a node, or inserting one mid-list, shifts node ids; both
// modes key facts by position, so those stay out of these cases.)
// ---------------------------------------------------------------------------

/// Links `a` and `b` over fresh interfaces on the /30 at `subnet`, and peers
/// them if both run BGP.
void connect(Snapshot& s, const std::string& a, const std::string& b,
             Ipv4Addr subnet) {
  const Ipv4Addr ip_a(subnet.bits() + 1), ip_b(subnet.bits() + 2);
  auto add_interface = [&](const std::string& node, Ipv4Addr address) {
    config::NodeConfig& cfg = s.config_of(node);
    config::InterfaceConfig iface;
    iface.name = "new" + std::to_string(cfg.interfaces.size());
    iface.address = address;
    iface.prefix_len = 30;
    cfg.interfaces.push_back(iface);
    return iface.name;
  };
  const std::string if_a = add_interface(a, ip_a);
  const std::string if_b = add_interface(b, ip_b);
  s.topology.add_link(s.topology.node_id(a), if_a, s.topology.node_id(b),
                      if_b);
  config::BgpConfig& bgp_a = s.config_of(a).bgp;
  config::BgpConfig& bgp_b = s.config_of(b).bgp;
  if (bgp_a.enabled && bgp_b.enabled) {
    bgp_a.neighbors.push_back({ip_b, bgp_b.as_number, "", ""});
    bgp_b.neighbors.push_back({ip_a, bgp_a.as_number, "", ""});
  }
}

/// Appends node `name`, linked to `peer` and owning the host network
/// `hosts`, running the peer's OSPF process.
Snapshot with_node_at_end(Snapshot s, const std::string& name,
                          const std::string& peer, Ipv4Prefix hosts) {
  const topo::NodeId id = s.topology.add_node(name);
  config::NodeConfig cfg;
  cfg.name = name;
  config::InterfaceConfig lo;
  lo.name = "lo";
  lo.address = Ipv4Addr(172, 16, 200, static_cast<uint8_t>(id));
  lo.prefix_len = 32;
  lo.ospf_passive = true;
  config::InterfaceConfig host_if;
  host_if.name = "host0";
  host_if.address = Ipv4Addr(hosts.addr().bits() + 1);
  host_if.prefix_len = hosts.length();
  host_if.ospf_passive = true;
  cfg.interfaces = {lo, host_if};
  cfg.ospf = s.config_of(peer).ospf;
  s.configs.push_back(std::move(cfg));
  connect(s, name, peer, Ipv4Addr(10, 255, 0, 0));
  return s;
}

Snapshot with_new_link(Snapshot s, const std::string& a,
                       const std::string& b) {
  connect(s, a, b, Ipv4Addr(10, 255, 1, 0));
  return s;
}

/// Drops link `index`; its interfaces stay configured.
Snapshot without_link(const Snapshot& s, uint32_t index) {
  Snapshot out;
  for (topo::NodeId node = 0; node < s.topology.num_nodes(); ++node) {
    out.topology.add_node(s.topology.node_name(node));
  }
  for (uint32_t i = 0; i < s.topology.num_links(); ++i) {
    if (i == index) continue;
    const topo::Link& link = s.topology.link(i);
    out.topology.set_link_up(
        out.topology.add_link(link.a, link.a_if, link.b, link.b_if),
        link.up);
  }
  out.configs = s.configs;
  return out;
}

/// Node name -> id in one id space shared by two snapshots.
using NameIds = std::map<std::string, topo::NodeId>;

NameIds shared_ids(const Snapshot& a, const Snapshot& b) {
  NameIds ids;
  for (const Snapshot* snap : {&a, &b}) {
    for (topo::NodeId node = 0; node < snap->topology.num_nodes(); ++node) {
      ids.emplace(snap->topology.node_name(node), ids.size());
    }
  }
  return ids;
}

/// A ReachDelta whose node ids (positions in `topology`) are re-keyed into
/// `ids`, in canonical form.
dp::ReachDelta by_name(dp::ReachDelta delta, const topo::Topology& topology,
                       const NameIds& ids) {
  auto id = [&](topo::NodeId node) { return ids.at(topology.node_name(node)); };
  for (auto* facts : {&delta.gained, &delta.lost}) {
    for (dp::ReachFact& fact : *facts) {
      fact.src = id(fact.src);
      fact.dst = id(fact.dst);
    }
  }
  for (auto* facts : {&delta.loops_gained, &delta.loops_lost,
                      &delta.blackholes_gained, &delta.blackholes_lost}) {
    for (dp::FlagFact& fact : *facts) fact.src = id(fact.src);
  }
  delta.canonicalize();
  return delta;
}

/// An engine's full fact sets, as the facts "gained" from nothing.
dp::ReachDelta facts_of(const DnaEngine& engine, const NameIds& ids) {
  dp::ReachDelta facts;
  facts.gained = engine.verifier().all_reach_facts();
  facts.loops_gained = engine.verifier().all_loop_facts();
  facts.blackholes_gained = engine.verifier().all_blackhole_facts();
  return by_name(std::move(facts), engine.snapshot().topology, ids);
}

/// The delta from fact set `before` to fact set `after` (both facts_of).
dp::ReachDelta delta_between(const dp::ReachDelta& before,
                             const dp::ReachDelta& after) {
  dp::ReachDelta delta;
  delta.gained = facts_minus(after.gained, before.gained);
  delta.lost = facts_minus(before.gained, after.gained);
  delta.loops_gained = facts_minus(after.loops_gained, before.loops_gained);
  delta.loops_lost = facts_minus(before.loops_gained, after.loops_gained);
  delta.blackholes_gained =
      facts_minus(after.blackholes_gained, before.blackholes_gained);
  delta.blackholes_lost =
      facts_minus(before.blackholes_gained, after.blackholes_gained);
  return delta;
}

class StructuralChange : public ::testing::TestWithParam<ChangeCase> {};

ChangeCase structural_cases[] = {
    {"ring_add_node",
     [] { return topo::make_ring(5); },
     [](Snapshot s) {
       return with_node_at_end(s, "r5", "r0",
                               Ipv4Prefix(Ipv4Addr(172, 31, 5, 0), 24));
     }},
    {"fattree_add_node",
     [] { return topo::make_fattree(4); },
     [](Snapshot s) {
       return with_node_at_end(s, "sw20", "sw0",
                               Ipv4Prefix(Ipv4Addr(172, 31, 99, 0), 24));
     }},
    {"fattree_add_link",
     [] { return topo::make_fattree(4); },
     [](Snapshot s) { return with_new_link(s, "sw0", "sw1"); }},
    {"fattree_remove_link",
     [] { return topo::make_fattree(4); },
     [](Snapshot s) { return without_link(s, 5); }},
    {"two_tier_add_link",
     [] { return topo::make_two_tier_as(3, 2); },
     [](Snapshot s) { return with_new_link(s, "as0", "as1"); }},
    {"two_tier_remove_link",
     [] { return topo::make_two_tier_as(3, 2); },
     [](Snapshot s) { return without_link(s, 1); }},
};

TEST_P(StructuralChange, MatchesFreshEnginesByName) {
  const ChangeCase& test_case = GetParam();
  const Snapshot base = test_case.make();
  const Snapshot target = test_case.change(base);
  const NameIds ids = shared_ids(target, base);
  // Every host pair of the target: the new node's fail on the base, whose
  // node names do not include it.
  const std::vector<Invariant> invariants =
      scenario::host_reachability_invariants(target);

  DnaEngine fresh_base(base);
  DnaEngine fresh_target(target);
  const dp::ReachDelta before = facts_of(fresh_base, ids);
  const dp::ReachDelta after = facts_of(fresh_target, ids);
  const dp::ReachDelta expected = delta_between(before, after);
  std::vector<InvariantFlip> expected_flips;
  for (const Invariant& invariant : invariants) {
    const bool was = eval_invariant(invariant, base, fresh_base.verifier());
    const bool is = eval_invariant(invariant, target, fresh_target.verifier());
    if (was != is) expected_flips.push_back({invariant.describe(), was, is});
  }
  ASSERT_FALSE(expected.empty());

  for (Mode mode : {Mode::kDifferential, Mode::kMonolithic}) {
    const std::string context =
        std::string(test_case.name) +
        (mode == Mode::kDifferential ? " differential" : " monolithic");
    // The dna_cli diff path: advance, then render.
    DnaEngine engine(base);
    for (const Invariant& invariant : invariants) {
      engine.add_invariant(invariant);
    }
    NetworkDiff diff = engine.advance(target, mode);
    EXPECT_EQ(by_name(diff.reach_delta, target.topology, ids), expected)
        << context;
    EXPECT_EQ(diff.invariant_flips, expected_flips) << context;
    EXPECT_EQ(facts_of(engine, ids), after) << context;
    EXPECT_NE(render(diff, engine.snapshot().topology, 50)
                  .find(summarize(diff)),
              std::string::npos)
        << context;

    // preview: the engine ends where a fresh base engine is.
    DnaEngine previewed(base);
    for (const Invariant& invariant : invariants) {
      previewed.add_invariant(invariant);
    }
    NetworkDiff forward = previewed.preview(target, mode);
    EXPECT_EQ(by_name(forward.reach_delta, target.topology, ids), expected)
        << context;
    EXPECT_EQ(forward.invariant_flips, expected_flips) << context;
    EXPECT_TRUE(previewed.snapshot() == base) << context;
    EXPECT_EQ(facts_of(previewed, ids), before) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, StructuralChange,
                         ::testing::ValuesIn(structural_cases),
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// ... and on randomized change sequences per topology.
// ---------------------------------------------------------------------------

class ModeEquivalenceChurn : public ::testing::TestWithParam<const char*> {};

TEST_P(ModeEquivalenceChurn, SequencesAgree) {
  std::string which = GetParam();
  Rng rng(0xD1FF + which.size());
  Snapshot snap;
  if (which == "ring") snap = topo::make_ring(6);
  if (which == "fattree") snap = topo::make_fattree(4);
  if (which == "two_tier") snap = topo::make_two_tier_as(3, 2);

  DnaEngine differential(snap);
  DnaEngine monolithic(snap);
  differential.add_invariant(
      {Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()});
  monolithic.add_invariant(
      {Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()});

  for (int step = 0; step < 10; ++step) {
    topo::RandomChange change = topo::random_change(snap, rng);
    snap = std::move(change.snapshot);
    NetworkDiff diff_d = differential.advance(snap, Mode::kDifferential);
    NetworkDiff diff_m = monolithic.advance(snap, Mode::kMonolithic);
    expect_same_semantic_diff(
        diff_d, diff_m,
        which + " step " + std::to_string(step) + ": " + change.description);
    if (HasNonfatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ModeEquivalenceChurn,
                         ::testing::Values("ring", "fattree", "two_tier"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Kept invariant verdicts: a differential engine re-evaluates only the
// invariants whose traffic overlaps a re-verified EC, so a long churn of
// advances and previews must report monolithic mode's flips at every step
// and end with verdicts a fresh engine agrees with.
// ---------------------------------------------------------------------------

/// Prefixes the churn's static routes cover: two nobody owns, and halves of
/// the host networks 172.31.0.0/24 and 172.31.1.0/24.
const std::vector<Ipv4Prefix>& static_prefixes() {
  static const std::vector<Ipv4Prefix> prefixes = {
      Ipv4Prefix(Ipv4Addr(192, 168, 0, 0), 24),
      Ipv4Prefix(Ipv4Addr(192, 168, 1, 0), 24),
      Ipv4Prefix(Ipv4Addr(172, 31, 0, 0), 25),
      Ipv4Prefix(Ipv4Addr(172, 31, 1, 128), 25)};
  return prefixes;
}

std::vector<Invariant> churn_invariants(const Snapshot& base) {
  std::vector<Invariant> invariants =
      scenario::host_reachability_invariants(base);
  invariants.push_back({Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()});
  const topo::Topology& topology = base.topology;
  const std::string& a = topology.node_name(
      topo::find_address_owner(base, Ipv4Addr(172, 31, 0, 1)));
  const std::string& b = topology.node_name(
      topo::find_address_owner(base, Ipv4Addr(172, 31, 1, 1)));
  const std::string& waypoint = topology.node_name(1);
  const std::string& far = topology.node_name(
      static_cast<topo::NodeId>(topology.num_nodes() - 1));
  for (const Ipv4Prefix& prefix : static_prefixes()) {
    invariants.push_back({Invariant::Kind::kReachable, far, a, "", prefix});
    invariants.push_back({Invariant::Kind::kReachable, a, b, "", prefix});
    invariants.push_back({Invariant::Kind::kIsolated, a, b, "", prefix});
    invariants.push_back(
        {Invariant::Kind::kWaypoint, far, a, waypoint, prefix});
    invariants.push_back({Invariant::Kind::kBlackholeFree, a, "", "", prefix});
    invariants.push_back(
        {Invariant::Kind::kBlackholeFree, far, "", "", prefix});
  }
  return invariants;
}

/// One churn edit of `snap`: random_change's mix (costs, link failures and
/// repairs, ACL blocks, static routes), static routes over the invariants'
/// prefixes and their removal, interface shutdowns and repairs,
/// re-addressed loopbacks and links, ACLs on probe sources, and a return to
/// `base`.
Snapshot churn_edit(const Snapshot& base, const Snapshot& snap, Rng& rng,
                    std::string& what) {
  const topo::Topology& topology = snap.topology;
  const auto node =
      static_cast<topo::NodeId>(rng.below(topology.num_nodes()));
  const std::string& name = topology.node_name(node);
  switch (rng.below(11)) {
    case 0:
    case 1:
    case 2: {
      topo::RandomChange change = topo::random_change(snap, rng);
      what = change.description;
      return std::move(change.snapshot);
    }
    case 3:
    case 4: {
      const std::vector<uint32_t>& links = topology.links_of(node);
      const topo::Link& link = topology.link(links[rng.below(links.size())]);
      const topo::NodeId peer = link.peer_of(node);
      const Ipv4Prefix& prefix =
          static_prefixes()[rng.below(static_prefixes().size())];
      what = "static " + prefix.str() + " at " + name;
      return topo::with_static_route(
          snap, name, prefix,
          snap.configs[peer].find_interface(link.if_of(peer))->address);
    }
    case 5: {
      Snapshot next = snap;
      next.configs[node].static_routes.clear();
      what = "clear static routes at " + name;
      return next;
    }
    case 6: {
      const auto& interfaces = snap.configs[node].interfaces;
      const auto& iface = interfaces[rng.below(interfaces.size())];
      what = (iface.enabled ? "shut " : "enable ") + name + ":" + iface.name;
      return topo::with_interface_enabled(snap, name, iface.name,
                                          !iface.enabled);
    }
    case 7: {
      // Half the new addresses fall in the source block of case 9.
      Snapshot next = snap;
      next.configs[node].find_interface("lo")->address = Ipv4Addr(
          172, 16, static_cast<uint8_t>(100 + rng.below(2)),
          static_cast<uint8_t>(node));
      what = "re-address lo at " + name;
      return next;
    }
    case 8: {
      // Both ends of a link move to a fresh /30 (they must share a subnet).
      const auto index =
          static_cast<uint32_t>(rng.below(topology.num_links()));
      const topo::Link& link = topology.link(index);
      const uint32_t subnet = Ipv4Addr(10, 254, 0, 0).bits() +
                              4 * static_cast<uint32_t>(rng.below(64));
      Snapshot next = snap;
      next.configs[link.a].find_interface(link.a_if)->address =
          Ipv4Addr(subnet + 1);
      next.configs[link.b].find_interface(link.b_if)->address =
          Ipv4Addr(subnet + 2);
      what = "re-address link " + std::to_string(index);
      return next;
    }
    case 9:
      what = "block sources 172.16.100.0/24 at " + name;
      return with_source_block(snap, name,
                               Ipv4Prefix(Ipv4Addr(172, 16, 100, 0), 24));
    default:
      what = "back to the base";
      return base;
  }
}

struct ChurnCase {
  const char* topology;
  uint64_t seed;
};

// Prints the case by name, so its test id is the same on every build.
void PrintTo(const ChurnCase& test_case, std::ostream* os) {
  *os << test_case.topology << "_seed" << test_case.seed;
}

class InvariantChurn : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(InvariantChurn, FlipsMatchMonolithicAndVerdictsStayFresh) {
  const std::string which = GetParam().topology;
  const uint64_t seed = GetParam().seed;
  Snapshot base;
  if (which == "ring") base = topo::make_ring(6);
  if (which == "fattree") base = topo::make_fattree(4);
  if (which == "two_tier") base = topo::make_two_tier_as(3, 2);
  if (which == "grid") base = topo::make_grid(3, 3);
  if (seed % 2 == 1) {
    // Static routes feed OSPF or BGP, not only the FIB.
    for (config::NodeConfig& cfg : base.configs) {
      cfg.ospf.redistribute_static = cfg.ospf.enabled;
      cfg.bgp.redistribute_static = cfg.bgp.enabled;
    }
  }
  const std::vector<Invariant> invariants = churn_invariants(base);
  DnaEngine differential(base);
  DnaEngine monolithic(base);
  for (const Invariant& invariant : invariants) {
    differential.add_invariant(invariant);
    monolithic.add_invariant(invariant);
  }

  Rng rng(0xC4A2 + seed);
  Snapshot snap = base;
  for (int step = 0; step < 40; ++step) {
    std::string what;
    Snapshot next = churn_edit(base, snap, rng, what);
    const bool preview = rng.below(3) == 0;
    const std::string context = "step " + std::to_string(step) + ": " +
                                (preview ? "preview " : "") + what;
    NetworkDiff diff_d = preview
                             ? differential.preview(next, Mode::kDifferential)
                             : differential.advance(next, Mode::kDifferential);
    NetworkDiff diff_m = preview ? monolithic.preview(next, Mode::kMonolithic)
                                 : monolithic.advance(next, Mode::kMonolithic);
    expect_same_semantic_diff(diff_d, diff_m, context);
    if (HasFailure()) return;
    if (!preview) snap = std::move(next);
  }

  // A monolithic advance re-evaluates every "after" verdict but takes
  // "before" from the kept ones, so a stale kept verdict shows as a flip
  // that a fresh engine at the same snapshot does not report.
  DnaEngine fresh(snap);
  for (const Invariant& invariant : invariants) fresh.add_invariant(invariant);
  EXPECT_EQ(differential.advance(base, Mode::kMonolithic).invariant_flips,
            fresh.advance(base, Mode::kMonolithic).invariant_flips);
}

std::vector<ChurnCase> churn_cases() {
  std::vector<ChurnCase> cases;
  for (const char* topology : {"ring", "fattree", "two_tier", "grid"}) {
    for (uint64_t seed = 0; seed < 6; ++seed) cases.push_back({topology, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantChurn,
                         ::testing::ValuesIn(churn_cases()),
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// FIB oracle: a differential advance patches FIBs one (node, prefix) entry
// at a time, so after every advance and preview the tables must equal a
// fresh build's, entry for entry.
// ---------------------------------------------------------------------------

/// "" when `actual` equals `expected`, else the first node whose FIB
/// differs, with its extra and missing entries.
std::string fib_mismatch(const std::vector<cp::Fib>& actual,
                         const std::vector<cp::Fib>& expected,
                         const topo::Topology& topology) {
  if (actual.size() != expected.size()) return "node counts differ";
  for (topo::NodeId node = 0; node < expected.size(); ++node) {
    if (actual[node] == expected[node]) continue;
    const cp::NodeFibDelta delta = cp::diff_fib(expected[node], actual[node]);
    std::string out = topology.node_name(node) + ":";
    for (const cp::FibEntry& entry : delta.added) {
      out += " extra " + entry.str(topology);
    }
    for (const cp::FibEntry& entry : delta.removed) {
      out += " missing " + entry.str(topology);
    }
    return out;
  }
  return "";
}

/// One FIB-oracle edit: churn_edit's mix (costs, link failures, interface
/// shutdowns, re-addressed loopbacks and links, static routes), plus static
/// routes over links made OSPF-passive at the near end, the far interface
/// of an existing static route shut or re-enabled, and BGP announcements
/// and withdrawals.
Snapshot fib_edit(const Snapshot& base, const Snapshot& snap, Rng& rng,
                  std::string& what) {
  const topo::Topology& topology = snap.topology;
  switch (rng.below(8)) {
    case 0: {
      const auto index =
          static_cast<uint32_t>(rng.below(topology.num_links()));
      const topo::Link& link = topology.link(index);
      const Ipv4Prefix prefix(
          Ipv4Addr(198, 18, static_cast<uint8_t>(rng.below(4)), 0), 24);
      Snapshot next = snap;
      next.configs[link.a].find_interface(link.a_if)->ospf_passive = true;
      next.configs[link.a].static_routes.push_back(
          {prefix, snap.configs[link.b].find_interface(link.b_if)->address});
      what = "static " + prefix.str() + " over passive link " +
             std::to_string(index);
      return next;
    }
    case 1: {
      // The far ends of the links static routes resolve over.
      std::vector<std::pair<topo::NodeId, std::string>> far_ends;
      for (const topo::Link& link : topology.links()) {
        for (topo::NodeId near : {link.a, link.b}) {
          const topo::NodeId far = link.peer_of(near);
          const Ipv4Addr address =
              snap.configs[far].find_interface(link.if_of(far))->address;
          for (const auto& route : snap.configs[near].static_routes) {
            if (route.next_hop == address) {
              far_ends.emplace_back(far, link.if_of(far));
            }
          }
        }
      }
      if (far_ends.empty()) break;
      const auto& [far, if_name] = far_ends[rng.below(far_ends.size())];
      const bool enabled = snap.configs[far].find_interface(if_name)->enabled;
      what = (enabled ? "shut next hop " : "enable next hop ") +
             topology.node_name(far) + ":" + if_name;
      return topo::with_interface_enabled(snap, topology.node_name(far),
                                          if_name, !enabled);
    }
    case 2:
    case 3: {
      const auto node =
          static_cast<topo::NodeId>(rng.below(topology.num_nodes()));
      const config::BgpConfig& bgp = snap.configs[node].bgp;
      if (!bgp.enabled) break;
      const std::string& name = topology.node_name(node);
      if (!bgp.networks.empty() && rng.below(2) == 0) {
        const Ipv4Prefix prefix = bgp.networks[rng.below(bgp.networks.size())];
        what = "withdraw " + prefix.str() + " at " + name;
        return topo::with_bgp_withdraw(snap, name, prefix);
      }
      const Ipv4Prefix prefix(
          Ipv4Addr(198, 19, static_cast<uint8_t>(rng.below(4)), 0), 24);
      what = "announce " + prefix.str() + " at " + name;
      return topo::with_bgp_announce(snap, name, prefix);
    }
    default:
      break;
  }
  return churn_edit(base, snap, rng, what);
}

class FibOracle : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(FibOracle, DifferentialFibsEqualAFreshBuild) {
  const std::string which = GetParam().topology;
  const uint64_t seed = GetParam().seed;
  Snapshot base;
  if (which == "ring") base = topo::make_ring(6);
  if (which == "grid") base = topo::make_grid(3, 3);
  if (which == "fattree") base = topo::make_fattree(4);
  if (which == "two_tier") base = topo::make_two_tier_as(3, 2);
  if (seed % 2 == 1) {
    // Static routes feed OSPF or BGP, not only the FIB.
    for (config::NodeConfig& cfg : base.configs) {
      cfg.ospf.redistribute_static = cfg.ospf.enabled;
      cfg.bgp.redistribute_static = cfg.bgp.enabled;
    }
  }
  DnaEngine engine(base);
  Rng rng(0xF1B0 + seed);
  Snapshot snap = base;
  for (int step = 0; step < 40; ++step) {
    std::string what;
    Snapshot next = fib_edit(base, snap, rng, what);
    const bool preview = rng.below(3) == 0;
    if (preview) {
      engine.preview(next, Mode::kDifferential);
    } else {
      engine.advance(next, Mode::kDifferential);
      snap = std::move(next);
    }
    ASSERT_EQ(fib_mismatch(engine.control_plane().fibs(),
                           cp::ControlPlaneEngine::compute_fibs(snap),
                           snap.topology),
              "")
        << "step " << step << ": " << (preview ? "preview " : "") << what;
  }
}

std::vector<ChurnCase> fib_oracle_cases() {
  std::vector<ChurnCase> cases;
  for (const char* topology : {"ring", "grid", "fattree", "two_tier"}) {
    for (uint64_t seed = 0; seed < 3; ++seed) cases.push_back({topology, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FibOracle,
                         ::testing::ValuesIn(fib_oracle_cases()),
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// Preview rollback: a preview logs the old value of everything its forward
// advance overwrites and rolls back from that log. Around every preview the
// engine's whole state must therefore be unchanged, in both modes and with
// real commits interleaved, and the commits must keep matching a monolithic
// engine's diffs and control plane.
// ---------------------------------------------------------------------------

/// An edge table's entry with its rule lists by value; none: unbound.
using BoundAcls = std::pair<std::optional<dp::AclRules>,
                            std::optional<dp::AclRules>>;

/// Everything a preview writes, read through the engine's accessors.
struct EngineState {
  Snapshot snapshot;
  std::vector<cp::Fib> fibs;
  std::vector<std::map<Ipv4Prefix, cp::OspfRoute>> ospf_routes;  // by node
  std::vector<std::vector<int>> distances;                       // by source
  std::vector<std::map<Ipv4Prefix, cp::BgpSim::Best>> bgp_best;  // by node
  std::vector<std::pair<uint32_t, uint32_t>> ranges;              // by EC
  std::vector<dp::EcGraph> graphs;                                // by EC
  std::vector<dp::EcReach> reaches;                               // by EC
  std::vector<bool> links_enabled;
  std::vector<BoundAcls> acls;  // by link direction
  std::vector<Ipv4Addr> probe_sources;

  explicit EngineState(const DnaEngine& engine)
      : snapshot(engine.snapshot()), fibs(engine.control_plane().fibs()) {
    const cp::ControlPlaneEngine& cp = engine.control_plane();
    for (topo::NodeId node = 0; node < snapshot.topology.num_nodes();
         ++node) {
      ospf_routes.push_back(cp.ospf().routes(node));
      distances.push_back(cp.ospf().dist(node));
      bgp_best.push_back(cp.bgp().best(node));
    }
    const dp::Verifier& dp = engine.verifier();
    for (dp::EcId ec = 0; ec < dp.num_ecs(); ++ec) {
      ranges.emplace_back(dp.ec_index().range(ec).lo,
                          dp.ec_index().range(ec).hi);
      graphs.push_back(dp.graph(ec));
      reaches.push_back(dp.reach(ec));
    }
    links_enabled = dp.edges().links_enabled;
    auto by_value = [](const dp::AclRules* rules) {
      return rules ? std::optional<dp::AclRules>(*rules) : std::nullopt;
    };
    for (const dp::EdgeTable::Acls& bound : dp.edges().acls) {
      acls.emplace_back(by_value(bound.out), by_value(bound.in));
    }
    probe_sources = dp.edges().probe_sources;
  }
};

/// "" when both engines' control planes hold the same FIBs, OSPF routes
/// and distances, and BGP best routes; else the first that differs.
std::string control_plane_mismatch(const EngineState& a,
                                   const EngineState& b) {
  if (a.fibs != b.fibs) return "FIBs";
  for (topo::NodeId node = 0; node < a.ospf_routes.size(); ++node) {
    const std::string& name = a.snapshot.topology.node_name(node);
    if (a.ospf_routes[node] != b.ospf_routes.at(node)) {
      return "OSPF routes at " + name;
    }
    if (a.distances[node] != b.distances.at(node)) {
      return "distances from " + name;
    }
    if (a.bgp_best[node] != b.bgp_best.at(node)) return "BGP best at " + name;
  }
  return "";
}

/// "" when the two states are equal; else the first layer that differs.
std::string state_mismatch(const EngineState& a, const EngineState& b) {
  if (!(a.snapshot == b.snapshot)) return "snapshot";
  if (std::string cp = control_plane_mismatch(a, b); !cp.empty()) return cp;
  if (a.ranges.size() != b.ranges.size()) {
    return std::to_string(a.ranges.size()) + " ECs became " +
           std::to_string(b.ranges.size());
  }
  for (dp::EcId ec = 0; ec < a.ranges.size(); ++ec) {
    const std::string id = "EC " + std::to_string(ec);
    if (a.ranges[ec] != b.ranges[ec]) return id + "'s range";
    if (!(a.graphs[ec] == b.graphs[ec])) return id + "'s graph";
    if (!(a.reaches[ec] == b.reaches[ec])) return id + "'s reach";
  }
  if (a.links_enabled != b.links_enabled) return "enabled links";
  if (a.acls != b.acls) return "bound ACLs";
  if (a.probe_sources != b.probe_sources) return "probe sources";
  return "";
}

/// A structural change of `snap`: a node appended, a link added, or one
/// removed.
Snapshot structural_edit(const Snapshot& snap, Rng& rng, std::string& what) {
  const topo::Topology& topology = snap.topology;
  const std::string& first = topology.node_name(0);
  switch (rng.below(3)) {
    case 0:
      what = "append a node";
      return with_node_at_end(snap, "new", first,
                              Ipv4Prefix(Ipv4Addr(172, 31, 99, 0), 24));
    case 1:
      what = "add a link";
      return with_new_link(snap, first,
                           topology.node_name(static_cast<topo::NodeId>(
                               topology.num_nodes() - 1)));
    default: {
      const auto index =
          static_cast<uint32_t>(rng.below(topology.num_links()));
      what = "remove link " + std::to_string(index);
      return without_link(snap, index);
    }
  }
}

class PreviewRollback : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(PreviewRollback, EngineStateIsUnchanged) {
  const std::string which = GetParam().topology;
  const uint64_t seed = GetParam().seed;
  Snapshot base;
  if (which == "ring") base = topo::make_ring(6);
  if (which == "grid") base = topo::make_grid(3, 3);
  if (which == "fattree") base = topo::make_fattree(4);
  if (which == "two_tier") base = topo::make_two_tier_as(3, 2);
  if (seed % 2 == 1) {
    // Static routes feed OSPF or BGP, not only the FIB.
    for (config::NodeConfig& cfg : base.configs) {
      cfg.ospf.redistribute_static = cfg.ospf.enabled;
      cfg.bgp.redistribute_static = cfg.bgp.enabled;
    }
  }
  const std::vector<Invariant> invariants = churn_invariants(base);
  DnaEngine engine(base);
  DnaEngine reference(base);  // commits monolithically
  for (const Invariant& invariant : invariants) {
    engine.add_invariant(invariant);
    reference.add_invariant(invariant);
  }

  Rng rng(0x7E11 + seed);
  Snapshot snap = base;
  for (int step = 0; step < 40; ++step) {
    std::string what;
    // Structural targets are previewed only. Otherwise: commit, preview in
    // either mode, or preview and then commit the same target.
    const bool structural = rng.below(8) == 0;
    Snapshot next = structural ? structural_edit(snap, rng, what)
                               : fib_edit(base, snap, rng, what);
    const uint64_t kind = structural ? 1 + rng.below(2) : rng.below(4);
    const std::string context = "step " + std::to_string(step) + ": " + what;
    if (kind != 0) {
      const Mode mode = kind == 2 ? Mode::kMonolithic : Mode::kDifferential;
      const EngineState before(engine);
      engine.preview(next, mode);
      ASSERT_EQ(state_mismatch(before, EngineState(engine)), "")
          << context << (mode == Mode::kMonolithic ? ", monolithic" : "");
    }
    if (kind == 0 || kind == 3) {
      expect_same_semantic_diff(engine.advance(next, Mode::kDifferential),
                                reference.advance(next, Mode::kMonolithic),
                                "commit " + context);
      ASSERT_FALSE(HasFailure());
      ASSERT_EQ(control_plane_mismatch(EngineState(engine),
                                       EngineState(reference)),
                "")
          << "commit " << context;
      snap = std::move(next);
    }
  }

  // Kept verdicts: one monolithic advance's flips against a fresh engine's.
  // A stale kept verdict shows as a flip the fresh engine does not report.
  DnaEngine fresh(snap);
  for (const Invariant& invariant : invariants) fresh.add_invariant(invariant);
  EXPECT_EQ(engine.advance(snap, Mode::kMonolithic).invariant_flips,
            fresh.advance(snap, Mode::kMonolithic).invariant_flips);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreviewRollback,
                         ::testing::ValuesIn(fib_oracle_cases()),
                         ::testing::PrintToStringParamName());

/// The entries that differ between two states of one engine, as a
/// rollback counts them: FIB entries (as delta lines), OSPF routes and
/// distances, BGP best routes, atoms split off, and the graph rows,
/// delivered rows and flag pairs of the ECs both states hold.
size_t entries_between(const EngineState& a, const EngineState& b) {
  size_t entries = cp::diff_fibs(a.fibs, b.fibs).total_changes() +
                   std::max(a.graphs.size(), b.graphs.size()) -
                   std::min(a.graphs.size(), b.graphs.size());
  auto map_changes = [](const auto& x, const auto& y) {
    size_t changes = 0;
    for (const auto& [key, value] : x) {
      const auto it = y.find(key);
      changes += it == y.end() || !(it->second == value);
    }
    for (const auto& [key, value] : y) changes += !x.count(key);
    return changes;
  };
  for (topo::NodeId node = 0; node < a.ospf_routes.size(); ++node) {
    entries += map_changes(a.ospf_routes[node], b.ospf_routes[node]) +
               map_changes(a.bgp_best[node], b.bgp_best[node]);
    for (topo::NodeId to = 0; to < a.distances[node].size(); ++to) {
      entries += a.distances[node][to] != b.distances[node][to];
    }
  }
  for (dp::EcId ec = 0; ec < std::min(a.graphs.size(), b.graphs.size());
       ++ec) {
    for (topo::NodeId node = 0; node < a.graphs[ec].verdicts.size();
         ++node) {
      entries += !(a.graphs[ec].verdicts[node] == b.graphs[ec].verdicts[node]);
      entries += a.reaches[ec].delivered[node] != b.reaches[ec].delivered[node];
    }
    entries += a.reaches[ec].loop != b.reaches[ec].loop ||
               a.reaches[ec].blackhole != b.reaches[ec].blackhole;
  }
  return entries;
}

TEST(DnaEngine, RollbackWritesBackWhatTheForwardChanged) {
  // Failing fattree:6 link 0 changes 1,065 entries: 244 graph rows, 35
  // reach rows, 256 OSPF routes, 18 distances and 512 FIB delta lines. A
  // static route changes one FIB entry and splits off two atoms. The
  // rollback writes each back once, and the FIB delta once more for the
  // LPM tables. The bounds are the counts measured when the rollback
  // landed, and ratchets: lower them when the work falls, never raise them.
  constexpr size_t kMaxFailureEntries = 1579;
  constexpr size_t kMaxStaticEntries = 4;
  const Snapshot base = topo::make_fattree(6);
  DnaEngine engine(base);
  const EngineState before(engine);
  const topo::Link& link = base.topology.link(0);
  const Snapshot static_route = topo::with_static_route(
      base, base.topology.node_name(link.a),
      Ipv4Prefix(Ipv4Addr(198, 18, 0, 0), 24),
      base.configs[link.b].find_interface(link.b_if)->address);
  for (const Snapshot& target :
       {topo::with_link_state(base, 0, false), static_route}) {
    const bool failure = &target != &static_route;
    DnaEngine advanced(base);
    advanced.advance(target, Mode::kDifferential);
    const size_t changed = entries_between(before, EngineState(advanced));
    engine.preview(target, Mode::kDifferential);
    const size_t written = engine.last_rollback_entries();
    const std::string context = failure ? "link failure" : "static route";
    EXPECT_GE(written, changed) << context;
    EXPECT_LE(written, 2 * changed) << context;
    EXPECT_LE(written, failure ? kMaxFailureEntries : kMaxStaticEntries)
        << context;
  }
}

TEST(DnaEngine, PreviewsLeaveNoAtomsBehind) {
  // Each preview of a fresh static /24 splits atoms, and its rollback
  // merges them back. When a preview advanced back to base instead, these
  // previews took fattree:6 from 175 ECs to 1,174.
  const Snapshot base = topo::make_fattree(6);
  DnaEngine engine(base);
  const size_t ecs = engine.verifier().num_ecs();
  const topo::Link& link = base.topology.link(0);
  const std::string& near = base.topology.node_name(link.a);
  const Ipv4Addr via = base.configs[link.b].find_interface(link.b_if)->address;
  for (int i = 0; i < 1000; ++i) {
    const Ipv4Prefix prefix(Ipv4Addr(10, static_cast<uint8_t>(200 + i / 250),
                                     static_cast<uint8_t>(i % 250), 0),
                            24);
    const NetworkDiff diff = engine.preview(
        topo::with_static_route(base, near, prefix, via), Mode::kDifferential);
    ASSERT_GT(diff.total_ecs, ecs) << prefix.str();
    ASSERT_EQ(engine.verifier().num_ecs(), ecs) << prefix.str();
  }
}

}  // namespace
}  // namespace dna::core
