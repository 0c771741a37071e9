// Verifier: full verification semantics, the incremental-equals-fresh
// property under randomized change sequences, and every EC's reachability
// against the DFS oracle (reach_oracle.h).
#include <gtest/gtest.h>

#include "controlplane/engine.h"
#include "dataplane/verifier.h"
#include "reach_oracle.h"
#include "topo/generators.h"
#include "topo/mutators.h"
#include "util/rng.h"

namespace dna::dp {
namespace {

using topo::Snapshot;

TEST(Verifier, FullBuildCoversAllAtoms) {
  Snapshot snap = topo::make_fattree(4);
  auto fibs = cp::ControlPlaneEngine::compute_fibs(snap);
  Verifier verifier(&snap, &fibs);
  EXPECT_GT(verifier.num_ecs(), 10u);
  // Every atom has a graph and a reach record.
  for (EcId ec = 0; ec < verifier.num_ecs(); ++ec) {
    EXPECT_EQ(verifier.graph(ec).verdicts.size(), snap.topology.num_nodes());
  }
}

TEST(Verifier, ReachFactsCanonicalFormIsSortedAndCoalesced) {
  Snapshot snap = topo::make_line(3);
  auto fibs = cp::ControlPlaneEngine::compute_fibs(snap);
  Verifier verifier(&snap, &fibs);
  auto facts = verifier.all_reach_facts();
  ASSERT_FALSE(facts.empty());
  EXPECT_TRUE(std::is_sorted(facts.begin(), facts.end()));
  for (size_t i = 0; i + 1 < facts.size(); ++i) {
    if (facts[i].src == facts[i + 1].src &&
        facts[i].dst == facts[i + 1].dst) {
      // Coalesced: no two adjacent facts of the same pair touch.
      EXPECT_LT(static_cast<uint64_t>(facts[i].hi) + 1, facts[i + 1].lo);
    }
  }
}

TEST(CanonicalFacts, MergesAdjacentRanges) {
  std::vector<ReachFact> facts = {
      {1, 2, 100, 199}, {1, 2, 200, 300}, {1, 2, 500, 600}, {1, 3, 301, 400}};
  canonicalize_facts(facts);
  ASSERT_EQ(facts.size(), 3u);
  EXPECT_EQ(facts[0].lo, 100u);
  EXPECT_EQ(facts[0].hi, 300u);
  EXPECT_EQ(facts[1].lo, 500u);
  EXPECT_EQ(facts[2].dst, 3u);
}

/// The incremental verifier's state after a change must match a verifier
/// built fresh against the new inputs (compared via canonical facts).
void expect_verifier_matches_fresh(const Verifier& incremental,
                                   const Snapshot& snap,
                                   const std::vector<cp::Fib>& fibs,
                                   const std::string& context) {
  Verifier fresh(&snap, &fibs);
  EXPECT_EQ(incremental.all_reach_facts(), fresh.all_reach_facts()) << context;
  EXPECT_EQ(incremental.all_loop_facts(), fresh.all_loop_facts()) << context;
  EXPECT_EQ(incremental.all_blackhole_facts(), fresh.all_blackhole_facts())
      << context;
}

TEST(Verifier, IncrementalLinkCostChange) {
  Snapshot snap = topo::make_ring(6);
  cp::ControlPlaneEngine engine(snap);
  Verifier verifier(&engine.snapshot(), &engine.fibs());

  Snapshot changed = topo::with_link_cost(snap, 1, 77);
  cp::AdvanceResult result = engine.advance(changed);
  ReachDelta delta = verifier.apply(&engine.snapshot(), result.fib_delta,
                                    result.config_changes);
  (void)delta;
  expect_verifier_matches_fresh(verifier, engine.snapshot(), engine.fibs(),
                                "cost change");
}

TEST(Verifier, AclChangeTouchesOnlyCoveredAtoms) {
  Snapshot snap = topo::make_fattree(4);
  cp::ControlPlaneEngine engine(snap);
  Verifier verifier(&engine.snapshot(), &engine.fibs());
  const size_t total = verifier.num_ecs();

  // Block 172.31.3.0/24 at its own edge switch (sw3 hosts it), so transit
  // traffic entering sw3 is dropped by the inbound ACL.
  Snapshot changed =
      topo::with_acl_block(snap, "sw3", Ipv4Prefix(Ipv4Addr(172, 31, 3, 0), 24));
  cp::AdvanceResult result = engine.advance(changed);
  EXPECT_TRUE(result.fib_delta.empty());  // control plane untouched
  ReachDelta delta = verifier.apply(&engine.snapshot(), result.fib_delta,
                                    result.config_changes);
  EXPECT_FALSE(delta.empty());
  EXPECT_FALSE(delta.lost.empty());
  // Only the atoms of the blocked /24 (plus splits) are re-verified.
  EXPECT_LT(verifier.last_affected_ecs(), total / 4);
  expect_verifier_matches_fresh(verifier, engine.snapshot(), engine.fibs(),
                                "acl change");
}

TEST(Verifier, ReachDeltaReportsLostDelivery) {
  Snapshot snap = topo::make_line(3);
  cp::ControlPlaneEngine engine(snap);
  Verifier verifier(&engine.snapshot(), &engine.fibs());

  // Fail the r1-r2 link: r0 loses the 172.31.1.0/24 host net at r2.
  Snapshot broken = topo::with_link_state(snap, 1, false);
  cp::AdvanceResult result = engine.advance(broken);
  ReachDelta delta = verifier.apply(&engine.snapshot(), result.fib_delta,
                                    result.config_changes);
  const auto r0 = snap.topology.node_id("r0");
  const auto r2 = snap.topology.node_id("r2");
  bool lost_host = false;
  for (const ReachFact& fact : delta.lost) {
    if (fact.src == r0 && fact.dst == r2 &&
        fact.lo <= Ipv4Addr(172, 31, 1, 5).bits() &&
        fact.hi >= Ipv4Addr(172, 31, 1, 5).bits()) {
      lost_host = true;
    }
  }
  EXPECT_TRUE(lost_host);
  EXPECT_TRUE(delta.gained.empty());
}

class VerifierChurn : public ::testing::TestWithParam<const char*> {};

TEST_P(VerifierChurn, IncrementalEqualsFreshUnderRandomChanges) {
  std::string which = GetParam();
  Rng rng(0x5E + which.size());
  Snapshot snap;
  if (which == "ring") snap = topo::make_ring(6);
  if (which == "fattree") snap = topo::make_fattree(4);
  if (which == "two_tier") snap = topo::make_two_tier_as(3, 2);
  if (which == "grid") snap = topo::make_grid(3, 3);

  cp::ControlPlaneEngine engine(snap);
  Verifier verifier(&engine.snapshot(), &engine.fibs());

  for (int step = 0; step < 15; ++step) {
    topo::RandomChange change = topo::random_change(snap, rng);
    snap = std::move(change.snapshot);
    cp::AdvanceResult result = engine.advance(snap);
    verifier.apply(&engine.snapshot(), result.fib_delta, result.config_changes);
    expect_verifier_matches_fresh(
        verifier, engine.snapshot(), engine.fibs(),
        which + " step " + std::to_string(step) + ": " + change.description);
    if (HasNonfatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, VerifierChurn,
                         ::testing::Values("ring", "fattree", "two_tier",
                                           "grid"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// The single reachability pass against the DFS oracle, on every EC, after a
// fresh build and after each incremental apply.
// ---------------------------------------------------------------------------

/// What the checks saw, so a case can show it covered each behaviour.
struct OracleCoverage {
  size_t ecs = 0;
  size_t loops = 0;       // ECs in which some source loops
  size_t blackholes = 0;  // ECs in which some source reaches a drop
  /// ECs in which two sources with the same forwarding graph reach
  /// different nodes because an ACL judged their probes differently.
  size_t acl_splits = 0;
};

/// Compares every EC's reach with the DFS's over the same graph.
void expect_every_ec_matches_dfs(const Verifier& verifier,
                                 const Snapshot& snap,
                                 const std::string& context,
                                 OracleCoverage& seen) {
  const size_t n = snap.topology.num_nodes();
  for (EcId ec = 0; ec < verifier.num_ecs(); ++ec) {
    const Ipv4Addr rep = verifier.ec_index().representative(ec);
    const EcReach expected = dfs_reach(snap, verifier.graph(ec), rep);
    const EcReach& actual = verifier.reach(ec);
    ++seen.ecs;
    if (expected.loop.any()) ++seen.loops;
    if (expected.blackhole.any()) ++seen.blackholes;
    if (actual == expected) continue;
    for (topo::NodeId src = 0; src < n; ++src) {
      EXPECT_EQ(actual.delivered[src].to_indices(),
                expected.delivered[src].to_indices())
          << context << ": delivered from " << snap.topology.node_name(src)
          << " to " << rep.str();
      EXPECT_EQ(actual.loop.test(src), expected.loop.test(src))
          << context << ": loop from " << snap.topology.node_name(src)
          << " to " << rep.str();
      EXPECT_EQ(actual.blackhole.test(src), expected.blackhole.test(src))
          << context << ": blackhole from " << snap.topology.node_name(src)
          << " to " << rep.str();
    }
    return;
  }
}

/// Counts the ECs in which a source's delivered set differs from what the
/// DFS finds with every ACL removed, while another source's does not.
size_t acl_split_ecs(const Verifier& verifier, const Snapshot& snap) {
  Snapshot open = snap;
  for (config::NodeConfig& cfg : open.configs) {
    for (config::InterfaceConfig& iface : cfg.interfaces) {
      iface.acl_in.clear();
      iface.acl_out.clear();
    }
  }
  size_t splits = 0;
  for (EcId ec = 0; ec < verifier.num_ecs(); ++ec) {
    const EcReach unfiltered = dfs_reach(
        open, verifier.graph(ec), verifier.ec_index().representative(ec));
    const EcReach& filtered = verifier.reach(ec);
    bool some_cut = false, some_not = false;
    for (topo::NodeId src = 0; src < filtered.delivered.size(); ++src) {
      const bool cut = filtered.delivered[src] != unfiltered.delivered[src];
      some_cut = some_cut || cut;
      some_not = some_not || (!cut && unfiltered.delivered[src].any());
    }
    if (some_cut && some_not) ++splits;
  }
  return splits;
}

/// Binds ACLs that drop probes from some loopbacks (172.16.0.x, x the node
/// id): inbound on every interface of one node and outbound on every
/// interface of another, so the sources of one EC split into groups.
Snapshot with_loopback_filters(Snapshot s, Rng& rng) {
  const size_t n = s.topology.num_nodes();
  auto bind = [&](const char* name, bool inbound) {
    const auto node = static_cast<topo::NodeId>(rng.below(n));
    config::NodeConfig& cfg = s.configs[node];
    const auto first = static_cast<uint8_t>(2 * rng.below((n + 1) / 2));
    std::erase_if(cfg.acls, [&](const auto& acl) { return acl.name == name; });
    cfg.acls.push_back(
        {name,
         {{config::FilterAction::kDeny,
           Ipv4Prefix(Ipv4Addr(172, 16, 0, first), 31), Ipv4Prefix(), -1, -1,
           -1},
          {config::FilterAction::kPermit, Ipv4Prefix(), Ipv4Prefix(), -1, -1,
           -1}}});
    for (config::InterfaceConfig& iface : cfg.interfaces) {
      (inbound ? iface.acl_in : iface.acl_out) = name;
    }
  };
  bind("LOIN", true);
  bind("LOOUT", false);
  return s;
}

/// Static routes for `prefix` at both ends of `link`, each toward the
/// other: a forwarding loop.
Snapshot with_static_loop(Snapshot s, uint32_t link, Ipv4Prefix prefix) {
  const topo::Link& l = s.topology.link(link);
  const Ipv4Addr a = s.configs[l.a].find_interface(l.a_if)->address;
  const Ipv4Addr b = s.configs[l.b].find_interface(l.b_if)->address;
  const std::string a_name = s.topology.node_name(l.a);
  const std::string b_name = s.topology.node_name(l.b);
  s = topo::with_static_route(std::move(s), a_name, prefix, b);
  return topo::with_static_route(std::move(s), b_name, prefix, a);
}

/// One step: random_change's mix, a link failure, an interface shutdown or
/// repair, a static-route loop, a moved loopback, or re-bound filters.
Snapshot oracle_edit(const Snapshot& snap, Rng& rng, std::string& what) {
  const topo::Topology& topology = snap.topology;
  const auto node =
      static_cast<topo::NodeId>(rng.below(topology.num_nodes()));
  const std::string& name = topology.node_name(node);
  const auto link = static_cast<uint32_t>(rng.below(topology.num_links()));
  switch (rng.below(7)) {
    case 0:
    case 1: {
      topo::RandomChange change = topo::random_change(snap, rng);
      what = change.description;
      return std::move(change.snapshot);
    }
    case 2:
      what = "fail link " + std::to_string(link);
      return topo::with_link_state(snap, link, false);
    case 3: {
      const auto& interfaces = snap.configs[node].interfaces;
      const auto& iface = interfaces[rng.below(interfaces.size())];
      what = (iface.enabled ? "shut " : "enable ") + name + ":" + iface.name;
      return topo::with_interface_enabled(snap, name, iface.name,
                                          !iface.enabled);
    }
    case 4: {
      const Ipv4Prefix prefix(
          Ipv4Addr(198, 18, static_cast<uint8_t>(rng.below(4)), 0), 24);
      what = "static loop " + prefix.str() + " over link " +
             std::to_string(link);
      return with_static_loop(snap, link, prefix);
    }
    case 5: {
      // Into, out of or within the filtered loopbacks.
      Snapshot next = snap;
      next.configs[node].find_interface("lo")->address = Ipv4Addr(
          172, 16, 0, static_cast<uint8_t>(rng.below(topology.num_nodes())));
      what = "re-address lo at " + name;
      return next;
    }
    default:
      what = "re-bind loopback filters";
      return with_loopback_filters(snap, rng);
  }
}

struct OracleCase {
  const char* topology;
  uint64_t seed;
};

// Prints the case by name, so its test id is the same on every build.
void PrintTo(const OracleCase& test_case, std::ostream* os) {
  *os << test_case.topology << "_seed" << test_case.seed;
}

class ReachOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ReachOracle, EveryEcMatchesTheDfs) {
  const std::string which = GetParam().topology;
  Rng rng(0x0DF5 + GetParam().seed);
  Snapshot snap;
  if (which == "ring") snap = topo::make_ring(6);
  if (which == "grid") snap = topo::make_grid(3, 3);
  if (which == "random") snap = topo::make_random(8, 12, rng);
  if (which == "fattree") snap = topo::make_fattree(4);
  if (which == "two_tier") snap = topo::make_two_tier_as(3, 2);
  snap = with_loopback_filters(std::move(snap), rng);
  snap = with_static_loop(std::move(snap), 0,
                          Ipv4Prefix(Ipv4Addr(198, 18, 9, 0), 24));

  cp::ControlPlaneEngine engine(snap);
  Verifier verifier(&engine.snapshot(), &engine.fibs());
  OracleCoverage seen;
  expect_every_ec_matches_dfs(verifier, engine.snapshot(), "fresh base",
                              seen);
  seen.acl_splits += acl_split_ecs(verifier, engine.snapshot());
  for (int step = 0; step < 16 && !HasFailure(); ++step) {
    std::string what;
    snap = oracle_edit(snap, rng, what);
    const std::string context = "step " + std::to_string(step) + ": " + what;
    cp::AdvanceResult result = engine.advance(snap);
    verifier.apply(&engine.snapshot(), result.fib_delta, result.config_changes);
    expect_every_ec_matches_dfs(verifier, engine.snapshot(),
                                context + " (incremental)", seen);
    const Verifier fresh(&engine.snapshot(), &engine.fibs());
    expect_every_ec_matches_dfs(fresh, engine.snapshot(),
                                context + " (fresh)", seen);
    seen.acl_splits += acl_split_ecs(fresh, engine.snapshot());
  }
  EXPECT_GT(seen.loops, 0u);
  EXPECT_GT(seen.blackholes, 0u);
  EXPECT_GT(seen.acl_splits, 0u);
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  for (const char* topology :
       {"ring", "grid", "random", "fattree", "two_tier"}) {
    for (uint64_t seed = 0; seed < 3; ++seed) cases.push_back({topology, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachOracle,
                         ::testing::ValuesIn(oracle_cases()),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace dna::dp
