// The headline property of the whole system: Mode::kDifferential and
// Mode::kMonolithic produce identical NetworkDiffs, across topologies,
// change types, and randomized sequences. Plus invariant-flip reporting
// and the interval-difference helper.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/report.h"
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
};

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
}

INSTANTIATE_TEST_SUITE_P(Cases, ModeEquivalence, ::testing::ValuesIn(cases),
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

}  // namespace
}  // namespace dna::core
