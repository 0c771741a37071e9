// Mode-equivalence regression sweep: for a batch of seeded random mutations,
// Mode::kMonolithic and Mode::kDifferential must agree on every semantic
// layer of the NetworkDiff (config/link, fib, reach, invariant flips).
//
// This complements test_core_engine.cc's churn sequences: here every
// mutation is evaluated one-shot from a pristine base with fresh engines,
// so a failure pins the disagreement to a single (base, change) pair whose
// seed is printed in the test name.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "topo/generators.h"
#include "topo/mutators.h"
#include "util/rng.h"

namespace dna::core {
namespace {

using topo::Snapshot;

void expect_same_semantic_diff(const NetworkDiff& differential,
                               const NetworkDiff& monolithic,
                               const std::string& context) {
  EXPECT_EQ(differential.config_changes, monolithic.config_changes) << context;
  EXPECT_EQ(differential.link_changes, monolithic.link_changes) << context;
  ASSERT_EQ(differential.fib_delta.by_node.size(),
            monolithic.fib_delta.by_node.size())
      << context;
  for (const auto& [node, delta] : differential.fib_delta.by_node) {
    auto it = monolithic.fib_delta.by_node.find(node);
    ASSERT_NE(it, monolithic.fib_delta.by_node.end()) << context;
    auto sorted = [](std::vector<cp::FibEntry> entries) {
      std::sort(entries.begin(), entries.end());
      return entries;
    };
    EXPECT_EQ(sorted(delta.added), sorted(it->second.added)) << context;
    EXPECT_EQ(sorted(delta.removed), sorted(it->second.removed)) << context;
  }
  EXPECT_EQ(differential.reach_delta, monolithic.reach_delta) << context;
  EXPECT_EQ(differential.invariant_flips, monolithic.invariant_flips)
      << context;
}

struct SeededCase {
  const char* topology;
  uint64_t seed;
};

// Prints the case by name, so its test id is the same on every build.
void PrintTo(const SeededCase& test_case, std::ostream* os) {
  *os << test_case.topology << "_seed" << test_case.seed;
}

class SeededModeEquivalence : public ::testing::TestWithParam<SeededCase> {};

TEST_P(SeededModeEquivalence, OneShotRandomChangeAgrees) {
  const SeededCase& test_case = GetParam();
  Snapshot base;
  std::string which = test_case.topology;
  if (which == "ring") base = topo::make_ring(6);
  if (which == "fattree") base = topo::make_fattree(4);
  if (which == "two_tier") base = topo::make_two_tier_as(3, 2);
  if (which == "grid") base = topo::make_grid(3, 4);
  ASSERT_GT(base.topology.num_nodes(), 0u);

  Rng rng(0xE905eedULL + test_case.seed);
  topo::RandomChange change = topo::random_change(base, rng);

  DnaEngine differential(base);
  DnaEngine monolithic(base);
  for (DnaEngine* engine : {&differential, &monolithic}) {
    engine->add_invariant(
        {Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()});
    engine->add_invariant({Invariant::Kind::kReachable,
                           base.topology.node_name(0),
                           base.topology.node_name(1), "",
                           Ipv4Prefix(Ipv4Addr(172, 31, 1, 0), 24)});
  }

  NetworkDiff diff_d =
      differential.advance(change.snapshot, Mode::kDifferential);
  NetworkDiff diff_m = monolithic.advance(change.snapshot, Mode::kMonolithic);
  expect_same_semantic_diff(diff_d, diff_m, change.description);
}

std::vector<SeededCase> seeded_cases() {
  std::vector<SeededCase> cases;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    cases.push_back({"ring", seed});
    cases.push_back({"fattree", seed});
    cases.push_back({"two_tier", seed});
    cases.push_back({"grid", seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededModeEquivalence,
                         ::testing::ValuesIn(seeded_cases()),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace dna::core
