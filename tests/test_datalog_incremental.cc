// Incremental maintenance (counting + DRed) must agree with from-scratch
// re-evaluation on every relation after every batch — checked on hand-made
// deletion scenarios and with randomized churn over three program shapes,
// for both the mixed strategy and the force-DRed ablation.
#include <gtest/gtest.h>

#include "datalog/engine.h"
#include "util/rng.h"

namespace dna::datalog {
namespace {

const char* kTcProgram = R"(
  .decl edge(2) input
  .decl reach(2)
  reach(X, Y) :- edge(X, Y).
  reach(X, Z) :- reach(X, Y), edge(Y, Z).
)";

const char* kNegationProgram = R"(
  .decl node(1) input
  .decl edge(2) input
  .decl reach(2)
  .decl island(2)
  reach(X, Y) :- edge(X, Y).
  reach(X, Z) :- reach(X, Y), edge(Y, Z).
  island(X, Y) :- node(X), node(Y), !reach(X, Y), X != Y.
)";

const char* kNonRecursiveProgram = R"(
  .decl a(2) input
  .decl b(2) input
  .decl joined(2)
  .decl missing(2)
  joined(X, Z) :- a(X, Y), b(Y, Z).
  missing(X, Y) :- a(X, Y), !b(X, Y).
)";

/// All IDB relations of `engine` must match `reference` (same program,
/// re-evaluated from scratch via the kRecompute strategy).
void expect_same_idb(DatalogEngine& engine, DatalogEngine& reference,
                     const std::string& context) {
  const Program& program = engine.program();
  for (size_t rel = 0; rel < program.relations().size(); ++rel) {
    SCOPED_TRACE(context + " relation=" + program.relations()[rel].name);
    EXPECT_EQ(engine.rows(static_cast<int>(rel)),
              reference.rows(static_cast<int>(rel)));
  }
}

TEST(Incremental, InsertThenDeleteEdgeTc) {
  DatalogEngine eng(kTcProgram);
  eng.insert("edge", {1, 2});
  eng.insert("edge", {2, 3});
  eng.insert("edge", {3, 4});
  eng.flush();
  EXPECT_TRUE(eng.contains("reach", {1, 4}));

  eng.remove("edge", {2, 3});
  eng.flush();
  EXPECT_FALSE(eng.contains("reach", {1, 4}));
  EXPECT_FALSE(eng.contains("reach", {1, 3}));
  EXPECT_TRUE(eng.contains("reach", {1, 2}));
  EXPECT_TRUE(eng.contains("reach", {3, 4}));
}

TEST(Incremental, DeletionWithAlternativePathRederives) {
  DatalogEngine eng(kTcProgram);
  // Two disjoint paths 1->4.
  eng.insert("edge", {1, 2});
  eng.insert("edge", {2, 4});
  eng.insert("edge", {1, 3});
  eng.insert("edge", {3, 4});
  eng.flush();
  EXPECT_TRUE(eng.contains("reach", {1, 4}));

  eng.remove("edge", {2, 4});
  eng.flush();
  // DRed over-deletes (1,4) and must re-derive it through 3.
  EXPECT_TRUE(eng.contains("reach", {1, 4}));
  EXPECT_FALSE(eng.contains("reach", {2, 4}));
}

TEST(Incremental, DeletionInCycle) {
  DatalogEngine eng(kTcProgram);
  eng.insert("edge", {1, 2});
  eng.insert("edge", {2, 3});
  eng.insert("edge", {3, 1});
  eng.flush();
  EXPECT_TRUE(eng.contains("reach", {1, 1}));

  // Breaking the cycle removes all self-reachability — the classic case
  // where counting is unsound (tuples "support themselves") and DRed works.
  eng.remove("edge", {3, 1});
  eng.flush();
  EXPECT_FALSE(eng.contains("reach", {1, 1}));
  EXPECT_FALSE(eng.contains("reach", {3, 2}));
  EXPECT_TRUE(eng.contains("reach", {1, 3}));
}

TEST(Incremental, ChangesReportAddedAndRemoved) {
  DatalogEngine eng(kTcProgram);
  eng.insert("edge", {1, 2});
  eng.flush();
  eng.insert("edge", {2, 3});
  eng.flush();
  const auto& changes = eng.changes("reach");
  // (2,3) and (1,3) appeared.
  EXPECT_EQ(changes.added.size(), 2u);
  EXPECT_TRUE(changes.removed.empty());

  eng.remove("edge", {2, 3});
  eng.flush();
  EXPECT_EQ(eng.changes("reach").removed.size(), 2u);
}

TEST(Incremental, NegationReactsToAdditionsAndDeletions) {
  DatalogEngine eng(kNonRecursiveProgram);
  eng.insert("a", {1, 2});
  eng.flush();
  EXPECT_TRUE(eng.contains("missing", {1, 2}));

  // Adding b(1,2) retracts missing(1,2) through the negated literal.
  eng.insert("b", {1, 2});
  eng.flush();
  EXPECT_FALSE(eng.contains("missing", {1, 2}));

  eng.remove("b", {1, 2});
  eng.flush();
  EXPECT_TRUE(eng.contains("missing", {1, 2}));
}

struct ChurnCase {
  const char* name;
  const char* program;
  bool has_nodes;       // program uses a unary node() relation
  const char* rel1;     // primary binary EDB relation
  const char* rel2;     // optional second binary EDB relation
};

// Prints the case by name, so its test id is the same on every build.
void PrintTo(const ChurnCase& churn_case, std::ostream* os) {
  *os << churn_case.name;
}

class IncrementalChurn
    : public ::testing::TestWithParam<std::tuple<ChurnCase, int>> {};

TEST_P(IncrementalChurn, MatchesRecompute) {
  const auto& [churn_case, strategy_int] = GetParam();
  const auto strategy =
      static_cast<DatalogEngine::Strategy>(strategy_int);
  DatalogEngine incremental(churn_case.program, strategy);
  DatalogEngine reference(churn_case.program,
                          DatalogEngine::Strategy::kRecompute);

  constexpr int kNodes = 8;
  if (churn_case.has_nodes) {
    for (int64_t i = 0; i < kNodes; ++i) {
      incremental.insert("node", {i});
      reference.insert("node", {i});
    }
  }

  Rng rng(0xC0FFEE ^ static_cast<uint64_t>(strategy_int));
  std::set<std::pair<int64_t, int64_t>> edges;

  for (int step = 0; step < 120; ++step) {
    // Batch of 1-3 random edge flips.
    const int batch = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < batch; ++i) {
      int64_t u = static_cast<int64_t>(rng.below(kNodes));
      int64_t v = static_cast<int64_t>(rng.below(kNodes));
      const bool second = churn_case.rel2 != nullptr && rng.chance(0.5);
      const char* rel = second ? churn_case.rel2 : churn_case.rel1;
      auto key = std::make_pair(u * 100 + (second ? 1 : 0), v);
      if (edges.count(key)) {
        edges.erase(key);
        incremental.remove(rel, {u, v});
        reference.remove(rel, {u, v});
      } else {
        edges.insert(key);
        incremental.insert(rel, {u, v});
        reference.insert(rel, {u, v});
      }
    }
    incremental.flush();
    reference.flush();
    expect_same_idb(incremental, reference,
                    std::string(churn_case.name) + " step " +
                        std::to_string(step));
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

std::string churn_name(
    const ::testing::TestParamInfo<std::tuple<ChurnCase, int>>& info) {
  const ChurnCase& churn_case = std::get<0>(info.param);
  const int strategy_int = std::get<1>(info.param);
  return std::string(churn_case.name) +
         (strategy_int == 0 ? "_counting" : "_dred");
}

INSTANTIATE_TEST_SUITE_P(
    Programs, IncrementalChurn,
    ::testing::Combine(
        ::testing::Values(
            ChurnCase{"tc", kTcProgram, false, "edge", nullptr},
            ChurnCase{"negation", kNegationProgram, true, "edge", nullptr},
            ChurnCase{"nonrecursive", kNonRecursiveProgram, false, "a", "b"}),
        ::testing::Values(
            static_cast<int>(DatalogEngine::Strategy::kIncremental),
            static_cast<int>(
                DatalogEngine::Strategy::kIncrementalForceDRed))),
    churn_name);

}  // namespace
}  // namespace dna::datalog
