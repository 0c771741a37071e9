// Datalog engine: parsing, stratification, and from-scratch evaluation
// semantics (recursion, negation, comparisons, symbolic constants), and the
// inline small-row storage of Tuple.
#include <gtest/gtest.h>

#include "datalog/engine.h"
#include "util/error.h"

namespace dna::datalog {
namespace {

TEST(Parser, ParsesDeclsRulesAndFacts) {
  Interner interner;
  ParsedProgram parsed = parse_program(R"(
    // transitive closure
    .decl edge(2) input
    .decl reach(2)
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
    edge(1, 2).
    edge(2, 3).
  )",
                                       interner);
  EXPECT_EQ(parsed.program.relations().size(), 2u);
  EXPECT_EQ(parsed.program.rules().size(), 2u);
  EXPECT_EQ(parsed.facts.size(), 2u);
}

TEST(Parser, RejectsUndeclaredRelation) {
  Interner interner;
  EXPECT_THROW(parse_program("foo(1, 2).", interner), ParseError);
}

TEST(Parser, RejectsArityMismatch) {
  Interner interner;
  EXPECT_THROW(parse_program(R"(
    .decl edge(2) input
    .decl one(1)
    one(X) :- edge(X).
  )",
                             interner),
               Error);
}

TEST(Parser, RejectsFactIntoIdb) {
  Interner interner;
  EXPECT_THROW(parse_program(R"(
    .decl derived(1)
    derived(1).
  )",
                             interner),
               ParseError);
}

TEST(Parser, RejectsUnsafeNegation) {
  Interner interner;
  // Y appears only in the negated atom.
  EXPECT_THROW(parse_program(R"(
    .decl a(1) input
    .decl b(2) input
    .decl bad(1)
    bad(X) :- a(X), !b(X, Y).
  )",
                             interner),
               Error);
}

TEST(Parser, RejectsUnboundHeadVariable) {
  Interner interner;
  EXPECT_THROW(parse_program(R"(
    .decl a(1) input
    .decl bad(2)
    bad(X, Y) :- a(X).
  )",
                             interner),
               Error);
}

TEST(Stratify, RejectsNegationInCycle) {
  Interner interner;
  EXPECT_THROW(DatalogEngine(R"(
    .decl base(1) input
    .decl p(1)
    .decl q(1)
    p(X) :- base(X), !q(X).
    q(X) :- base(X), !p(X).
  )"),
               Error);
}

TEST(Eval, TransitiveClosure) {
  DatalogEngine eng(R"(
    .decl edge(2) input
    .decl reach(2)
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
    edge(1, 2).
    edge(2, 3).
    edge(3, 4).
  )");
  EXPECT_TRUE(eng.contains("reach", {1, 4}));
  EXPECT_TRUE(eng.contains("reach", {2, 4}));
  EXPECT_FALSE(eng.contains("reach", {4, 1}));
  EXPECT_EQ(eng.size("reach"), 6u);
}

TEST(Eval, CyclicGraphTerminates) {
  DatalogEngine eng(R"(
    .decl edge(2) input
    .decl reach(2)
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
    edge(1, 2).
    edge(2, 1).
  )");
  EXPECT_TRUE(eng.contains("reach", {1, 1}));
  EXPECT_TRUE(eng.contains("reach", {2, 2}));
  EXPECT_EQ(eng.size("reach"), 4u);
}

TEST(Eval, StratifiedNegation) {
  DatalogEngine eng(R"(
    .decl node(1) input
    .decl edge(2) input
    .decl reach(2)
    .decl unreach(2)
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
    unreach(X, Y) :- node(X), node(Y), !reach(X, Y).
    node(1). node(2). node(3).
    edge(1, 2).
  )");
  EXPECT_TRUE(eng.contains("unreach", {2, 1}));
  EXPECT_TRUE(eng.contains("unreach", {1, 3}));
  EXPECT_FALSE(eng.contains("unreach", {1, 2}));
  // unreach counts every pair not in reach, including self-pairs.
  EXPECT_EQ(eng.size("unreach"), 9u - eng.size("reach"));
}

TEST(Eval, Comparisons) {
  DatalogEngine eng(R"(
    .decl val(2) input
    .decl big(1)
    .decl pair(2)
    big(X) :- val(X, V), V > 10.
    pair(X, Y) :- val(X, V), val(Y, W), X != Y, V <= W.
    val(1, 5).
    val(2, 15).
    val(3, 20).
  )");
  EXPECT_FALSE(eng.contains("big", {1}));
  EXPECT_TRUE(eng.contains("big", {2}));
  EXPECT_TRUE(eng.contains("big", {3}));
  EXPECT_TRUE(eng.contains("pair", {1, 2}));
  EXPECT_TRUE(eng.contains("pair", {2, 3}));
  EXPECT_FALSE(eng.contains("pair", {3, 2}));
  EXPECT_FALSE(eng.contains("pair", {1, 1}));
}

TEST(Eval, SymbolicConstants) {
  DatalogEngine eng(R"(
    .decl role(2) input
    .decl admin(1)
    admin(X) :- role(X, "admin").
  )");
  Value admin = eng.sym("admin");
  eng.insert("role", {1, admin});
  eng.insert("role", {2, eng.sym("user")});
  eng.flush();
  EXPECT_TRUE(eng.contains("admin", {1}));
  EXPECT_FALSE(eng.contains("admin", {2}));
}

TEST(Eval, AnonymousVariables) {
  DatalogEngine eng(R"(
    .decl edge(2) input
    .decl has_out(1)
    has_out(X) :- edge(X, _).
    edge(1, 2).
    edge(1, 3).
    edge(2, 3).
  )");
  EXPECT_EQ(eng.size("has_out"), 2u);
}

TEST(Eval, MutualRecursion) {
  // even/odd distance from node 0 along a path.
  DatalogEngine eng(R"(
    .decl edge(2) input
    .decl even(1)
    .decl odd(1)
    even(0) :- edge(0, _).
    odd(Y) :- even(X), edge(X, Y).
    even(Y) :- odd(X), edge(X, Y).
    edge(0, 1). edge(1, 2). edge(2, 3).
  )");
  EXPECT_TRUE(eng.contains("even", {0}));
  EXPECT_TRUE(eng.contains("odd", {1}));
  EXPECT_TRUE(eng.contains("even", {2}));
  EXPECT_TRUE(eng.contains("odd", {3}));
}

TEST(Eval, ConstantInRuleBody) {
  DatalogEngine eng(R"(
    .decl edge(2) input
    .decl from_one(1)
    from_one(Y) :- edge(1, Y).
    edge(1, 2). edge(2, 3). edge(1, 4).
  )");
  EXPECT_EQ(eng.size("from_one"), 2u);
  EXPECT_TRUE(eng.contains("from_one", {2}));
  EXPECT_TRUE(eng.contains("from_one", {4}));
}

TEST(Eval, DuplicateVariableInAtom) {
  DatalogEngine eng(R"(
    .decl edge(2) input
    .decl selfloop(1)
    selfloop(X) :- edge(X, X).
    edge(1, 1). edge(1, 2). edge(3, 3).
  )");
  EXPECT_EQ(eng.size("selfloop"), 2u);
}

TEST(Engine, RowsAreSortedAndDeterministic) {
  DatalogEngine eng(R"(
    .decl edge(2) input
    .decl reach(2)
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
    edge(3, 1). edge(1, 2).
  )");
  std::vector<Tuple> rows = eng.rows("reach");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST(Engine, InsertRemoveCancelWithinBatch) {
  DatalogEngine eng(R"(
    .decl edge(2) input
    .decl reach(2)
    reach(X, Y) :- edge(X, Y).
  )");
  eng.insert("edge", {1, 2});
  eng.remove("edge", {1, 2});
  eng.flush();
  EXPECT_EQ(eng.size("reach"), 0u);
  EXPECT_EQ(eng.size("edge"), 0u);
}

TEST(SmallRow, InlineAndSpilledStorage) {
  Tuple inline_row{1, 2, 3, 4};
  EXPECT_TRUE(inline_row.is_inline());
  EXPECT_EQ(inline_row.size(), 4u);

  Tuple spilled{1, 2, 3, 4, 5, 6};
  EXPECT_FALSE(spilled.is_inline());
  EXPECT_EQ(spilled.size(), 6u);
  EXPECT_EQ(spilled[5], 6);

  // push_back across the spill boundary preserves contents.
  Tuple grown;
  for (int64_t i = 0; i < 10; ++i) {
    grown.push_back(i);
    EXPECT_EQ(grown.back(), i);
  }
  EXPECT_FALSE(grown.is_inline());
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(grown[static_cast<size_t>(i)], i);
}

TEST(SmallRow, CopyMoveAndCompareMatchVectorSemantics) {
  Tuple a{5, 6, 7};
  Tuple b = a;  // copy
  EXPECT_EQ(a, b);
  Tuple c = std::move(b);
  EXPECT_EQ(a, c);

  // Lexicographic ordering, shorter prefix first — like std::vector.
  EXPECT_LT((Tuple{1, 2}), (Tuple{1, 3}));
  EXPECT_LT((Tuple{1, 2}), (Tuple{1, 2, 0}));
  EXPECT_LT((Tuple{}), (Tuple{0}));
  EXPECT_LT((Tuple{-1}), (Tuple{0}));

  // Spilled vs inline tuples with equal contents compare equal and hash
  // equal.
  Tuple wide_a{1, 2, 3, 4, 5};
  Tuple wide_b;
  wide_b.reserve(32);
  for (int64_t v : {1, 2, 3, 4, 5}) wide_b.push_back(v);
  EXPECT_EQ(wide_a, wide_b);
  EXPECT_EQ(TupleHash{}(wide_a), TupleHash{}(wide_b));

  // Assignment into a spilled tuple from an inline one and back.
  wide_a = a;
  EXPECT_EQ(wide_a, a);
  a = Tuple{9, 9, 9, 9, 9, 9, 9};
  EXPECT_EQ(a.size(), 7u);
}

}  // namespace
}  // namespace dna::datalog
