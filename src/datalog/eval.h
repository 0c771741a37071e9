// Evaluation core shared by full (from-scratch) and incremental maintenance.
//
// Storage: each Relation keeps its facts with a derivation count plus
// on-demand hash indexes keyed by column subsets. The evaluator enumerates
// rule bindings left-to-right over a precomputed plan (positive literals
// first), where every body position draws from a configurable source:
//
//   kState     — the relation's current contents,
//   kOldState  — the pre-batch contents, reconstructed from a RelationDelta,
//   kAddedOf / kRemovedOf — just the batch's added / removed tuples,
//   kList      — an explicit tuple list (semi-naive recursion deltas).
//
// This one mechanism expresses naive evaluation, semi-naive fixpoints,
// counting delta-joins and DRed over-deletion/re-derivation.
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/ast.h"
#include "datalog/stratify.h"
#include "util/flat_map.h"

namespace dna::datalog {

using TupleSet = std::unordered_set<Tuple, TupleHash>;
/// Fact storage is an open-addressing map (util/flat_map.h): counts and
/// index buckets are probed on every derivation, and the node-based
/// std::unordered_map spent the evaluator's time in the allocator. Mutation discipline matches the
/// FlatMap contract — the evaluator never mutates a relation while a plan
/// enumeration is iterating it (sinks buffer; see evaluate_program).
using CountMap = util::FlatMap<Tuple, int64_t, TupleHash>;

/// Indexed fact storage for one relation.
class Relation {
 public:
  explicit Relation(int arity) : arity_(arity) {}

  int arity() const { return arity_; }
  bool contains(const Tuple& t) const { return facts_.count(t) > 0; }
  int64_t count(const Tuple& t) const;
  size_t size() const { return facts_.size(); }
  const CountMap& facts() const { return facts_; }

  /// Adjusts the derivation count of `t` by `delta`.
  /// Returns +1 if the tuple appeared, -1 if it disappeared, 0 otherwise.
  /// Throws if the count would go negative.
  int add_count(const Tuple& t, int64_t delta);

  /// All tuples whose projection onto `cols` equals `key`. `cols` must be
  /// sorted ascending; an empty `cols` matches everything. The underlying
  /// index is built on first use and maintained incrementally afterwards.
  const std::vector<Tuple>* match(const std::vector<int>& cols,
                                  const Tuple& key);

  void clear();

 private:
  struct Index {
    std::vector<int> cols;
    util::FlatMap<Tuple, std::vector<Tuple>, TupleHash> buckets;
  };

  void index_insert(Index& index, const Tuple& t);
  void index_erase(Index& index, const Tuple& t);

  int arity_;
  CountMap facts_;
  std::vector<Index> indexes_;
};

/// The set-level changes a batch made to one relation.
struct RelationDelta {
  std::vector<Tuple> added;
  std::vector<Tuple> removed;
  TupleSet added_set;
  TupleSet removed_set;

  bool empty() const { return added.empty() && removed.empty(); }
  void add_added(const Tuple& t) {
    if (added_set.insert(t).second) added.push_back(t);
  }
  void add_removed(const Tuple& t) {
    if (removed_set.insert(t).second) removed.push_back(t);
  }
};

/// Batch views for every relation touched by the current update.
using BatchDeltas = std::unordered_map<int, RelationDelta>;

/// All relations of a program, indexed by relation id.
class Database {
 public:
  explicit Database(const Program& program);

  Relation& rel(int id) { return relations_[static_cast<size_t>(id)]; }
  const Relation& rel(int id) const {
    return relations_[static_cast<size_t>(id)];
  }
  size_t num_relations() const { return relations_.size(); }

 private:
  std::vector<Relation> relations_;
};

/// Where one plan position draws its tuples from.
struct PositionSource {
  enum class Kind { kState, kOldState, kAddedOf, kRemovedOf, kList };
  Kind kind = Kind::kState;
  const std::vector<Tuple>* list = nullptr;  // for kList
};

/// A rule with body positions reordered for evaluation: positive literals
/// first (stable), then negated ones, with comparisons attached to the
/// earliest position after which they are fully bound.
struct RulePlan {
  const Rule* rule = nullptr;
  std::vector<int> order;  // plan step -> body index
  // Comparisons checked right after each plan step (indices into
  // rule->comparisons). Comparisons bound before any step are at entry 0's
  // pre-check list.
  std::vector<std::vector<int>> cmps_after;

  size_t steps() const { return order.size(); }
  const Literal& literal(size_t step) const {
    return rule->body[static_cast<size_t>(order[step])];
  }
};

RulePlan make_plan(const Rule& rule);

/// Enumerates all bindings of `plan` and calls `sink` with the instantiated
/// head tuple once per binding.
///
/// `sources` has one entry per plan step. `deltas` supplies the old-state /
/// added / removed views for relations (kState needs none). If
/// `restrict_head` is non-null, the head variables are pre-bound from that
/// tuple so only derivations of exactly that head are enumerated.
void evaluate_plan(Database& db, const BatchDeltas& deltas,
                   const RulePlan& plan,
                   const std::vector<PositionSource>& sources,
                   const std::function<void(const Tuple&)>& sink,
                   const Tuple* restrict_head = nullptr);

/// From-scratch evaluation: clears every IDB relation, then evaluates the
/// strata in order. Non-recursive strata get exact derivation counts;
/// recursive strata use set semantics (count 1) via semi-naive iteration.
void evaluate_program(Database& db, const Program& program,
                      const Stratification& strat);

}  // namespace dna::datalog
