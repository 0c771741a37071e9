// Datalog abstract syntax: terms, atoms, rules, programs.
//
// Values are 64-bit integers; symbolic constants are interned strings whose
// Symbol is stored in the value (tagged by the engine's interner). Variables
// are rule-local dense ids assigned by the parser / builder.
#pragma once

#include <string>
#include <vector>

#include "datalog/tuple.h"

namespace dna::datalog {

struct Term {
  enum class Kind { kVar, kConst };

  Kind kind = Kind::kConst;
  int var = -1;     // valid when kind == kVar
  Value value = 0;  // valid when kind == kConst

  static Term make_var(int id) { return {Kind::kVar, id, 0}; }
  static Term make_const(Value v) { return {Kind::kConst, -1, v}; }

  bool is_var() const { return kind == Kind::kVar; }
  bool operator==(const Term&) const = default;
};

struct Atom {
  int relation = -1;  // index into Program::relations
  std::vector<Term> terms;
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

bool eval_cmp(CmpOp op, Value lhs, Value rhs);

/// A builtin constraint; both sides must be bound by positive atoms.
struct Comparison {
  CmpOp op = CmpOp::kEq;
  Term lhs;
  Term rhs;
};

/// One body literal in evaluation order: a (possibly negated) atom.
struct Literal {
  Atom atom;
  bool negated = false;
};

struct Rule {
  Atom head;
  std::vector<Literal> body;
  std::vector<Comparison> comparisons;
  int num_vars = 0;
};

struct RelationDecl {
  std::string name;
  int arity = 0;
  bool is_input = false;  // EDB relations receive facts from outside
};

/// A validated datalog program. Build via parser.h or programmatically and
/// then call validate() before evaluation.
class Program {
 public:
  int add_relation(const std::string& name, int arity, bool is_input);

  /// Index of a declared relation, or -1.
  int relation_id(const std::string& name) const;

  const RelationDecl& relation(int id) const { return relations_.at(id); }
  const std::vector<RelationDecl>& relations() const { return relations_; }

  void add_rule(Rule rule) { rules_.push_back(std::move(rule)); }
  const std::vector<Rule>& rules() const { return rules_; }

  /// Checks arity agreement, range restriction (every head variable occurs
  /// in a positive body atom), safety of negation and comparisons, and that
  /// no rule derives into an input relation. Throws dna::Error on failure.
  void validate() const;

 private:
  std::vector<RelationDecl> relations_;
  std::vector<Rule> rules_;
};

}  // namespace dna::datalog
