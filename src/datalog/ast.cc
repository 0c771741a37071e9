#include "datalog/ast.h"

#include <unordered_set>

#include "util/error.h"

namespace dna::datalog {

bool eval_cmp(CmpOp op, Value lhs, Value rhs) {
  switch (op) {
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

int Program::add_relation(const std::string& name, int arity, bool is_input) {
  if (relation_id(name) >= 0) {
    throw Error("relation redeclared: " + name);
  }
  relations_.push_back({name, arity, is_input});
  return static_cast<int>(relations_.size()) - 1;
}

int Program::relation_id(const std::string& name) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Program::validate() const {
  for (const Rule& rule : rules_) {
    auto check_atom = [&](const Atom& atom, const char* where) {
      if (atom.relation < 0 ||
          atom.relation >= static_cast<int>(relations_.size())) {
        throw Error(std::string("rule uses undeclared relation in ") + where);
      }
      const RelationDecl& decl = relations_[atom.relation];
      if (static_cast<int>(atom.terms.size()) != decl.arity) {
        throw Error("arity mismatch for " + decl.name + ": expected " +
                    std::to_string(decl.arity) + ", got " +
                    std::to_string(atom.terms.size()));
      }
    };

    check_atom(rule.head, "head");
    if (relations_[rule.head.relation].is_input) {
      throw Error("rule derives into input relation " +
                  relations_[rule.head.relation].name);
    }

    std::unordered_set<int> positive_vars;
    for (const Literal& lit : rule.body) {
      check_atom(lit.atom, "body");
      if (!lit.negated) {
        for (const Term& term : lit.atom.terms) {
          if (term.is_var()) positive_vars.insert(term.var);
        }
      }
    }

    auto require_bound = [&](const Term& term, const char* what) {
      if (term.is_var() && !positive_vars.count(term.var)) {
        throw Error(std::string(what) +
                    " uses a variable not bound by any positive body atom "
                    "(rule: " +
                    relations_[rule.head.relation].name + ")");
      }
    };

    for (const Term& term : rule.head.terms) require_bound(term, "head");
    for (const Literal& lit : rule.body) {
      if (!lit.negated) continue;
      for (const Term& term : lit.atom.terms) {
        require_bound(term, "negated literal");
      }
    }
    for (const Comparison& cmp : rule.comparisons) {
      require_bound(cmp.lhs, "comparison");
      require_bound(cmp.rhs, "comparison");
    }
  }
}

}  // namespace dna::datalog
