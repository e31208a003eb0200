#ifndef HADAD_CHASE_AST_H_
#define HADAD_CHASE_AST_H_

#include <string>
#include <utility>
#include <vector>

namespace hadad::chase {

// A term in a constraint or conjunctive query: a named variable or a string
// constant (matrix names, type tags like "S", dimension literals, ...).
struct Term {
  enum class Kind { kVariable, kConstant };

  Kind kind = Kind::kVariable;
  std::string text;

  bool is_variable() const { return kind == Kind::kVariable; }
  bool is_constant() const { return kind == Kind::kConstant; }

  bool operator==(const Term& other) const {
    return kind == other.kind && text == other.text;
  }
};

inline Term Var(std::string name) {
  return Term{Term::Kind::kVariable, std::move(name)};
}
inline Term Cst(std::string value) {
  return Term{Term::Kind::kConstant, std::move(value)};
}

// A relational atom P(t1, ..., tk) over the VREM schema (Table 1) or a user
// schema.
struct Atom {
  std::string predicate;
  std::vector<Term> args;

  bool operator==(const Atom& other) const {
    return predicate == other.predicate && args == other.args;
  }
};

inline Atom MakeAtom(std::string predicate, std::vector<Term> args) {
  return Atom{std::move(predicate), std::move(args)};
}

std::string ToString(const Term& t);
std::string ToString(const Atom& a);

// Q(head) :- body. (§4.1)
struct ConjunctiveQuery {
  std::vector<Term> head;
  std::vector<Atom> body;
};

// A TGD  ∀x̄ premise(x̄) → ∃z̄ conclusion(x̄, z̄), or an EGD
// ∀x̄ premise(x̄) → w = w' (§4.1). Conclusion variables not appearing in the
// premise are existential. `name` identifies the constraint in error and
// debug output (e.g. "mul-associativity").
struct Constraint {
  enum class Kind { kTgd, kEgd };

  Kind kind = Kind::kTgd;
  std::string name;
  std::vector<Atom> premise;
  // TGD only.
  std::vector<Atom> conclusion;
  // EGD only: pairs of premise terms to equate.
  std::vector<std::pair<Term, Term>> equalities;
};

Constraint MakeTgd(std::string name, std::vector<Atom> premise,
                   std::vector<Atom> conclusion);
Constraint MakeEgd(std::string name, std::vector<Atom> premise,
                   std::vector<std::pair<Term, Term>> equalities);

std::string ToString(const Constraint& c);

}  // namespace hadad::chase

#endif  // HADAD_CHASE_AST_H_
