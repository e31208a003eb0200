#ifndef HADAD_CHASE_HOMOMORPHISM_H_
#define HADAD_CHASE_HOMOMORPHISM_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "chase/ast.h"
#include "chase/instance.h"

namespace hadad::chase {

// A pattern's variables are dense slots; a binding maps each slot to a node,
// kNoNode while the slot is unbound.
using Binding = std::vector<NodeId>;

// A term compiled against one instance: a variable's slot, or a constant.
// A constant's node is resolved once the instance has interned it; until
// then it is kNoNode and the constant matches nothing.
struct CompiledTerm {
  int32_t slot = -1;                      // >= 0 for a variable.
  NodeId node = kNoNode;                  // Constant: its node, if interned.
  const std::string* constant = nullptr;  // Constant: its value (borrowed).

  bool is_variable() const { return slot >= 0; }
};

struct CompiledAtom {
  int32_t predicate = -1;
  std::vector<CompiledTerm> args;
};

// Compiles `t` against `instance`: a variable gets its index in `vars`
// (appended when seen for the first time, so successive calls share
// slots); a constant is resolved if the instance has already interned it.
// A constant term points into `t`, which must outlive the result.
CompiledTerm CompileTerm(const Term& t, const Instance& instance,
                         std::vector<std::string>* vars);

// CompileTerm over every argument of `atoms`, interning each predicate.
std::vector<CompiledAtom> CompileAtoms(const std::vector<Atom>& atoms,
                                       Instance* instance,
                                       std::vector<std::string>* vars);

// The matcher handles patterns of at most this many atoms (its per-search
// atom set is a 32-bit mask). Constraints are checked against it when they
// are registered (ValidateConstraint in chase/engine.h).
inline constexpr size_t kMaxPatternAtoms = 32;

// Per-atom fact-id window [lo, hi) used by semi-naive matching: atom i may
// only match facts whose id lies in ranges[i].
struct FactRange {
  FactId lo = 0;
  FactId hi = std::numeric_limits<FactId>::max();
};

// Called with the completed binding and the matched fact ids (one per
// pattern atom, in pattern order); return false to stop the enumeration.
using MatchCallback =
    std::function<bool(const Binding&, const std::vector<FactId>&)>;

// Enumerates the homomorphisms (containment mappings, §4.2) of `pattern`
// into `instance` that extend `seed`, which must have a slot for every
// variable of the pattern. With `ranges` (one per atom), each atom only
// matches facts inside its window: the chase's semi-naive rounds
// enumerate, for each pivot p, the matches where atom p binds a new fact,
// atoms before p bind old facts and atoms after p are unrestricted, so
// every new match comes out exactly once.
//
// The search expands the remaining atom with the smallest candidate list
// (the first one on ties, stopping at an empty list), where an atom's
// candidates are the smallest argument-index bucket over its bound
// positions, else its whole relation. A constant not yet interned matches
// nothing; repeated variables enforce equality. The instance must be clean
// (Rebuild() called after merges) for matches to be exhaustive: facts are
// indexed under their args as of the last rebuild. Candidate lists hold the
// live fact ids in ascending order, so the enumeration order depends only
// on the facts and the order they were added in.
//
// Contract: the search walks the instance's index buckets in place, so
// nothing may mutate the instance until it returns — neither `cb` nor
// anything else may add facts, intern predicates or constants, merge nodes,
// or call Rebuild(). Collect matches and apply them afterwards. At most
// kMaxPatternAtoms atoms.
void FindHomomorphisms(const std::vector<CompiledAtom>& pattern,
                       const Instance& instance, const Binding& seed,
                       const MatchCallback& cb,
                       const std::vector<FactRange>* ranges = nullptr);

// True iff at least one homomorphism of `pattern` extending `seed` exists.
bool HasHomomorphism(const std::vector<CompiledAtom>& pattern,
                     const Instance& instance, const Binding& seed);

}  // namespace hadad::chase

#endif  // HADAD_CHASE_HOMOMORPHISM_H_
