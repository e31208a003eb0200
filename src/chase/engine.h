#ifndef HADAD_CHASE_ENGINE_H_
#define HADAD_CHASE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "chase/ast.h"
#include "chase/homomorphism.h"
#include "chase/instance.h"
#include "common/status.h"

namespace hadad::chase {

struct ChaseOptions {
  // Breadth-first saturation rounds. Benchmark pipelines find their final
  // rewritings by round 4, and the optimizer's round-end hook usually ends
  // the chase before this cap (see pacb/optimizer.cc's kStallRounds); the
  // cap still bounds callers that install no hook, and pipelines whose
  // intermediates all share one size, where cost pruning cannot bite
  // (everything costs the same) and the commutativity/associativity
  // blowup would otherwise run on.
  int max_rounds = 8;
  // Hard budgets that keep non-terminating constraint sets in check (§8's
  // termination requirement is delegated to these when violated).
  int64_t max_facts = 30000;
  int64_t max_nodes = 60000;
};

// InvalidArgument, naming the constraint, when its premise or conclusion
// has more atoms than the matcher handles (kMaxPatternAtoms). Callers that
// register constraints check them here, so a long view definition is a
// typed error rather than a failed check inside the chase.
Status ValidateConstraint(const Constraint& constraint);

struct ChaseStats {
  int rounds = 0;
  int64_t tgd_applications = 0;
  int64_t facts_added = 0;
  int64_t merges = 0;
  int64_t pruned_applications = 0;  // Skipped by the Prune_prov gate.
  bool budget_exhausted = false;
  // The round-end hook ended the chase (before fixpoint, the fact or node
  // budget, and max_rounds would have).
  bool stalled = false;
};

// A constraint compiled against the engine's instance (see CompiledTerm).
// Premise variables take slots [0, premise_slots); the existential
// variables of a TGD's conclusion follow, up to num_slots.
struct CompiledConstraint {
  std::vector<CompiledAtom> premise;
  std::vector<CompiledAtom> conclusion;  // TGD only.
  std::vector<std::pair<CompiledTerm, CompiledTerm>> equalities;  // EGD only.
  int32_t premise_slots = 0;
  int32_t num_slots = 0;
};

// Called before applying a TGD match. Returning false skips the application
// — the Prune_prov hook (§7.3): PACB++ passes a gate that rejects premise
// images whose fragment cost exceeds the best-rewriting threshold T, and
// uses the binding to bound the sizes the conclusion would introduce. The
// binding covers the premise slots (existential slots are kNoNode); read
// the conclusion through ChaseEngine::compiled(constraint_index).
using TgdGate =
    std::function<bool(int32_t constraint_index, const Binding& binding,
                       const std::vector<FactId>& premise_facts)>;

// Called after a TGD application with the fact ids it created, so cost /
// metadata layers can propagate dimensions and sparsity incrementally.
using FactsAddedObserver = std::function<void(const std::vector<FactId>&)>;

// Called once at the end of every round, after its last Rebuild() (the
// instance is clean), with the statistics so far (`rounds` counts the round
// just completed). Returning true ends the chase after this round and sets
// ChaseStats::stalled, unless fixpoint, the budget or max_rounds ends it
// there anyway. PACB++ uses it to stop when rounds stop lowering the goal's
// best cost.
using RoundEndHook = std::function<bool(const ChaseStats&)>;

// The restricted chase (§4.2): applies TGDs breadth-first per round (a TGD
// fires only when its conclusion is not already satisfied by any extension
// of the match), then EGDs (merging equivalence classes), then
// re-canonicalizes. Deterministic: constraints and facts are visited in
// declaration order.
//
// Construction compiles every constraint once against `instance`
// (predicate ids, variable slots, constants resolved as they get interned).
// The engine borrows `constraints`: they must outlive it.
class ChaseEngine {
 public:
  ChaseEngine(Instance* instance, const std::vector<Constraint>& constraints,
              ChaseOptions options = {});
  // The engine keeps a reference: a temporary list would dangle.
  ChaseEngine(Instance* instance, std::vector<Constraint>&& constraints,
              ChaseOptions options = {}) = delete;
  ChaseEngine(const ChaseEngine&) = delete;
  ChaseEngine& operator=(const ChaseEngine&) = delete;

  void set_gate(TgdGate gate) { gate_ = std::move(gate); }
  void set_facts_added_observer(FactsAddedObserver obs) {
    facts_added_ = std::move(obs);
  }
  void set_round_end(RoundEndHook hook) { round_end_ = std::move(hook); }

  const std::vector<Constraint>& constraints() const { return constraints_; }
  const CompiledConstraint& compiled(int32_t index) const {
    return compiled_[static_cast<size_t>(index)];
  }

  // Runs to fixpoint (or budget, max_rounds, or the round-end hook). Fails
  // only on unsatisfiability (an EGD equating distinct constants).
  Result<ChaseStats> Run();

 private:
  // A collected TGD match: its binding (num_slots nodes) starts at
  // node_offset in node_pool_, its premise fact ids (one per premise atom)
  // at fact_offset in fact_pool_.
  struct PendingTgd {
    int32_t constraint_index;
    size_t node_offset;
    size_t fact_offset;
  };

  // Applies one TGD match; returns the number of facts added. Fills the
  // match's existential slots with fresh nulls.
  int64_t ApplyTgd(const PendingTgd& pending);

  // Resolves constant terms the instance has interned since the last call.
  void ResolveConstants();
  // A constant term's node, interning the constant on first use.
  NodeId InternTerm(CompiledTerm& term);

  Instance* instance_;
  const std::vector<Constraint>& constraints_;
  std::vector<CompiledConstraint> compiled_;
  // Constant terms of compiled_ still unresolved, and the instance's
  // constant count when they were last looked up.
  std::vector<CompiledTerm*> unresolved_;
  int64_t constants_seen_ = 0;
  ChaseOptions options_;
  TgdGate gate_;
  FactsAddedObserver facts_added_;
  RoundEndHook round_end_;
  ChaseStats stats_;
  // Match storage, reused across rounds: one round's TGD matches, then one
  // EGD's bindings at a time. Nothing is allocated per match.
  std::vector<PendingTgd> pending_;
  std::vector<NodeId> node_pool_;
  std::vector<FactId> fact_pool_;
  // The match ApplyTgd is applying: its binding, extended with fresh nulls,
  // and its premise facts.
  Binding binding_;
  std::vector<FactId> premise_;
};

}  // namespace hadad::chase

#endif  // HADAD_CHASE_ENGINE_H_
