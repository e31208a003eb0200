#ifndef HADAD_PACB_META_TRACKER_H_
#define HADAD_PACB_META_TRACKER_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "chase/instance.h"
#include "cost/estimator.h"
#include "pacb/op_signature.h"

namespace hadad::pacb {

// Tracks cost::ClassMeta per equivalence class while the chase runs:
// propagates dimensions and sparsity estimates through newly added operation
// facts (the "incremental evaluation" of §7.3), folds metadata across EGD
// merges, and materializes `size` facts so that dimension-sensitive
// constraints (the row/column-vector rules of MMC_StatAgg) can fire.
class MetaTracker {
 public:
  // `signatures` resolves the instance's predicate ids; both must outlive
  // the tracker.
  MetaTracker(chase::Instance* instance, SignatureTable* signatures,
              const cost::SparsityEstimator* estimator);

  // Seeds the metadata of a class (canonicalized). Emits its size fact.
  void Seed(chase::NodeId node, cost::ClassMeta meta);

  // Metadata of a class, or nullptr if unknown. Canonicalizes internally.
  const cost::ClassMeta* Get(chase::NodeId node) const;

  // Estimated intermediate size of a class (§7.1's measure), or +inf when
  // unknown.
  double SizeOf(chase::NodeId node) const;

  // Largest known class size. PACB++ floors its pruning bound here so that
  // chase-phase derivations at the scale of the query's own operands are
  // never pruned (only super-linear blowups are).
  double MaxKnownSize() const;

  // Hook for ChaseEngine::set_facts_added_observer.
  void OnFactsAdded(const std::vector<chase::FactId>& ids);

  // Hook for Instance::SetMergeObserver.
  void OnMerge(chase::NodeId absorbed, chase::NodeId survivor);

  // Propagates through every fact until fixpoint (used after seeding the
  // initial instance).
  void PropagateAll();

 private:
  // Attempts to derive output metadata for fact `id`; returns true if any
  // class meta was newly set.
  bool TryPropagate(chase::FactId id);

  void SetMeta(chase::NodeId canonical, cost::ClassMeta meta);
  void EmitSizeFact(chase::NodeId canonical, const cost::ClassMeta& meta);
  void EmitTypeFacts(chase::NodeId canonical, const cost::ClassMeta& meta);

  chase::Instance* instance_;
  SignatureTable* signatures_;
  const cost::SparsityEstimator* estimator_;
  int32_t sconst_predicate_ = -1;  // Looked up until interned.
  std::unordered_map<chase::NodeId, cost::ClassMeta> meta_;
  // Facts to revisit when a class gains metadata. Fact ids are stable; one
  // that fused into another meanwhile is revisited as its survivor.
  std::unordered_map<chase::NodeId, std::vector<chase::FactId>> waiters_;
};

}  // namespace hadad::pacb

#endif  // HADAD_PACB_META_TRACKER_H_
