#include "pacb/meta_tracker.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>

#include "common/check.h"
#include "la/vrem.h"
#include "pacb/op_signature.h"

namespace hadad::pacb {

namespace {
namespace vrem = la::vrem;
}

MetaTracker::MetaTracker(chase::Instance* instance,
                         SignatureTable* signatures,
                         const cost::SparsityEstimator* estimator)
    : instance_(instance), signatures_(signatures), estimator_(estimator) {
  HADAD_CHECK(instance != nullptr);
  HADAD_CHECK(signatures != nullptr);
  HADAD_CHECK(estimator != nullptr);
}

void MetaTracker::Seed(chase::NodeId node, cost::ClassMeta meta) {
  SetMeta(instance_->Find(node), std::move(meta));
}

const cost::ClassMeta* MetaTracker::Get(chase::NodeId node) const {
  auto it = meta_.find(instance_->Find(node));
  return it == meta_.end() ? nullptr : &it->second;
}

double MetaTracker::SizeOf(chase::NodeId node) const {
  const cost::ClassMeta* m = Get(node);
  if (m == nullptr) return std::numeric_limits<double>::infinity();
  return m->SizeEstimate();
}

double MetaTracker::MaxKnownSize() const {
  double best = 0.0;
  for (const auto& [node, meta] : meta_) {
    best = std::max(best, meta.SizeEstimate());
  }
  return best;
}

void MetaTracker::SetMeta(chase::NodeId canonical, cost::ClassMeta meta) {
  auto [it, inserted] = meta_.emplace(canonical, meta);
  if (!inserted) {
    // Two estimates for one class (different derivations): keep the tighter
    // nnz; shapes of value-equal classes always agree under sound
    // constraints.
    if (meta.shape.NnzOrDense() < it->second.shape.NnzOrDense()) {
      it->second.shape.nnz = meta.shape.NnzOrDense();
      if (meta.mnc != nullptr) it->second.mnc = meta.mnc;
    }
    return;
  }
  EmitSizeFact(canonical, it->second);
  EmitTypeFacts(canonical, it->second);
  // Revisit facts that were waiting on this class.
  auto wit = waiters_.find(canonical);
  if (wit == waiters_.end()) return;
  std::vector<chase::FactId> pending = std::move(wit->second);
  waiters_.erase(wit);
  // A waiting fact may have fused into another since it parked; the
  // survivor has the same canonical args.
  for (chase::FactId id : pending) TryPropagate(instance_->Survivor(id));
}

void MetaTracker::EmitSizeFact(chase::NodeId canonical,
                               const cost::ClassMeta& meta) {
  int32_t size_pred = instance_->InternPredicate(vrem::kSize);
  chase::NodeId rows =
      instance_->InternConstant(std::to_string(meta.shape.rows));
  chase::NodeId cols =
      instance_->InternConstant(std::to_string(meta.shape.cols));
  instance_->AddFact(size_pred, {canonical, rows, cols}, nullptr);
}

void MetaTracker::EmitTypeFacts(chase::NodeId canonical,
                                const cost::ClassMeta& meta) {
  int32_t type_pred = instance_->InternPredicate(vrem::kType);
  auto emit = [&](const char* tag) {
    instance_->AddFact(type_pred, {canonical, instance_->InternConstant(tag)},
                       nullptr);
  };
  if (meta.shape.symmetric_pd) emit(vrem::kTypeSpd);
  if (meta.shape.lower_triangular) emit(vrem::kTypeLower);
  if (meta.shape.upper_triangular) emit(vrem::kTypeUpper);
  if (meta.shape.orthogonal) emit(vrem::kTypeOrthogonal);
  if (meta.shape.permutation) emit(vrem::kTypePermutation);
}

void MetaTracker::OnFactsAdded(const std::vector<chase::FactId>& ids) {
  for (chase::FactId id : ids) TryPropagate(id);
}

void MetaTracker::OnMerge(chase::NodeId absorbed, chase::NodeId survivor) {
  auto ait = meta_.find(absorbed);
  if (ait != meta_.end()) {
    cost::ClassMeta meta = std::move(ait->second);
    meta_.erase(ait);
    SetMeta(survivor, std::move(meta));
  }
  auto wit = waiters_.find(absorbed);
  if (wit != waiters_.end()) {
    std::vector<chase::FactId> pending = std::move(wit->second);
    waiters_.erase(wit);
    auto& dst = waiters_[survivor];
    dst.insert(dst.end(), pending.begin(), pending.end());
  }
}

bool MetaTracker::TryPropagate(chase::FactId id) {
  // Copy the args, not a reference: SetMeta below emits size/type facts,
  // and the resulting AddFact can reallocate the instance's fact storage,
  // which would dangle a reference mid-loop. Only the args: a fact's
  // derivation list can be long.
  const int32_t predicate = instance_->fact(id).predicate;
  const std::vector<chase::NodeId> args = instance_->fact(id).args;
  if (sconst_predicate_ < 0) {
    sconst_predicate_ = instance_->LookupPredicate(vrem::kSconst);
  }
  // Scalar literals carry their own metadata.
  if (predicate == sconst_predicate_) {
    chase::NodeId node = instance_->Find(args[0]);
    if (meta_.contains(node)) return false;
    cost::ClassMeta meta;
    meta.shape.rows = 1;
    meta.shape.cols = 1;
    meta.shape.nnz = 1;
    SetMeta(node, std::move(meta));
    return true;
  }
  const OpSignature* sig = signatures_->Get(predicate);
  if (sig == nullptr) return false;
  // Gather input metadata; park the fact on the first unknown input.
  std::vector<cost::ClassMeta> inputs;
  inputs.reserve(sig->input_positions.size());
  for (int pos : sig->input_positions) {
    chase::NodeId in = instance_->Find(args[static_cast<size_t>(pos)]);
    const cost::ClassMeta* m = Get(in);
    if (m == nullptr) {
      waiters_[in].push_back(id);
      return false;
    }
    inputs.push_back(*m);
  }
  bool changed = false;
  for (const OpOutput& out : sig->outputs) {
    chase::NodeId out_node =
        instance_->Find(args[static_cast<size_t>(out.position)]);
    if (meta_.contains(out_node)) continue;
    auto derived = estimator_->Propagate(instance_->PredicateName(predicate),
                                         inputs, out.output_index);
    if (!derived.has_value()) continue;
    SetMeta(out_node, std::move(*derived));
    changed = true;
  }
  return changed;
}

void MetaTracker::PropagateAll() {
  // Iterate to fixpoint: the waiter queues handle most ordering, but seeded
  // metas may arrive after facts, so sweep until stable.
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 64) {
    changed = false;
    for (chase::FactId id = 0; id < instance_->fact_id_end(); ++id) {
      if (instance_->fact(id).live() && TryPropagate(id)) changed = true;
    }
  }
}

}  // namespace hadad::pacb
