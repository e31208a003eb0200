#ifndef HADAD_VIEWS_VIEW_STORE_H_
#define HADAD_VIEWS_VIEW_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/workspace.h"
#include "la/expr.h"
#include "matrix/matrix.h"

namespace hadad::views {

// Bookkeeping for one adaptively materialized view.
struct StoredView {
  std::string name;       // Workspace/scan name (e.g. "av_3").
  std::string canonical;  // Canonical definition text.
  la::ExprPtr definition;
  int64_t bytes = 0;      // Actual matrix::ApproxBytes of the value.
  double benefit = 0.0;   // Advisor score at admission.
  int64_t hits = 0;       // Executed plans that scanned this view.
  int64_t last_use = 0;   // Monotone sequence number of the last hit.
};

// A byte-budgeted store of adaptively materialized views: each admitted
// value is bound in the workspace under its view name, and evicting it
// takes it out again. Admission never exceeds the budget: PlanAdmission
// picks evictions — lowest benefit-weighted-LRU retention first — and fails
// when even a full sweep cannot make room. Not thread-safe; the
// AdaptiveViewManager serializes access under its host's state lock.
class ViewStore {
 public:
  // Entry-count cap next to the byte budget: each view adds rewrite-search
  // constraints, so unbounded counts would tax RW_find.
  static constexpr size_t kMaxViews = 16;

  ViewStore(engine::Workspace* workspace, int64_t budget_bytes);

  int64_t budget_bytes() const { return budget_bytes_; }
  int64_t bytes_in_use() const { return bytes_in_use_; }
  size_t size() const { return views_.size(); }

  bool ContainsCanonical(const std::string& canonical) const;
  bool ContainsName(const std::string& name) const;
  // Deterministically ordered (by name).
  const std::map<std::string, StoredView>& views() const { return views_; }

  // Chooses the evictions required to admit `bytes` more: fills `evict`
  // (possibly empty) and returns true, or returns false when the candidate
  // cannot fit even with every current view evicted. Eviction order is
  // ascending retention = benefit x (1 + hits) / bytes, ties to least
  // recently used, then name.
  bool PlanAdmission(int64_t bytes, std::vector<std::string>* evict) const;

  // Binds an already-materialized value under `meta.name` in the workspace
  // (value bytes are measured here, overriding meta.bytes). Fails if the
  // workspace already binds the name or admission would exceed the budget —
  // call PlanAdmission + Evict first.
  Status Admit(StoredView meta, matrix::Matrix value);

  // Drops `name` from the store and the workspace. NotFound when the store
  // holds no such view (base matrices are never dropped here).
  Status Evict(const std::string& name);

  // Evict, but returns the bookkeeping entry and the materialized value's
  // handle — the incremental-refresh path computes V + f(Δ) from them and
  // re-admits. The store's budget no longer counts the detached bytes.
  Result<std::pair<StoredView, std::shared_ptr<const matrix::Matrix>>>
  Detach(const std::string& name);

  // Records that an executed plan scanned `name` (no-op for unknown names).
  void RecordHit(const std::string& name, int64_t sequence);

 private:
  double Retention(const StoredView& v) const;

  engine::Workspace* workspace_;
  int64_t budget_bytes_;
  std::map<std::string, StoredView> views_;
  int64_t bytes_in_use_ = 0;  // Summed StoredView::bytes.
};

}  // namespace hadad::views

#endif  // HADAD_VIEWS_VIEW_STORE_H_
