#ifndef HADAD_VIEWS_ADAPTIVE_H_
#define HADAD_VIEWS_ADAPTIVE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/workspace.h"
#include "exec/thread_pool.h"
#include "la/expr.h"
#include "matrix/matrix.h"
#include "obs/trace.h"
#include "pacb/optimizer.h"
#include "views/advisor.h"
#include "views/maintenance.h"
#include "views/view_store.h"
#include "views/workload_monitor.h"

namespace hadad::views {

struct AdaptiveViewStats {
  int64_t views_created = 0;
  int64_t views_evicted = 0;
  // Views dropped because a base-data mutation changed a referenced leaf
  // (distinct from budget evictions above).
  int64_t views_invalidated = 0;
  // Append-driven incremental delta refreshes installed (V ← V + f(Δ)).
  int64_t views_refreshed = 0;
  // Executions whose plan scanned at least one adaptive view.
  int64_t view_hit_runs = 0;
  int64_t materialize_failures = 0;
  int64_t bytes_in_use = 0;
  int64_t budget_bytes = 0;
  int64_t pending = 0;  // Materializations or refreshes queued or in flight.
};

// Closes the loop from observed workload to rewrite-usable views: monitors
// executed plans, asks the advisor for candidates, materializes winners on
// one background worker, and installs them into the host's workspace +
// optimizer so subsequent rewrites can answer from them — with budgeted
// eviction keeping the store bounded. Every materialization and delta
// refresh runs on that worker; Drain() waits for them.
//
// Locking contract: `host.state_mu` guards the host's workspace and
// optimizer. The manager takes it shared to pin snapshots and to score
// candidates (through the optimizer, the one owner of leaf statistics),
// and unique to install/evict views. Callers must NOT hold it when
// invoking OnExecution. `host.on_views_changed` is called (under the unique
// lock) whenever the view set changes; hosts use it to invalidate cached
// plans (api::Session bumps its view generation).
class AdaptiveViewManager {
 public:
  struct Host {
    engine::Workspace* workspace = nullptr;
    // Bound to `workspace`'s data (Optimizer::SetData): it scores
    // candidates and serves the statistics of installed views.
    pacb::Optimizer* optimizer = nullptr;
    common::SharedMutex* state_mu = nullptr;
    // Evaluates a view definition over `ws`, a pinned workspace snapshot.
    // Called on the background worker with NO state lock held (writers
    // proceed concurrently), so it must read nothing mutable beyond `ws` —
    // in particular no optimizer leaf resolver, which reads the live
    // binding.
    std::function<Result<matrix::Matrix>(const la::ExprPtr&,
                                         engine::WorkspaceView ws)>
        evaluate;
    // View-set change notification, called under the unique state lock.
    std::function<void()> on_views_changed;
    // Optional span recorder (borrowed; must outlive the manager). The
    // manager emits "views"-category spans for materializations, delta
    // refreshes, evictions, and mutation propagation. Null = no tracing.
    obs::TraceRecorder* trace = nullptr;
  };

  // At most this many materializations are queued per advisor sweep (one
  // sweep runs after each observed execution, skipped while one is
  // already in flight).
  static constexpr int kMaxViewsPerSweep = 1;
  // Candidates the advisor ranks per sweep.
  static constexpr size_t kMaxCandidates = 4;

  // `budget_bytes` bounds all adaptively materialized views together (the
  // store never exceeds it: eviction runs before admission); a
  // subexpression becomes a candidate after `min_hits` executions.
  AdaptiveViewManager(Host host, int64_t budget_bytes, int64_t min_hits);
  // Drains in-flight materializations before destruction.
  ~AdaptiveViewManager();

  AdaptiveViewManager(const AdaptiveViewManager&) = delete;
  AdaptiveViewManager& operator=(const AdaptiveViewManager&) = delete;

  // Feeds one executed plan into the monitor, credits view hits, and — when
  // a candidate crosses min_hits — queues its background materialization.
  void OnExecution(const la::ExprPtr& executed) HADAD_EXCLUDES(admin_mu_);

  // Propagates a mutation batch into the store. MUST be called under the
  // host's *unique* state lock (the session's mutation path holds it).
  //
  // Each stored view follows views::PlanRefresh. A delta-refreshable view
  // is detached and queued for an incremental refresh (V ← V + f(Δ)) on
  // the background worker instead of recomputation; it is invisible to
  // rewrites until the refresh installs. Any other view reading a changed
  // or appended name is invalidated — evicted from the store and the
  // optimizer, with WorkloadMonitor::Forget keeping advisor stats honest.
  void OnDataMutation(const DataChange& change) HADAD_EXCLUDES(admin_mu_);

  // Blocks until every queued materialization and delta refresh has
  // finished on the worker (installed, discarded or failed). Foreground
  // queries never need this; tests and benchmarks use it to make warm-up
  // deterministic.
  void Drain() HADAD_EXCLUDES(admin_mu_);

  // Point-in-time counter snapshot. Thread-safe; may be called anytime.
  AdaptiveViewStats stats() const HADAD_EXCLUDES(admin_mu_);
  // Current adaptive views, deterministically ordered by name. Thread-safe.
  std::vector<StoredView> StoredViews() const HADAD_EXCLUDES(admin_mu_);
  // True when `name` is one of the store's installed views. Thread-safe.
  bool IsAdaptiveViewName(const std::string& name) const
      HADAD_EXCLUDES(admin_mu_);
  // Distinct canonical subexpressions the workload monitor currently
  // tracks (the session exposes this as a gauge). Thread-safe.
  int64_t MonitorTrackedCount() const { return monitor_.tracked_count(); }

 private:
  // One detached view awaiting its incremental refresh: the old value's
  // handle plus the delta expression (which references `temp_name`, a
  // workspace entry holding the appended rows). `deps` stamps the
  // definition's leaves at schedule time — if any moves before install,
  // the refresh is discarded (the data it was computed for is gone).
  struct RefreshTask {
    StoredView meta;
    std::shared_ptr<const matrix::Matrix> old_value;
    la::ExprPtr delta_expr;
    std::string temp_name;
    engine::VersionStamp deps;
  };

  void MaybeScheduleMaterializations() HADAD_EXCLUDES(admin_mu_);
  void MaterializeOne(Recommendation rec) HADAD_EXCLUDES(admin_mu_);
  void RefreshOne(RefreshTask task) HADAD_EXCLUDES(admin_mu_);
  // Re-admits the refreshed value (or records the discard) and erases the
  // temp delta entry. The unique state hold covers the workspace and
  // optimizer writes.
  void InstallRefresh(RefreshTask task, Result<matrix::Matrix> fresh)
      HADAD_REQUIRES(host_.state_mu) HADAD_EXCLUDES(admin_mu_);
  void FinishPending(const std::string& canonical, bool failed)
      HADAD_EXCLUDES(admin_mu_);
  std::string NextViewName() HADAD_REQUIRES(admin_mu_);

  const Host host_;
  const int64_t budget_bytes_;
  const int64_t min_hits_;
  WorkloadMonitor monitor_;

  // Guards the store and the scheduling bookkeeping below. Ordering:
  // state_mu (outer) before admin_mu_ (inner); never the reverse.
  mutable common::Mutex admin_mu_;
  common::CondVar drain_cv_;
  ViewStore store_ HADAD_GUARDED_BY(admin_mu_);
  // Canonical texts queued or in flight.
  std::set<std::string> pending_ HADAD_GUARDED_BY(admin_mu_);
  // Canonicals whose materialization failed (evaluation error or over
  // budget): never re-queued, so a doomed candidate cannot thrash.
  std::set<std::string> failed_ HADAD_GUARDED_BY(admin_mu_);
  int64_t name_seq_ HADAD_GUARDED_BY(admin_mu_) = 0;
  int64_t hit_seq_ HADAD_GUARDED_BY(admin_mu_) = 0;

  std::atomic<int64_t> created_{0};
  std::atomic<int64_t> evicted_{0};
  std::atomic<int64_t> invalidated_{0};
  std::atomic<int64_t> refreshed_{0};
  std::atomic<int64_t> hit_runs_{0};
  std::atomic<int64_t> failures_{0};
  // Uniquifies temp delta names.
  int64_t refresh_seq_ HADAD_GUARDED_BY(admin_mu_) = 0;

  // The single background worker. Declared last so its destructor joins
  // in-flight tasks while everything above is alive.
  exec::ThreadPool worker_{1, /*always_spawn=*/true};
};

}  // namespace hadad::views

#endif  // HADAD_VIEWS_ADAPTIVE_H_
