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

struct AdaptiveOptions {
  // Byte budget for all adaptively materialized views together; the store
  // never exceeds it (eviction runs before admission).
  int64_t budget_bytes = int64_t{256} << 20;
  // Executions of a subexpression before it becomes a candidate.
  int64_t min_hits = 3;
  // At most this many materializations are queued per advisor sweep (one
  // sweep runs after each observed execution, skipped while one is
  // already in flight).
  int max_views_per_sweep = 1;
  // Entry-count cap for the store (each view extends the rewrite search).
  size_t max_views = 16;
  // Candidates the advisor ranks per sweep.
  size_t max_candidates = 4;
  // Half-life (in observed executions) of the workload monitor's decayed
  // hit weights; 0 keeps raw lifetime counts. On long-lived sessions a
  // positive half-life stops week-old workloads from outranking the
  // current mix.
  double monitor_half_life_runs = 0.0;
  // Materialize inline inside OnExecution instead of on the background
  // worker — deterministic single-threaded behavior for tests.
  bool synchronous = false;
};

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
// executed plans, asks the advisor for candidates, materializes winners in
// the background, and installs them into the host's workspace + optimizer
// so subsequent rewrites can answer from them — with budgeted eviction
// keeping the store bounded.
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
    // Evaluates a view definition over `ws` — a pinned workspace snapshot
    // on the background paths (called with NO state lock held; writers
    // proceed concurrently) or the live workspace on the synchronous-mode
    // refresh path, whose caller's mutation holds the unique state lock.
    // It must read nothing mutable beyond `ws` — in particular no
    // optimizer leaf resolver, which reads the live binding.
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

  AdaptiveViewManager(Host host, AdaptiveOptions options);
  // Drains in-flight materializations before destruction.
  ~AdaptiveViewManager();

  AdaptiveViewManager(const AdaptiveViewManager&) = delete;
  AdaptiveViewManager& operator=(const AdaptiveViewManager&) = delete;

  // Feeds one executed plan into the monitor, credits view hits, and — when
  // a candidate crosses min_hits — queues its background materialization.
  void OnExecution(const la::ExprPtr& executed,
                   const engine::ExecStats* stats) HADAD_EXCLUDES(admin_mu_);

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

  // Blocks until every queued materialization has been installed (or
  // failed). Foreground queries never need this; tests and benchmarks use
  // it to make warm-up deterministic.
  void Drain() HADAD_EXCLUDES(admin_mu_);

  // Point-in-time counter snapshot. Thread-safe; may be called anytime.
  AdaptiveViewStats stats() const HADAD_EXCLUDES(admin_mu_);
  // Current adaptive views, deterministically ordered by name. Thread-safe.
  std::vector<StoredView> StoredViews() const HADAD_EXCLUDES(admin_mu_);
  // True when `name` is one of the store's installed views. Thread-safe.
  bool IsAdaptiveViewName(const std::string& name) const
      HADAD_EXCLUDES(admin_mu_);
  // The options this manager was built with. Thread-safe (immutable).
  const AdaptiveOptions& options() const { return options_; }

  // Distinct canonical subexpressions the workload monitor currently
  // tracks (the session exposes this as a gauge). Thread-safe.
  int64_t MonitorTrackedCount() const { return monitor_.tracked_count(); }

  // Canonical forms of the current *viable* materialization candidates:
  // the advisor's latest recommendation set (size-filtered against the
  // budget, failure-filtered) plus everything queued or in flight. The
  // session hands these to the exec plan compiler as fusion barriers, so a
  // subexpression about to become a view keeps its own plan node (operator
  // fusion would otherwise swallow it and starve the monitor's cost
  // attribution). Subexpressions that can never materialize (over budget,
  // failed) are deliberately NOT barriers — fusion stays on for them.
  // Thread-safe and cheap (one mutex + small set copy); called per Run on
  // executor sessions.
  std::set<std::string> FusionBarriers() const HADAD_EXCLUDES(admin_mu_);

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
  // `caller_holds_state_lock` is true only on the synchronous-mode path,
  // where the session's mutation call already holds the unique state lock.
  void RefreshOne(RefreshTask task, bool caller_holds_state_lock)
      HADAD_EXCLUDES(admin_mu_);
  // Evaluates old_value + f(Δ) for a detached view against `ws` — a pinned
  // snapshot on the background path (lock-free; writers never wait), the
  // live workspace in synchronous mode (the caller's mutation holds the
  // unique state lock).
  Result<matrix::Matrix> ComputeRefreshValue(const RefreshTask& task,
                                             engine::WorkspaceView ws);
  // Re-admits the refreshed value (or records the discard) and erases the
  // temp delta entry. The unique state hold covers the workspace and
  // optimizer writes.
  void InstallRefresh(RefreshTask task, Result<matrix::Matrix> fresh)
      HADAD_REQUIRES(host_.state_mu) HADAD_EXCLUDES(admin_mu_);
  void FinishPending(const std::string& canonical, bool failed)
      HADAD_EXCLUDES(admin_mu_);
  std::string NextViewName() HADAD_REQUIRES(admin_mu_);
  // Tells the analysis the host's state lock is held on the synchronous-
  // mode path, where the session's mutation call holds it through its own
  // alias (api::Session::views_mu_ IS *host_.state_mu) — a cross-object
  // identity the analysis cannot see. The contract itself is runtime-
  // enforced by the session (OnDataMutation documents MUST-hold-unique).
  void AssertStateLockHeld() const HADAD_ASSERT_CAPABILITY(host_.state_mu) {}

  const Host host_;
  const AdaptiveOptions options_;
  WorkloadMonitor monitor_;

  // Guards the store and the scheduling bookkeeping below. Ordering:
  // state_mu (outer) before admin_mu_ (inner); never the reverse.
  mutable common::Mutex admin_mu_;
  common::CondVar drain_cv_;
  ViewStore store_ HADAD_GUARDED_BY(admin_mu_);
  // Canonical texts queued or in flight.
  std::set<std::string> pending_ HADAD_GUARDED_BY(admin_mu_);
  // The advisor's latest recommendation set (canonical texts): the viable
  // candidates the fusion-barrier query answers from. Refreshed wholesale
  // each sweep; installed/filtered candidates drop out on the next one.
  std::set<std::string> candidate_canonicals_ HADAD_GUARDED_BY(admin_mu_);
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

  // Single background worker; null in synchronous mode. Declared last so
  // its destructor joins in-flight tasks while everything above is alive.
  std::unique_ptr<exec::ThreadPool> worker_;
};

}  // namespace hadad::views

#endif  // HADAD_VIEWS_ADAPTIVE_H_
