#ifndef HADAD_API_SESSION_H_
#define HADAD_API_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chase/ast.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/profiles.h"
#include "engine/workspace.h"
#include "exec/executor.h"
#include "la/expr.h"
#include "matrix/matrix.h"
#include "morpheus/engine.h"
#include "morpheus/normalized_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pacb/optimizer.h"
#include "views/adaptive.h"
#include "views/maintenance.h"

namespace hadad::api {

class Session;

// Counters a Session accumulates across Prepare()/Run() calls — a
// point-in-time read view over the session's obs::MetricsRegistry (the
// counters live there; stats() snapshots them, so this struct and
// Session::MetricsText() can never drift apart). Every field is a
// monotonically increasing event count unless noted otherwise.
struct SessionStats {
  // Optimizer invocations — calls, each one pays RW_find.
  int64_t prepares = 0;
  // Prepare()/Run() calls answered from the plan cache — calls.
  int64_t cache_hits = 0;
  // Prepare()/Run() calls that missed (or found a stale plan) — calls.
  int64_t cache_misses = 0;
  // Misses that waited for a concurrent in-flight derivation of the same
  // expression instead of duplicating RW_find — calls.
  int64_t plan_builds_coalesced = 0;
  // Session::Run() invocations — calls.
  int64_t runs = 0;
  // Physical-DAG compilations of query plans — plans (the hit path reuses
  // the DAG cached inside PreparedPlan instead of recompiling; view
  // definitions compile too but are not counted).
  int64_t compiled_plans = 0;
  // Operator-fusion outcome summed over the same query-plan compilations:
  // plan nodes that fuse several logical operators, and the operator
  // nodes — one materialized intermediate each — the fusion pass
  // eliminated. Per-run values travel in engine::ExecStats.
  int64_t fused_nodes = 0;
  int64_t fused_ops_eliminated = 0;
  // Mutation entries applied by successful Update()/Append()/Remove()/
  // Put() calls, with Mutate() batches counting per entry — mutations.
  int64_t data_mutations = 0;
  // The adaptive_* fields mirror the adaptive-view subsystem (all zero
  // unless SessionBuilder::AdaptiveViews was called).
  int64_t adaptive_views_created = 0;   // Views materialized + installed.
  int64_t adaptive_views_evicted = 0;   // Budget evictions.
  // Adaptive views dropped because a mutation changed a referenced leaf.
  int64_t adaptive_views_invalidated = 0;
  // Append-driven incremental refreshes installed (V ← V + f(Δ)).
  int64_t adaptive_views_refreshed = 0;
  // Executions whose plan scanned at least one adaptive view — runs.
  int64_t adaptive_view_hit_runs = 0;
  int64_t adaptive_bytes_in_use = 0;  // Level, bytes (not a counter).
  int64_t adaptive_budget_bytes = 0;  // Level, bytes (not a counter).
};

// One entry of a Session::Mutate batch. Build entries with the factories;
// `value` carries the new matrix for Update/Put, the appended rows for
// Append, and is unused (empty) for Remove.
struct Mutation {
  enum class Op { kUpdate, kAppend, kRemove, kPut };
  Op op = Op::kUpdate;
  std::string name;
  matrix::Matrix value;

  static Mutation Update(std::string name, matrix::Matrix m) {
    return Mutation{Op::kUpdate, std::move(name), std::move(m)};
  }
  static Mutation Append(std::string name, matrix::Matrix rows) {
    return Mutation{Op::kAppend, std::move(name), std::move(rows)};
  }
  static Mutation Remove(std::string name) {
    return Mutation{Op::kRemove, std::move(name), matrix::Matrix()};
  }
  static Mutation Put(std::string name, matrix::Matrix m) {
    return Mutation{Op::kPut, std::move(name), std::move(m)};
  }
};

// An immutable optimized plan: the parsed pipeline plus HADAD's rewriting of
// it. Shared between the session's plan cache and any PreparedQuery handles.
struct PreparedPlan {
  std::string canonical;  // ToString(original): the plan-cache key.
  la::ExprPtr original;
  pacb::RewriteResult rewrite;
  // View generation the optimizer saw. When the adaptive subsystem lands or
  // evicts a view the session generation moves past this and the plan is
  // re-derived on its next use (so rewrites can reach the new views).
  int64_t generation = 0;
  // Leaf dependency set recorded at derivation time: the epoch of every
  // workspace name the original or rewritten form scans. A mutation that
  // moves any of them (Update/Append/Remove, user-view refresh) makes the
  // plan re-derive on next use; mutating unrelated names leaves it warm.
  engine::VersionStamp leaf_stamp;
  // Workspace generation at which leaf_stamp was last verified current —
  // the per-run fast path (one atomic compare) when nothing mutated.
  mutable std::atomic<int64_t> verified_generation{-1};

  // Lazily compiled physical DAG of rewrite.best: built on first
  // execution, reused afterwards so the hit path skips DAG recompilation.
  mutable common::Mutex compile_mu;
  mutable std::shared_ptr<const exec::CompiledPlan> compiled
      HADAD_GUARDED_BY(compile_mu);
};

// A reusable optimized pipeline bound to its session. Parse + PACB rewrite
// already happened (once); Execute() only pays execution. Copyable; keeps the
// session alive, so it may outlive the caller's session handle. All methods
// are const and safe to call concurrently (execution follows Session::Run's
// route: a brief shared hold to pin a snapshot, then lock-free).
class PreparedQuery {
 public:
  // Runs the minimum-cost rewriting.
  Result<matrix::Matrix> Execute(engine::ExecStats* stats = nullptr) const;
  // Runs the pipeline exactly as stated (the paper's Q_exec baseline).
  Result<matrix::Matrix> ExecuteOriginal(engine::ExecStats* stats = nullptr) const;

  // Human-readable report: original vs. rewritten expression, γ estimates,
  // RW_find time, chase statistics, and the alternative rewritings found.
  std::string Explain() const;

  // Executes the rewriting once with per-node measurement and renders the
  // physical DAG annotated with what actually happened: measured kernel
  // wall-clock per node (and its share of total operator work), measured
  // output nnz (the paper's γ per intermediate), the chosen kernel —
  // nm_* for factorized pushdowns — fusion and CSE provenance (see
  // obs::RenderExplainAnalyze). Runs the query exactly as Execute() does,
  // on the same snapshot-pinned route.
  Result<std::string> ExplainAnalyze() const;

  const la::ExprPtr& original() const { return plan_->original; }
  // The expression Execute() runs (== rewrite().best).
  const la::ExprPtr& plan() const { return plan_->rewrite.best; }
  const pacb::RewriteResult& rewrite() const { return plan_->rewrite; }
  const std::string& canonical_text() const { return plan_->canonical; }
  // True when Prepare() found this plan in the session's cache instead of
  // invoking the optimizer.
  bool from_cache() const { return from_cache_; }

 private:
  friend class Session;
  PreparedQuery(std::shared_ptr<const Session> session,
                std::shared_ptr<const PreparedPlan> plan, bool from_cache)
      : session_(std::move(session)),
        plan_(std::move(plan)),
        from_cache_(from_cache) {}

  std::shared_ptr<const Session> session_;
  std::shared_ptr<const PreparedPlan> plan_;
  bool from_cache_;
};

// The library's front door: one object owning the workspace (data + views),
// the PACB optimizer, and an execution engine, with a plan cache in front of
// the optimizer so repeated pipelines pay RW_find once (§9.1.3's "overhead
// must stay negligible" contract).
//
//   auto session = api::SessionBuilder()
//                      .Put("M", ...).Put("N", ...)
//                      .Build().value();
//   auto result = session->Run("(M %*% N) %*% M");
//
// Prepare()/Run() are safe to call concurrently from multiple threads: the
// plan cache is guarded by a shared_mutex (readers run in parallel) and
// execution is MVCC: a query takes the session state lock shared only long
// enough to verify plan freshness, pin an immutable workspace snapshot and
// fetch (or compile) its DAG, then runs the DAG with NO session lock held.
// Writers never block readers — a mutation installs new matrix versions
// under the writer critical section while in-flight queries keep reading
// their pinned versions; superseded versions are reclaimed when the last
// pinned reader drains.
//
// The data layer is *versioned and mutable*: Update()/Append()/Remove()
// change base matrices after Build() and propagate through every dependent
// layer — the optimizer's base shapes (it reads leaf statistics from the
// new version on first use), user views (refreshed in place,
// incrementally on appends when the definition allows), adaptive views
// (invalidated or delta-refreshed in the background), and the plan cache
// (per-leaf epoch invalidation). In-flight
// queries are snapshot-isolated: they never observe a half-applied
// mutation, and they finish against the exact versions they pinned.
// Mutate() applies a whole batch under one writer critical section with a
// single view-refresh wave and one adaptive propagation.
//
// The expert layers stay reachable — workspace()/optimizer()/engine() —
// as read-only views; all mutation goes through the Session so every layer
// stays consistent.
class Session : public std::enable_shared_from_this<Session> {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Parse + optimize `text` (or fetch the cached plan for its canonical
  // form) and return a reusable handle. Errors (parse failure, unknown
  // names, shape mismatches) surface as Status — never exceptions.
  Result<PreparedQuery> Prepare(const std::string& text) const;

  // One-liner: Prepare (cache-backed) + Execute the best rewriting.
  Result<matrix::Matrix> Run(const std::string& text,
                             engine::ExecStats* stats = nullptr) const;

  // Run with serving-layer hooks (src/server/ calls this; plain Run is the
  // cancel-free special case). `cancel`, when non-null, is checked before
  // optimization and then cooperatively at every DAG node launch — a
  // cancelled or past-deadline token aborts the run with the typed
  // kCancelled/kDeadlineExceeded status. `client`, when non-empty, is
  // stamped on the root trace span.
  Result<matrix::Matrix> RunCancellable(const std::string& text,
                                        const exec::CancelToken* cancel,
                                        const std::string& client = "",
                                        engine::ExecStats* stats = nullptr)
      const;

  // --- Mutable data layer --------------------------------------------------
  //
  // All mutators run a short writer critical section and return without
  // waiting for in-flight queries: readers keep the versions they pinned
  // (MVCC), so a long-running query never delays a mutation and vice versa.

  // Replaces base matrix `name` (shape, sparsity, and representation may
  // all change). Dependent user views are re-materialized synchronously (in
  // registration order, so views over views cascade); dependent adaptive
  // views are invalidated; cached plans whose leaves moved re-derive on
  // next use. Errors: NotFound (unknown name), InvalidArgument (views and
  // Morpheus-declared names are derived/declared, not updatable — and a
  // new shape that breaks a dependent view's definition is rejected before
  // anything is applied).
  Status Update(const std::string& name, matrix::Matrix m)
      HADAD_EXCLUDES(views_mu_);

  // Appends rows below base matrix `name` (column counts must match).
  // Dependent user views whose definitions are append-additive refresh
  // incrementally (V ← V + f(Δ)); others re-materialize. Dependent
  // adaptive views delta-refresh on the background worker when additive,
  // and are invalidated otherwise. Same error contract as Update.
  Status Append(const std::string& name, const matrix::Matrix& rows)
      HADAD_EXCLUDES(views_mu_);

  // Unbinds base matrix `name`. InvalidArgument while a user view or a
  // Morpheus declaration references it; adaptive views over it are
  // invalidated. Cached plans over it fail on their next use (NotFound).
  Status Remove(const std::string& name) HADAD_EXCLUDES(views_mu_);

  // Binds base matrix `name` after Build(). A genuinely new name joins the
  // session like a builder-time Put: the optimizer gains its shape (and
  // reads its statistics on first use), so the very next Prepare() can
  // plan over it — while cached plans for unrelated leaves stay warm (the new
  // name's epoch was never stamped into them). An existing base name is
  // replaced as by Update (view refresh, rollback, adaptive propagation).
  // InvalidArgument for empty/reserved names, view names, and
  // Morpheus-declared names.
  Status Put(const std::string& name, matrix::Matrix m)
      HADAD_EXCLUDES(views_mu_);

  // Applies a batch of mutations atomically: every entry installs under ONE
  // writer critical section, dependent user views refresh once (one wave,
  // in registration order), cached plans see one epoch move per touched
  // leaf, and the adaptive subsystem gets one propagation. A view that
  // reads exactly one name whose only entry is an Append, and no other
  // mutated name, refreshes incrementally when its definition is
  // append-additive (V ← V + f(Δ)); other dependent views re-materialize.
  // All-or-nothing: a validation or refresh failure rolls the whole batch
  // back and returns the failing entry's error (annotated with its index
  // when the batch has several entries).
  // An empty batch is OK(). Entries apply in order, so later entries may
  // reference names an earlier Put introduced. Update/Append/Remove/Put
  // are one-entry batches.
  Status Mutate(std::vector<Mutation> mutations) HADAD_EXCLUDES(views_mu_);

  // Read-only view of the session's data catalog. Do not hold the
  // reference across a mutation from another thread; all writes go through
  // Update/Append/Remove so every dependent layer stays consistent.
  const engine::Workspace& workspace() const { return workspace_; }
  // Read-only view of the PACB optimizer (facts, views, chase budgets).
  const pacb::Optimizer& optimizer() const { return *optimizer_; }
  // Read-only view of the engine profile (its planner applies kSmart's
  // internal rewrites before DAG compilation).
  const engine::Engine& engine() const { return *engine_; }
  // The registry of normalized matrices: non-null iff any were registered.
  // The executor compiles their uses to nm_* kernels. Stable and immutable
  // for the session's lifetime.
  const morpheus::MorpheusEngine* morpheus() const { return morpheus_.get(); }
  // The DAG engine (src/exec/) every execution runs on: queries,
  // ExecuteOriginal, ExplainAnalyze, view materialization and refresh.
  // Never null; its pool has SessionBuilder::Threads(n) threads (1 without
  // that call). Stable for the session's lifetime.
  const exec::Executor* executor() const { return executor_.get(); }
  // Non-null iff SessionBuilder::AdaptiveViews was called. Stable for the
  // session's lifetime; the manager's own accessors are thread-safe.
  const views::AdaptiveViewManager* adaptive() const {
    return adaptive_.get();
  }

  // Blocks until queued adaptive-view materializations are installed.
  // No-op without AdaptiveViews; tests and benchmarks use it to make the
  // warmed state deterministic. Safe to call from any thread.
  void WaitForAdaptiveViews() const;

  // Point-in-time counter snapshot (a read view over the metrics registry;
  // lock-free counter loads). Thread-safe.
  SessionStats stats() const;
  // Prometheus text exposition of every session metric (counters,
  // histograms, and gauges — the gauges are refreshed from live state
  // first: plan-cache size, thread-pool width, adaptive-view store,
  // workload-monitor population). Thread-safe.
  std::string MetricsText() const HADAD_EXCLUDES(cache_mu_);
  // The registry behind stats()/MetricsText(). Gauges are only as fresh as
  // the last MetricsText() call; counters and histograms are always live.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  // Writable registry handle: the serving layer (src/server/) registers its
  // hadad_server_* metrics here so one scrape covers the whole process.
  // Registration is internally locked; see MetricsRegistry.
  obs::MetricsRegistry& mutable_metrics() { return metrics_; }
  // Writable recorder handle (null without Tracing()): the serving layer
  // parents its per-request spans under the session recorder.
  obs::TraceRecorder* mutable_trace() { return trace_.get(); }
  // Non-null iff SessionBuilder::Tracing was called. Stable for the
  // session's lifetime; the recorder's own methods are thread-safe.
  const obs::TraceRecorder* trace() const { return trace_.get(); }
  // Writes every span recorded so far as Chrome trace-event JSON (load in
  // Perfetto / chrome://tracing). InvalidArgument when the session was
  // built without Tracing(); IoError when the file cannot be written.
  Status DumpTrace(const std::string& path) const;
  // Cached plans by canonical text. Thread-safe (shared cache lock).
  int64_t plan_cache_size() const HADAD_EXCLUDES(cache_mu_);
  // Drops every cached plan; in-flight PreparedQuery handles keep their
  // shared plan alive. Thread-safe (unique cache lock).
  void ClearPlanCache() HADAD_EXCLUDES(cache_mu_);

 private:
  friend class SessionBuilder;
  friend class PreparedQuery;
  Session() = default;

  // Refresh bookkeeping for one user view restored on rollback.
  struct RefreshedView {
    std::string name;
    la::ExprPtr def;
    engine::Version old_version;
  };

  // Journal entry for one applied base mutation of a Mutate batch.
  struct BaseChange {
    Mutation::Op op = Mutation::Op::kUpdate;
    std::string name;
    // Prior version for kUpdate/kRemove and Put-over-existing; empty for a
    // Put that introduced the name.
    std::optional<engine::Version> old_version;
    int64_t old_rows = 0;  // kAppend: row count before the grow.
  };

  // Cache lookup by canonical text; on miss (or when the cached plan is
  // stale — view generation or a leaf epoch moved) runs the optimizer and
  // inserts. `parent` (here and below) is the enclosing trace span; child
  // spans nest under it, and kNoSpan / disabled tracing short-circuits to
  // no recording at all.
  Result<std::shared_ptr<const PreparedPlan>> GetOrBuildPlan(
      const std::string& text, bool* from_cache,
      obs::SpanId parent = obs::kNoSpan) const
      HADAD_EXCLUDES(cache_mu_, views_mu_, builds_mu_);
  // The miss path of GetOrBuildPlan: runs the optimizer (outside the cache
  // lock) and publishes the plan. Exactly one caller per canonical text is
  // in here at a time — GetOrBuildPlan coalesces the rest.
  Result<std::shared_ptr<const PreparedPlan>> BuildAndInsertPlan(
      la::ExprPtr expr, std::string canonical, obs::SpanId parent) const
      HADAD_EXCLUDES(cache_mu_, views_mu_, builds_mu_);
  // True when the plan's view generation matches and none of its recorded
  // leaf epochs moved. Lock-free fast path on the verified generation.
  bool PlanFresh(const PreparedPlan& plan) const;
  // A public mutator call: a one-entry batch under its own root span
  // (`span_name`, annotated with the mutated name).
  Status MutateOne(const char* span_name, Mutation mutation)
      HADAD_EXCLUDES(views_mu_);
  // The one mutation path: validates the whole batch against a simulated
  // catalog, applies every base mutation (journaling prior state), runs ONE
  // view-refresh wave (delta or full per views::PlanRefresh), propagates
  // once to the adaptive views, and rolls everything back on any failure.
  // Consumes `mutations`.
  Status MutateBatchLocked(std::vector<Mutation>* mutations,
                           obs::SpanId parent) HADAD_REQUIRES(views_mu_);
  // Undoes a half-applied batch: erases the `staged` delta rows, restores
  // the pre-batch versions (handle and epoch) of refreshed views, then of
  // bases in reverse journal order (an Append truncates its grown value
  // instead), then re-registers the restored shapes and the refreshed
  // views with the optimizer.
  void RollbackBatch(std::vector<BaseChange>* journal,
                     std::vector<RefreshedView>* refreshed,
                     const std::vector<std::string>& staged)
      HADAD_REQUIRES(views_mu_);
  // The refreshed value of user view `vname` under `plan`: V + f(Δ) for a
  // delta refresh — staging the appended rows once per leaf and recording
  // the staged name in `staged` — and the full definition otherwise (or
  // when the delta fails to evaluate).
  Result<matrix::Matrix> ComputeViewRefresh(const std::string& vname,
                                            const la::ExprPtr& def,
                                            const views::RefreshPlan& plan,
                                            const views::DataChange& change,
                                            std::vector<std::string>* staged)
      HADAD_REQUIRES(views_mu_);
  // The one execution route: executes a prepared plan (rewrite.best, or
  // `original` as stated). Under a brief shared state hold it re-checks
  // freshness (re-deriving a plan that views or writes staled, up to three
  // attempts before serving the original as stated), pins an MVCC
  // snapshot and fetches or compiles the DAG; it then executes with no
  // session lock held and feeds the adaptive monitor. `ran`, when
  // non-null, receives the DAG that executed.
  Result<matrix::Matrix> RunPlan(
      std::shared_ptr<const PreparedPlan> plan, engine::ExecStats* stats,
      bool original, obs::SpanId parent = obs::kNoSpan,
      const exec::CancelToken* cancel = nullptr,
      std::shared_ptr<const exec::CompiledPlan>* ran = nullptr) const
      HADAD_EXCLUDES(views_mu_);
  // Profile-plans `expr` (kSmart's internal rewrites) and compiles it on
  // the session executor with the given fusion barriers, accumulating the
  // compiled-plans and fused-* counters: the compile of every query plan.
  Result<exec::CompiledPlan> CompileQuery(
      const la::ExprPtr& expr,
      const std::set<std::string>* fusion_barriers) const
      HADAD_REQUIRES_SHARED(views_mu_);
  // The physical DAG RunPlan executes, under a "dag_compile" span: for
  // rewrite.best the DAG cached in `plan` (compiled on first use, and
  // recompiled when a fused-away subexpression became a fusion barrier);
  // for the as-stated form (`as_stated`) a fresh compile of plan.original.
  Result<std::shared_ptr<const exec::CompiledPlan>> GetOrCompile(
      const PreparedPlan& plan, bool as_stated, obs::SpanId parent) const
      HADAD_REQUIRES_SHARED(views_mu_);
  // Backs PreparedQuery::ExplainAnalyze: executes the rewriting through
  // RunPlan with stats (and kernel spans when tracing) and renders the
  // measured report over the DAG that ran.
  Result<std::string> ExplainAnalyzePlan(
      std::shared_ptr<const PreparedPlan> plan) const
      HADAD_EXCLUDES(views_mu_);
  // Stamps a fresh query id + the query text onto a root "session" span
  // (no-op when tracing is off).
  void AnnotateRoot(const obs::ScopedSpan& root,
                    const std::string& query) const;

  // The workspace is multi-version (MVCC): mutations install new versions
  // under the unique views_mu_ hold; queries pin a snapshot under a shared
  // hold and then read it with no session lock at all (the Workspace's own
  // internal mutex guards only its epoch map and pin table). It is not
  // GUARDED_BY-annotated: its epoch/generation surface is read lock-free
  // (e.g. PlanFresh), and the public workspace() accessor hands out
  // read-only references. The annotated boundary is the view lists below.
  engine::Workspace workspace_;
  std::unique_ptr<pacb::Optimizer> optimizer_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<morpheus::MorpheusEngine> morpheus_;
  std::unique_ptr<exec::Executor> executor_;
  // User views in registration order (later definitions may reference
  // earlier names), for maintenance under mutation.
  std::vector<std::pair<std::string, la::ExprPtr>> user_views_
      HADAD_GUARDED_BY(views_mu_);
  // Names bound into Morpheus declarations (join members, normalized
  // matrices): immutable — the declared relationships would silently break.
  std::set<std::string> morpheus_names_ HADAD_GUARDED_BY(views_mu_);

  mutable common::SharedMutex cache_mu_;
  mutable std::unordered_map<std::string, std::shared_ptr<const PreparedPlan>>
      plan_cache_ HADAD_GUARDED_BY(cache_mu_);

  // One in-flight plan derivation; concurrent misses on the same canonical
  // text share it — the leader runs RW_find, followers wait on `cv` and
  // then re-read the cache (the serving-layer thundering-herd guard).
  // Never held together with cache_mu_ or views_mu_.
  struct PlanBuild {
    common::Mutex mu;
    common::CondVar cv;
    bool done HADAD_GUARDED_BY(mu) = false;
  };
  mutable common::Mutex builds_mu_;
  mutable std::unordered_map<std::string, std::shared_ptr<PlanBuild>>
      plan_builds_ HADAD_GUARDED_BY(builds_mu_);

  // Observability. The counter/gauge/histogram handles point into
  // metrics_, are registered once at Build() (docs/OBSERVABILITY.md
  // catalogs them; scripts/check_invariants.py diffs the two), and are
  // updated lock-free from any thread. SessionStats is a read view over
  // the counters. trace_ is null unless SessionBuilder::Tracing was called
  // — the disabled path is one null check per hook, no allocation.
  obs::MetricsRegistry metrics_;
  obs::Counter* prepares_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* coalesced_builds_ = nullptr;
  obs::Counter* chase_budget_exhausted_ = nullptr;
  obs::Counter* chase_stalled_ = nullptr;
  obs::Counter* runs_ = nullptr;
  obs::Counter* compiled_plans_ = nullptr;
  obs::Counter* as_stated_fallbacks_ = nullptr;
  obs::Counter* fused_nodes_ = nullptr;
  obs::Counter* fused_ops_eliminated_ = nullptr;
  obs::Counter* mutations_ = nullptr;
  // Mirrors engine::Workspace::RetiredTotal() into the exposition
  // (AdvanceTo CAS-max — concurrent MetricsText calls converge).
  obs::Counter* workspace_retired_ = nullptr;
  obs::Histogram* run_seconds_ = nullptr;
  obs::Histogram* prepare_seconds_ = nullptr;
  obs::Gauge* plan_cache_gauge_ = nullptr;
  obs::Gauge* threads_gauge_ = nullptr;
  obs::Gauge* adaptive_views_gauge_ = nullptr;
  obs::Gauge* adaptive_bytes_gauge_ = nullptr;
  obs::Gauge* adaptive_budget_gauge_ = nullptr;
  obs::Gauge* monitor_tracked_gauge_ = nullptr;
  obs::Gauge* kernel_tier_gauge_ = nullptr;
  obs::Gauge* workspace_versions_gauge_ = nullptr;
  obs::Gauge* pinned_snapshots_gauge_ = nullptr;
  std::unique_ptr<obs::TraceRecorder> trace_;
  // Monotone id stamped on root spans, so every span tree in a dumped
  // trace joins back to one top-level query.
  mutable std::atomic<int64_t> query_seq_{0};

  // The session state lock: views_mu_ guards the mutable session state
  // (optimizer facts and views — the one owner of leaf metadata, which
  // plan compilation and the view advisor also read — and the workspace's
  // live name→version binding). Optimization and plan compilation take it
  // shared; data mutation and view install/evict/refresh take it unique.
  // Query EXECUTION does not hold it at all: RunPlan pins an MVCC workspace
  // snapshot under a brief shared hold and runs lock-free against the
  // pinned versions — writers never block readers, and snapshot isolation
  // holds because pinned versions are immutable. view_generation_
  // increments on every view-set change; plans remember the generation they
  // were derived under (per-leaf data staleness is tracked separately via
  // workspace epochs).
  mutable common::SharedMutex views_mu_;
  mutable std::atomic<int64_t> view_generation_{0};
  // Declared last: destroyed first, joining background materializations
  // while the state they touch is still alive.
  std::unique_ptr<views::AdaptiveViewManager> adaptive_;
};

// Fluent configuration for a Session. Declare data, views, Morpheus joins,
// estimator/engine choices, and extra MMC constraints, then Build() turns
// them into a live Session (base data stays mutable through
// Session::Update/Append/Remove):
//
//   auto session = api::SessionBuilder()
//                      .Put("X", x).Put("y", y)
//                      .AddView("V", "inv(X)")
//                      .SetEstimator(pacb::EstimatorKind::kMnc)
//                      .Build();
//
// Configuration errors (bad view definitions, duplicate names, unknown
// Morpheus operands) are deferred to Build(), which returns the first
// failure as a Status. A builder is single-use: Build() consumes it.
class SessionBuilder {
 public:
  SessionBuilder() = default;

  // Binds matrix `name` in the session workspace (base data).
  SessionBuilder& Put(std::string name, matrix::Matrix m);

  // Registers a materialized view: `definition_text` is evaluated once at
  // Build() (materialized into the workspace) and registered with the
  // optimizer so rewritings may answer queries from it. Views may reference
  // earlier views.
  SessionBuilder& AddView(std::string name, std::string definition_text);

  // Declares m = [t | k u] so the Morpheus factorization rules fire on
  // expressions over `m` (§9.2). All four names must be bound.
  SessionBuilder& AddMorpheusJoin(pacb::MorpheusJoinDecl decl);

  // Registers `name` as a normalized (factorized) matrix. The DAG compiler
  // then pushes operators through the factorization where Morpheus's rules
  // allow (nm_* kernels) and materializes M for any other use.
  SessionBuilder& AddNormalizedMatrix(std::string name,
                                      morpheus::NormalizedMatrix nm);

  // Sizes the pool of the session's DAG engine (src/exec/): plans are
  // compiled to a physical operator DAG (CSE + blocked kernels + fusion)
  // and scheduled on a session-owned pool of `n` threads (0 = one per
  // hardware core). Without this call, or with n = 1, the pool has one
  // thread and plans run inline on the caller — same kernels, same bits.
  SessionBuilder& Threads(int n);

  // Turns on span tracing (src/obs/): Run/Prepare/mutations become root
  // spans with children for plan-cache lookups, rewrite derivation, DAG
  // compilation, per-operator kernel execution, and view maintenance —
  // exported as Chrome trace-event JSON via Session::DumpTrace. Without
  // this call the session has no recorder at all and every hook is a null
  // check.
  SessionBuilder& Tracing(obs::TraceOptions options = {});

  // Turns on the adaptive materialized-view subsystem (src/views/): the
  // session monitors executed plans, and subexpressions recomputed at least
  // `min_hits` times are materialized in the background (within
  // `budget_bytes`, with benefit-weighted eviction) and registered so later
  // rewrites answer from them — exactly like user views, no query changes.
  SessionBuilder& AdaptiveViews(int64_t budget_bytes, int64_t min_hits);
  // Full control (materialization mode, store caps, sweep width).
  SessionBuilder& AdaptiveViews(views::AdaptiveOptions options);

  // Sparsity estimator for the cost model γ (default: naive metadata).
  SessionBuilder& SetEstimator(pacb::EstimatorKind kind);
  // Execution profile (default: kNaive, run-as-stated).
  SessionBuilder& SetProfile(engine::Profile profile);
  // Full optimizer control (chase budgets, pruning, rewrite caps). A later
  // SetEstimator() still wins for the estimator field.
  SessionBuilder& SetOptimizerOptions(pacb::OptimizerOptions options);
  // Extends the MMC constraint knowledge base (§1's extensibility contract).
  SessionBuilder& AddConstraints(std::vector<chase::Constraint> constraints);

  Result<std::shared_ptr<Session>> Build();

 private:
  struct PendingView {
    std::string name;
    std::string text;
  };

  std::vector<std::pair<std::string, matrix::Matrix>> matrices_;
  std::vector<PendingView> views_;
  std::vector<pacb::MorpheusJoinDecl> morpheus_joins_;
  std::vector<std::pair<std::string, morpheus::NormalizedMatrix>> normalized_;
  std::vector<chase::Constraint> constraints_;
  pacb::OptimizerOptions options_;
  std::optional<pacb::EstimatorKind> estimator_;
  std::optional<int> exec_threads_;
  std::optional<views::AdaptiveOptions> adaptive_;
  std::optional<obs::TraceOptions> tracing_;
  engine::Profile profile_ = engine::Profile::kNaive;
  bool built_ = false;
};

}  // namespace hadad::api

#endif  // HADAD_API_SESSION_H_
