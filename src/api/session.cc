#include "api/session.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "common/mutex.h"
#include "common/timer.h"
#include "la/parser.h"
#include "matrix/simd.h"
#include "obs/explain.h"
#include "views/maintenance.h"

namespace hadad::api {

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

Result<matrix::Matrix> PreparedQuery::Execute(engine::ExecStats* stats) const {
  return session_->RunPlan(plan_, stats, /*original=*/false);
}

Result<matrix::Matrix> PreparedQuery::ExecuteOriginal(
    engine::ExecStats* stats) const {
  return session_->RunPlan(plan_, stats, /*original=*/true);
}

Result<std::string> PreparedQuery::ExplainAnalyze() const {
  return session_->ExplainAnalyzePlan(plan_);
}

std::string PreparedQuery::Explain() const {
  const pacb::RewriteResult& rw = plan_->rewrite;
  std::ostringstream out;
  out << "pipeline:  " << plan_->canonical << "\n";
  out << "  γ estimate " << rw.original_cost << "\n";
  if (rw.improved) {
    out << "rewriting: " << la::ToString(rw.best) << "\n";
    out << "  γ estimate " << rw.best_cost << "\n";
  } else {
    out << "rewriting: (already optimal as stated)\n";
  }
  out << "RW_find:   " << rw.optimize_seconds * 1e3 << " ms";
  out << "  (chase: " << rw.chase_stats.rounds << " rounds, "
      << rw.chase_stats.tgd_applications << " TGD applications, "
      << rw.chase_stats.facts_added << " facts, "
      << rw.chase_stats.pruned_applications << " pruned";
  if (rw.chase_stats.budget_exhausted) out << ", budget exhausted";
  if (rw.chase_stats.stalled) out << ", stalled";
  out << ")\n";
  out << "alternatives: " << rw.rewrites.size() << " equivalent rewriting"
      << (rw.rewrites.size() == 1 ? "" : "s") << "\n";
  constexpr size_t kMaxListed = 5;
  for (size_t i = 0; i < rw.rewrites.size() && i < kMaxListed; ++i) {
    out << "  " << (i + 1) << ". " << la::ToString(rw.rewrites[i]) << "\n";
  }
  if (rw.rewrites.size() > kMaxListed) {
    out << "  ... " << rw.rewrites.size() - kMaxListed << " more\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

bool Session::PlanFresh(const PreparedPlan& plan) const {
  if (plan.generation != view_generation_.load(std::memory_order_acquire)) {
    return false;
  }
  const int64_t gen = workspace_.generation();
  if (plan.verified_generation.load(std::memory_order_acquire) == gen) {
    return true;
  }
  // The workspace moved since the last verification — but only mutations of
  // the plan's own leaves matter. Re-verify per leaf and restore the fast
  // path (stamping the pre-check generation: a mutation racing the check
  // forces one more per-leaf pass, never a wrong hit).
  if (!workspace_.StampCurrent(plan.leaf_stamp)) return false;
  plan.verified_generation.store(gen, std::memory_order_release);
  return true;
}

Result<std::shared_ptr<const PreparedPlan>> Session::GetOrBuildPlan(
    const std::string& text, bool* from_cache, obs::SpanId parent) const {
  HADAD_ASSIGN_OR_RETURN(la::ExprPtr expr, la::ParseExpression(text));
  std::string canonical = la::ToString(expr);
  for (;;) {
    {
      obs::ScopedSpan lookup(trace_.get(), "plan_cache_lookup", "cache",
                             parent);
      common::ReaderMutexLock lock(&cache_mu_);
      auto it = plan_cache_.find(canonical);
      if (it != plan_cache_.end()) {
        if (PlanFresh(*it->second)) {
          lookup.Annotate("outcome", "hit");
          cache_hits_->Inc();
          *from_cache = true;
          return it->second;
        }
        lookup.Annotate("outcome", "stale");
      } else {
        lookup.Annotate("outcome", "miss");
      }
    }
    // Join or lead the in-flight derivation of this canonical text. Without
    // coalescing, N clients missing on the same expression each pay the
    // full RW_find only for first-insertion-wins to discard N-1 results —
    // the serving-layer thundering herd.
    std::shared_ptr<PlanBuild> build;
    bool leader = false;
    {
      common::MutexLock lock(&builds_mu_);
      auto [it, inserted] = plan_builds_.try_emplace(canonical, nullptr);
      if (inserted) {
        it->second = std::make_shared<PlanBuild>();
        leader = true;
      }
      build = it->second;
    }
    if (!leader) {
      // Wait for the leader, then re-run the lookup: normally a fresh hit;
      // after a leader failure (or staleness) this thread leads a new lap.
      obs::ScopedSpan wait(trace_.get(), "plan_build_wait", "cache", parent);
      coalesced_builds_->Inc();
      common::MutexLock lock(&build->mu);
      while (!build->done) build->cv.wait(lock);
      continue;
    }
    cache_misses_->Inc();
    Result<std::shared_ptr<const PreparedPlan>> built =
        BuildAndInsertPlan(std::move(expr), canonical, parent);
    {
      common::MutexLock lock(&builds_mu_);
      plan_builds_.erase(canonical);
    }
    {
      common::MutexLock lock(&build->mu);
      build->done = true;
    }
    build->cv.notify_all();
    *from_cache = false;
    return built;
  }
}

Result<std::shared_ptr<const PreparedPlan>> Session::BuildAndInsertPlan(
    la::ExprPtr expr, std::string canonical, obs::SpanId parent) const {
  auto plan = std::make_shared<PreparedPlan>();
  // Optimize outside the cache lock: RW_find dominates, and concurrent
  // misses on different expressions must not serialize. The state lock is
  // held shared so neither views nor data can move mid-optimize — the
  // generation and leaf epochs stamped below are exactly what the rewrite
  // was derived against.
  {
    obs::ScopedSpan derive(trace_.get(), "plan_derivation", "plan", parent);
    common::ReaderMutexLock state(&views_mu_);
    Result<pacb::RewriteResult> rewrite = optimizer_->Optimize(expr);
    if (!rewrite.ok()) return rewrite.status();
    plan->rewrite = std::move(rewrite).value();
    const chase::ChaseStats& chased = plan->rewrite.chase_stats;
    if (chased.budget_exhausted) chase_budget_exhausted_->Inc();
    if (chased.stalled) chase_stalled_->Inc();
    if (derive.active()) {
      derive.Annotate("canonical", canonical);
      derive.Annotate("improved",
                      plan->rewrite.improved ? "true" : "false");
      derive.Annotate("optimize_seconds", plan->rewrite.optimize_seconds);
      derive.Annotate("chase_rounds", static_cast<int64_t>(chased.rounds));
      derive.Annotate("chase_tgd_applications", chased.tgd_applications);
      derive.Annotate("chase_facts_added", chased.facts_added);
      derive.Annotate("chase_merges", chased.merges);
      derive.Annotate("chase_pruned_applications",
                      chased.pruned_applications);
      derive.Annotate("chase_budget_exhausted",
                      static_cast<int64_t>(chased.budget_exhausted));
      derive.Annotate("chase_stalled", static_cast<int64_t>(chased.stalled));
    }
    plan->generation = view_generation_.load(std::memory_order_acquire);
    std::set<std::string> leaves;
    la::CollectMatrixRefs(*expr, &leaves);
    la::CollectMatrixRefs(*plan->rewrite.best, &leaves);
    plan->leaf_stamp = workspace_.StampFor(
        std::vector<std::string>(leaves.begin(), leaves.end()));
    plan->verified_generation.store(plan->leaf_stamp.generation,
                                    std::memory_order_release);
  }
  prepare_seconds_->Observe(plan->rewrite.optimize_seconds);
  plan->canonical = std::move(canonical);
  plan->original = std::move(expr);
  prepares_->Inc();
  common::WriterMutexLock lock(&cache_mu_);
  // Coalescing keeps duplicate derivations of one expression out, but a
  // stale resident plan may still sit here from an earlier generation;
  // first insertion wins so every holder shares one plan — unless the
  // resident plan is stale (older view generation or moved leaf epochs),
  // which ours supersedes.
  auto [it, inserted] = plan_cache_.try_emplace(plan->canonical, plan);
  if (!inserted && it->second != plan &&
      (it->second->generation < plan->generation ||
       !workspace_.StampCurrent(it->second->leaf_stamp))) {
    it->second = plan;
  }
  return it->second;
}

Result<exec::CompiledPlan> Session::CompileQuery(
    const la::ExprPtr& expr) const {
  // Respect the profile (kSmart applies its internal rewrites before
  // execution), then hand the plan to the DAG engine.
  la::ExprPtr planned = expr;
  if (profile_ == engine::Profile::kSmart) {
    HADAD_ASSIGN_OR_RETURN(
        planned, engine::ApplySmartRewrites(expr, optimizer_->catalog()));
  }
  const cost::LeafMetaFn leaf_meta = optimizer_->LeafResolver();
  HADAD_ASSIGN_OR_RETURN(
      exec::CompiledPlan compiled,
      executor_->Compile(planned, workspace_, &leaf_meta));
  compiled_plans_->Inc();
  fused_nodes_->Inc(compiled.fused_nodes);
  fused_ops_eliminated_->Inc(compiled.fused_ops_eliminated);
  return compiled;
}

Result<std::shared_ptr<const exec::CompiledPlan>> Session::GetOrCompile(
    const PreparedPlan& plan, bool as_stated, obs::SpanId parent) const {
  obs::ScopedSpan compile(trace_.get(), "dag_compile", "compile", parent);
  const auto annotate = [&compile](const exec::CompiledPlan& compiled,
                                   const char* cached) {
    if (!compile.active()) return;
    compile.Annotate("cached", cached);
    compile.Annotate("plan_nodes",
                     static_cast<int64_t>(compiled.nodes.size()));
    compile.Annotate("cse_hits", compiled.cse_hits);
    compile.Annotate("fused_nodes", compiled.fused_nodes);
    compile.Annotate("fused_ops_eliminated", compiled.fused_ops_eliminated);
  };
  if (as_stated) {
    // The as-stated form compiles per execution; only rewrite.best has a
    // resident DAG.
    HADAD_ASSIGN_OR_RETURN(exec::CompiledPlan compiled,
                           CompileQuery(plan.original));
    annotate(compiled, "false");
    return std::make_shared<const exec::CompiledPlan>(std::move(compiled));
  }
  {
    common::MutexLock lock(&plan.compile_mu);
    if (plan.compiled != nullptr) {
      annotate(*plan.compiled, "true");
      return plan.compiled;
    }
  }
  HADAD_ASSIGN_OR_RETURN(exec::CompiledPlan compiled,
                         CompileQuery(plan.rewrite.best));
  common::MutexLock lock(&plan.compile_mu);
  // First insertion wins, so concurrent first runs share one DAG.
  if (plan.compiled == nullptr) {
    plan.compiled =
        std::make_shared<const exec::CompiledPlan>(std::move(compiled));
  }
  annotate(*plan.compiled, "false");
  return plan.compiled;
}

Result<matrix::Matrix> Session::RunPlan(
    std::shared_ptr<const PreparedPlan> plan, engine::ExecStats* stats,
    bool original, obs::SpanId parent, const exec::CancelToken* cancel,
    std::shared_ptr<const exec::CompiledPlan>* ran) const {
  // Calls arriving without an enclosing span (PreparedQuery::Execute) get
  // their own root; Session::Run passes its "Run" span instead.
  obs::ScopedSpan root(parent == obs::kNoSpan ? trace_.get() : nullptr,
                       original ? "ExecuteOriginal" : "Execute", "session");
  if (root.active()) AnnotateRoot(root, plan->canonical);
  const obs::SpanId span = root.active() ? root.id() : parent;

  // A plan derived before the last view install/evict or data mutation may
  // reference a gone view or carry kernels chosen for stale shapes:
  // re-derive through the cache, bounded in case the state keeps churning.
  constexpr int kMaxAttempts = 3;
  for (int attempt = 0;; ++attempt) {
    if (!original && !PlanFresh(*plan)) {
      bool from_cache = false;
      auto fresh = GetOrBuildPlan(plan->canonical, &from_cache, span);
      if (fresh.ok()) plan = std::move(*fresh);
    }
    bool as_stated = original;
    // The pinned MVCC snapshot and the physical plan, prepared under the
    // shared hold and consumed lock-free below.
    engine::SnapshotPtr snapshot;
    Result<std::shared_ptr<const exec::CompiledPlan>> compiled =
        Status::Internal("plan not compiled");
    {
      common::ReaderMutexLock state(&views_mu_);
      // Under the shared lock neither the view set nor the live data
      // binding can move: the freshness verdict, the pinned snapshot, and
      // the compiled plan below all describe the same state.
      const bool stale = !original && !PlanFresh(*plan);
      if (stale && attempt + 1 < kMaxAttempts) continue;
      // Extreme-churn fallback: the original expression references only
      // session-durable names, so it executes against the current data.
      if (stale) as_stated_fallbacks_->Inc();
      as_stated = original || stale;
      snapshot = workspace_.PinSnapshot();
      compiled = GetOrCompile(*plan, as_stated, span);
    }
    // Lock-free execution against the pinned snapshot: leaf loads resolve
    // to the pinned immutable versions, so writers proceed concurrently and
    // never block this query. Normalized matrices are immutable session
    // state, read by the nm_* kernels directly.
    Result<matrix::Matrix> result = compiled.status();
    if (compiled.ok()) {
      const obs::TraceContext ctx{trace_.get(), span};
      result =
          executor_->RunCompiled(**compiled, *snapshot, stats, &ctx, cancel);
      if (ran != nullptr) *ran = *compiled;
    }
    // Unpin before adaptive propagation: OnExecution may schedule work that
    // takes the state lock, and the snapshot's versions are done serving.
    snapshot.reset();
    if (adaptive_ != nullptr && !original && result.ok()) {
      // OnExecution takes the state lock itself, hence outside the scope.
      adaptive_->OnExecution(as_stated ? plan->original : plan->rewrite.best);
    }
    return result;
  }
}

void Session::AnnotateRoot(const obs::ScopedSpan& root,
                           const std::string& query) const {
  if (!root.active()) return;
  root.Annotate("query", query);
  root.Annotate("query_id",
                query_seq_.fetch_add(1, std::memory_order_relaxed));
}

Result<PreparedQuery> Session::Prepare(const std::string& text) const {
  obs::ScopedSpan root(trace_.get(), "Prepare", "session");
  AnnotateRoot(root, text);
  bool from_cache = false;
  HADAD_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedPlan> plan,
                         GetOrBuildPlan(text, &from_cache, root.id()));
  return PreparedQuery(shared_from_this(), std::move(plan), from_cache);
}

Result<matrix::Matrix> Session::Run(const std::string& text,
                                    engine::ExecStats* stats) const {
  return RunCancellable(text, /*cancel=*/nullptr, /*client=*/"", stats);
}

Result<matrix::Matrix> Session::RunCancellable(
    const std::string& text, const exec::CancelToken* cancel,
    const std::string& client, engine::ExecStats* stats) const {
  obs::ScopedSpan root(trace_.get(), "Run", "session");
  AnnotateRoot(root, text);
  if (!client.empty()) root.Annotate("client", client);
  // A request that spent its whole deadline queued (or was cancelled while
  // waiting) fails before paying for optimization.
  if (cancel != nullptr) HADAD_RETURN_IF_ERROR(cancel->CheckProceed());
  Timer timer;
  bool from_cache = false;
  HADAD_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedPlan> plan,
                         GetOrBuildPlan(text, &from_cache, root.id()));
  runs_->Inc();
  Result<matrix::Matrix> result = RunPlan(std::move(plan), stats,
                                          /*original=*/false, root.id(),
                                          cancel);
  run_seconds_->Observe(timer.ElapsedSeconds());
  return result;
}

Result<std::string> Session::ExplainAnalyzePlan(
    std::shared_ptr<const PreparedPlan> plan) const {
  obs::ScopedSpan root(trace_.get(), "ExplainAnalyze", "session");
  AnnotateRoot(root, plan->canonical);
  engine::ExecStats stats;
  std::shared_ptr<const exec::CompiledPlan> compiled;
  HADAD_ASSIGN_OR_RETURN(matrix::Matrix value,
                         RunPlan(std::move(plan), &stats, /*original=*/false,
                                 root.id(), /*cancel=*/nullptr, &compiled));
  (void)value;
  return obs::RenderExplainAnalyze(*compiled, stats);
}

void Session::WaitForAdaptiveViews() const {
  if (adaptive_ != nullptr) adaptive_->Drain();
}

// ---------------------------------------------------------------------------
// Mutable data layer
// ---------------------------------------------------------------------------

namespace {

// Prefix of the workspace names a batch's appended rows ride under while
// user-view deltas evaluate, one entry per appended leaf (reserved; never
// visible to queries — each exists only inside the unique state lock).
constexpr char kUserDeltaPrefix[] = "__delta_rows_";

// What the session registers with the optimizer for a stored matrix: its
// shape. The optimizer reads nnz (and MNC histograms) from the bound
// version itself, on first use.
la::MatrixMeta ShapeOf(const matrix::Matrix& m) {
  la::MatrixMeta meta;
  meta.rows = m.rows();
  meta.cols = m.cols();
  return meta;
}

bool ReferencesAny(const la::Expr& e, const std::set<std::string>& names) {
  std::set<std::string> leaves;
  la::CollectMatrixRefs(e, &leaves);
  for (const std::string& leaf : leaves) {
    if (names.contains(leaf)) return true;
  }
  return false;
}

}  // namespace

Status Session::Update(const std::string& name, matrix::Matrix m) {
  return MutateOne("Update", Mutation::Update(name, std::move(m)));
}

Status Session::Append(const std::string& name, const matrix::Matrix& rows) {
  return MutateOne("Append", Mutation::Append(name, rows));
}

Status Session::Remove(const std::string& name) {
  return MutateOne("Remove", Mutation::Remove(name));
}

Status Session::Put(const std::string& name, matrix::Matrix m) {
  return MutateOne("Put", Mutation::Put(name, std::move(m)));
}

Status Session::MutateOne(const char* span_name, Mutation mutation) {
  obs::ScopedSpan root(trace_.get(), span_name, "session");
  root.Annotate("name", mutation.name);
  std::vector<Mutation> batch;
  batch.push_back(std::move(mutation));
  common::WriterMutexLock state(&views_mu_);
  return MutateBatchLocked(&batch, root.id());
}

Status Session::Mutate(std::vector<Mutation> mutations) {
  if (mutations.empty()) return Status::OK();
  obs::ScopedSpan root(trace_.get(), "Mutate", "session");
  root.Annotate("batch_size", static_cast<int64_t>(mutations.size()));
  common::WriterMutexLock state(&views_mu_);
  return MutateBatchLocked(&mutations, root.id());
}

Status Session::MutateBatchLocked(std::vector<Mutation>* mutations,
                                  obs::SpanId parent) {
  // A one-entry batch (a public mutator call, or a one-entry Mutate) reports
  // validation errors without a batch index.
  const bool single = mutations->size() == 1;
  // --- Validation against a simulated catalog: nothing is applied until
  //     the whole batch is known to leave every layer well-defined.
  //     Entries apply in order, so the simulation threads state through
  //     them (a Put can introduce a name a later Append grows). ----------
  la::MetaCatalog trial = optimizer_->catalog();
  std::set<std::string> trial_changed;
  std::map<std::string, int> entries;  // Batch entries per name.
  for (size_t i = 0; i < mutations->size(); ++i) {
    const Mutation& m = (*mutations)[i];
    const std::string at =
        single ? "" : "Mutate[" + std::to_string(i) + "]: ";
    ++entries[m.name];
    if (morpheus_names_.contains(m.name)) {
      return Status::InvalidArgument(
          at + "'" + m.name + "' is bound into a Morpheus declaration; "
          "declared factorizations are immutable");
    }
    for (const auto& [vname, def] : user_views_) {
      if (vname == m.name) {
        return Status::InvalidArgument(
            at + "'" + m.name + "' is a view; views are derived — mutate "
            "the base matrices their definitions reference");
      }
    }
    if (adaptive_ != nullptr && adaptive_->IsAdaptiveViewName(m.name)) {
      return Status::InvalidArgument(
          at + "'" + m.name +
          "' is an adaptive view; mutate base matrices instead");
    }
    const bool exists = trial.contains(m.name);
    switch (m.op) {
      case Mutation::Op::kPut:
        if (m.name.empty()) {
          return Status::InvalidArgument(
              at + "cannot bind a matrix with an empty name");
        }
        if (m.name.rfind("__delta", 0) == 0) {
          return Status::InvalidArgument(
              at + "name '" + m.name +
              "' uses the reserved '__delta' prefix");
        }
        trial[m.name].rows = m.value.rows();
        trial[m.name].cols = m.value.cols();
        trial[m.name].nnz = -1.0;
        trial_changed.insert(m.name);
        break;
      case Mutation::Op::kUpdate:
        if (!exists) {
          return Status::NotFound(at + "no matrix named '" + m.name +
                                  "' in workspace");
        }
        trial[m.name].rows = m.value.rows();
        trial[m.name].cols = m.value.cols();
        trial[m.name].nnz = -1.0;
        trial_changed.insert(m.name);
        break;
      case Mutation::Op::kAppend:
        if (!exists) {
          return Status::NotFound(at + "no matrix named '" + m.name +
                                  "' in workspace");
        }
        if (m.value.cols() != trial[m.name].cols) {
          return Status::DimensionMismatch(
              at + "cannot append " + std::to_string(m.value.rows()) + "x" +
              std::to_string(m.value.cols()) + " rows to '" + m.name +
              "' (" + std::to_string(trial[m.name].rows) + "x" +
              std::to_string(trial[m.name].cols) + ")");
        }
        trial[m.name].rows += m.value.rows();
        trial_changed.insert(m.name);
        break;
      case Mutation::Op::kRemove:
        if (!exists) {
          return Status::NotFound(at + "no matrix named '" + m.name +
                                  "' in workspace");
        }
        for (const auto& [vname, def] : user_views_) {
          if (la::ReferencesMatrix(*def, m.name)) {
            return Status::InvalidArgument(at + "cannot remove '" + m.name +
                                           "': view '" + vname +
                                           "' references it");
          }
        }
        trial.erase(m.name);
        trial_changed.insert(m.name);
        break;
    }
  }
  // Dry-run shape inference over the post-batch catalog: every dependent
  // user view must stay well-typed, cascading through views over views.
  for (const auto& [vname, def] : user_views_) {
    if (!ReferencesAny(*def, trial_changed)) continue;
    Result<la::MatrixMeta> shape = la::InferShape(*def, trial);
    if (!shape.ok()) {
      return Status::InvalidArgument("mutation breaks view '" + vname +
                                     "': " + shape.status().message());
    }
    trial[vname] = std::move(shape).value();
    trial_changed.insert(vname);
  }

  // --- Apply every base mutation, journaling what a rollback needs (the
  //     shape dry-run cannot catch value-level refresh failures). Each
  //     install is one MVCC version: in-flight readers keep their pinned
  //     versions and never see the batch half-applied. -------------------
  std::vector<BaseChange> journal;
  journal.reserve(mutations->size());
  views::DataChange change;
  std::vector<RefreshedView> refreshed;  // In registration order.
  std::vector<std::string> staged;       // Delta rows staged for user views.

  for (size_t i = 0; i < mutations->size(); ++i) {
    Mutation& m = (*mutations)[i];
    BaseChange c;
    c.op = m.op;
    c.name = m.name;
    switch (m.op) {
      case Mutation::Op::kUpdate:
      case Mutation::Op::kPut:
        c.old_version = workspace_.Take(m.name);
        workspace_.Put(m.name, std::move(m.value));
        break;
      case Mutation::Op::kAppend: {
        c.old_rows = workspace_.Find(m.name)->rows();
        Status appended = workspace_.Append(m.name, m.value);
        if (!appended.ok()) {
          RollbackBatch(&journal, &refreshed, staged);
          return appended;
        }
        break;
      }
      case Mutation::Op::kRemove:
        c.old_version = workspace_.Take(m.name);
        (void)optimizer_->RemoveBaseMeta(m.name);
        break;
    }
    // A Put that introduced the name has no prior version.
    const bool added =
        m.op == Mutation::Op::kPut && !c.old_version.has_value();
    journal.push_back(std::move(c));
    if (m.op == Mutation::Op::kAppend && entries[m.name] == 1) {
      change.appended.emplace(m.name, &m.value);  // Append keeps its rows.
    } else {
      change.changed.insert(m.name);
    }
    if (m.op != Mutation::Op::kRemove) {
      const la::MatrixMeta meta = ShapeOf(*workspace_.Find(m.name));
      Status registered = added ? optimizer_->AddBaseMeta(m.name, meta)
                                : optimizer_->UpdateBaseMeta(m.name, meta);
      if (!registered.ok()) {
        RollbackBatch(&journal, &refreshed, staged);
        return registered;
      }
    }
  }

  // --- ONE view-refresh wave over the whole batch, in registration order.
  //     views::PlanRefresh picks delta or full per view; each refreshed
  //     view joins `changed`, so views over it recompute in full. --------
  for (const auto& [vname, def] : user_views_) {
    const views::RefreshPlan plan =
        views::PlanRefresh(def, change, kUserDeltaPrefix);
    if (plan.mode == views::RefreshMode::kUntouched) continue;
    obs::ScopedSpan refresh(trace_.get(), "view_refresh", "views", parent);
    refresh.Annotate("view", vname);
    refresh.Annotate(
        "mode", plan.mode == views::RefreshMode::kDelta ? "delta" : "full");
    Result<matrix::Matrix> fresh =
        ComputeViewRefresh(vname, def, plan, change, &staged);
    if (!fresh.ok()) {
      RollbackBatch(&journal, &refreshed, staged);
      return Status(fresh.status().code(),
                    "refreshing view '" + vname + "': " +
                        fresh.status().message() + " (rolled back)");
    }
    refreshed.push_back(RefreshedView{vname, def, *workspace_.Take(vname)});
    workspace_.Put(vname, std::move(*fresh));
    Status reregistered = optimizer_->RemoveView(vname);
    if (reregistered.ok()) reregistered = optimizer_->AddView(vname, def);
    if (!reregistered.ok()) {
      RollbackBatch(&journal, &refreshed, staged);
      return Status(reregistered.code(),
                    "re-registering view '" + vname + "': " +
                        reregistered.message() + " (rolled back)");
    }
    change.changed.insert(vname);
  }
  for (const std::string& name : staged) workspace_.Erase(name);

  // --- ONE adaptive propagation for the whole batch. --------------------
  if (adaptive_ != nullptr) {
    obs::ScopedSpan propagate(trace_.get(), "mutation_propagation", "views",
                              parent);
    adaptive_->OnDataMutation(change);
  }
  mutations_->Inc(static_cast<int64_t>(mutations->size()));
  return Status::OK();
}

void Session::RollbackBatch(std::vector<BaseChange>* journal,
                            std::vector<RefreshedView>* refreshed,
                            const std::vector<std::string>& staged) {
  for (const std::string& name : staged) workspace_.Erase(name);
  // Restore every workspace entry first — refreshed views, then bases in
  // reverse journal order so repeated mutations of one name unwind to the
  // pre-batch state. A restored version keeps its epoch, so plans stamped
  // before the batch stay fresh.
  for (RefreshedView& v : *refreshed) {
    workspace_.Restore(v.name, std::move(v.old_version));
  }
  for (auto it = journal->rbegin(); it != journal->rend(); ++it) {
    if (it->op == Mutation::Op::kAppend) {
      matrix::Matrix grown = *workspace_.Find(it->name);
      (void)matrix::TruncateRows(&grown, it->old_rows);
      workspace_.Put(it->name, std::move(grown));
    } else if (it->old_version.has_value()) {
      workspace_.Restore(it->name, std::move(*it->old_version));
    } else {
      workspace_.Erase(it->name);  // A Put that introduced the name.
    }
  }
  // Re-register the restored shapes.
  for (const BaseChange& c : *journal) {
    const matrix::Matrix* cur = workspace_.Find(c.name);
    if (cur == nullptr) {
      // A rolled-back Put: the name is gone again.
      (void)optimizer_->RemoveBaseMeta(c.name);
      continue;
    }
    const la::MatrixMeta meta = ShapeOf(*cur);
    if (!optimizer_->UpdateBaseMeta(c.name, meta).ok()) {
      (void)optimizer_->AddBaseMeta(c.name, meta);  // Restored removal.
    }
  }
  // Re-register views in forward registration order, as Build() did.
  for (const RefreshedView& v : *refreshed) {
    (void)optimizer_->RemoveView(v.name);
    (void)optimizer_->AddView(v.name, v.def);
  }
}

Result<matrix::Matrix> Session::ComputeViewRefresh(
    const std::string& vname, const la::ExprPtr& def,
    const views::RefreshPlan& plan, const views::DataChange& change,
    std::vector<std::string>* staged) {
  const cost::LeafMetaFn leaf_meta = optimizer_->LeafResolver();
  if (plan.mode == views::RefreshMode::kDelta) {
    // The appended rows are staged once per leaf, not once per view. They
    // are the one leaf the optimizer does not know: the compiler counts
    // them from the workspace.
    if (workspace_.Find(plan.delta_name) == nullptr) {
      workspace_.Put(plan.delta_name, *change.appended.at(plan.leaf));
      staged->push_back(plan.delta_name);
    }
    Result<matrix::Matrix> delta = executor_->Run(
        plan.delta, workspace_, /*stats=*/nullptr, &leaf_meta);
    if (delta.ok()) return matrix::Add(*workspace_.Find(vname), *delta);
  }
  return executor_->Run(def, workspace_, /*stats=*/nullptr, &leaf_meta);
}

SessionStats Session::stats() const {
  SessionStats s;
  s.prepares = prepares_->Value();
  s.cache_hits = cache_hits_->Value();
  s.cache_misses = cache_misses_->Value();
  s.plan_builds_coalesced = coalesced_builds_->Value();
  s.runs = runs_->Value();
  s.compiled_plans = compiled_plans_->Value();
  s.fused_nodes = fused_nodes_->Value();
  s.fused_ops_eliminated = fused_ops_eliminated_->Value();
  s.data_mutations = mutations_->Value();
  if (adaptive_ != nullptr) {
    views::AdaptiveViewStats a = adaptive_->stats();
    s.adaptive_views_created = a.views_created;
    s.adaptive_views_evicted = a.views_evicted;
    s.adaptive_views_invalidated = a.views_invalidated;
    s.adaptive_views_refreshed = a.views_refreshed;
    s.adaptive_view_hit_runs = a.view_hit_runs;
    s.adaptive_bytes_in_use = a.bytes_in_use;
    s.adaptive_budget_bytes = a.budget_bytes;
  }
  return s;
}

std::string Session::MetricsText() const {
  // Gauges describe point-in-time levels; refresh them from live state so
  // the rendered exposition is coherent as of this call.
  plan_cache_gauge_->Set(static_cast<double>(plan_cache_size()));
  threads_gauge_->Set(static_cast<double>(executor_->threads()));
  workspace_versions_gauge_->Set(
      static_cast<double>(workspace_.LiveVersions()));
  pinned_snapshots_gauge_->Set(
      static_cast<double>(workspace_.PinnedSnapshots()));
  // The retirement count lives in the workspace; AdvanceTo mirrors it
  // without a delta race between concurrent scrapes.
  workspace_retired_->AdvanceTo(workspace_.RetiredTotal());
  if (adaptive_ != nullptr) {
    views::AdaptiveViewStats a = adaptive_->stats();
    adaptive_views_gauge_->Set(
        static_cast<double>(adaptive_->StoredViews().size()));
    adaptive_bytes_gauge_->Set(static_cast<double>(a.bytes_in_use));
    adaptive_budget_gauge_->Set(static_cast<double>(a.budget_bytes));
    monitor_tracked_gauge_->Set(
        static_cast<double>(adaptive_->MonitorTrackedCount()));
  }
  return metrics_.Render();
}

Status Session::DumpTrace(const std::string& path) const {
  if (trace_ == nullptr) {
    return Status::InvalidArgument(
        "tracing is not enabled; build the session with "
        "SessionBuilder::Tracing()");
  }
  return trace_->WriteChromeTrace(path);
}

int64_t Session::plan_cache_size() const {
  common::ReaderMutexLock lock(&cache_mu_);
  return static_cast<int64_t>(plan_cache_.size());
}

void Session::ClearPlanCache() {
  common::WriterMutexLock lock(&cache_mu_);
  plan_cache_.clear();
}

// ---------------------------------------------------------------------------
// SessionBuilder
// ---------------------------------------------------------------------------

SessionBuilder& SessionBuilder::Put(std::string name, matrix::Matrix m) {
  matrices_.emplace_back(std::move(name), std::move(m));
  return *this;
}

SessionBuilder& SessionBuilder::AddView(std::string name,
                                        std::string definition_text) {
  views_.push_back(PendingView{std::move(name), std::move(definition_text)});
  return *this;
}

SessionBuilder& SessionBuilder::AddMorpheusJoin(pacb::MorpheusJoinDecl decl) {
  morpheus_joins_.push_back(std::move(decl));
  return *this;
}

SessionBuilder& SessionBuilder::AddNormalizedMatrix(
    std::string name, morpheus::NormalizedMatrix nm) {
  normalized_.emplace_back(std::move(name), std::move(nm));
  return *this;
}

SessionBuilder& SessionBuilder::Threads(int n) {
  exec_threads_ = n;
  return *this;
}

SessionBuilder& SessionBuilder::AdaptiveViews(int64_t budget_bytes,
                                              int64_t min_hits) {
  adaptive_budget_bytes_ = budget_bytes;
  adaptive_min_hits_ = min_hits;
  return *this;
}

SessionBuilder& SessionBuilder::Tracing(obs::TraceOptions options) {
  tracing_ = options;
  return *this;
}

SessionBuilder& SessionBuilder::SetEstimator(pacb::EstimatorKind kind) {
  estimator_ = kind;
  return *this;
}

SessionBuilder& SessionBuilder::SetProfile(engine::Profile profile) {
  profile_ = profile;
  return *this;
}

SessionBuilder& SessionBuilder::SetOptimizerOptions(
    pacb::OptimizerOptions options) {
  options_ = options;
  return *this;
}

SessionBuilder& SessionBuilder::AddConstraints(
    std::vector<chase::Constraint> constraints) {
  for (chase::Constraint& c : constraints) {
    constraints_.push_back(std::move(c));
  }
  return *this;
}

Result<std::shared_ptr<Session>> SessionBuilder::Build() {
  if (built_) {
    return Status::InvalidArgument(
        "SessionBuilder::Build() already called; builders are single-use");
  }
  built_ = true;

  // Every bound name — base matrix, view, normalized matrix — must be
  // distinct; catching collisions here beats a confusing late failure.
  std::set<std::string> names;
  auto claim = [&names](const std::string& name,
                        const char* what) -> Status {
    if (name.empty()) {
      return Status::InvalidArgument(std::string(what) + " with empty name");
    }
    if (name.rfind("__delta", 0) == 0) {
      // Reserved for the incremental-refresh machinery: the appended rows
      // ride in the workspace under these names while a delta evaluates.
      return Status::InvalidArgument(std::string(what) + " name '" + name +
                                     "' uses the reserved '__delta' prefix");
    }
    if (!names.insert(name).second) {
      return Status::InvalidArgument("name '" + name +
                                     "' bound more than once in the session");
    }
    return Status::OK();
  };
  for (const auto& [name, m] : matrices_) {
    HADAD_RETURN_IF_ERROR(claim(name, "matrix"));
  }
  for (const PendingView& v : views_) {
    HADAD_RETURN_IF_ERROR(claim(v.name, "view"));
  }
  for (const auto& [name, nm] : normalized_) {
    HADAD_RETURN_IF_ERROR(claim(name, "normalized matrix"));
  }

  auto session = std::shared_ptr<Session>(new Session());
  Session* raw = session.get();
  if (tracing_.has_value()) {
    raw->trace_ = std::make_unique<obs::TraceRecorder>(*tracing_);
  }
  // Metric registration happens exactly once, here, before any handle is
  // used; docs/OBSERVABILITY.md catalogs these names and
  // scripts/check_invariants.py diffs the catalog against this code.
  {
    obs::MetricsRegistry& m = raw->metrics_;
    raw->prepares_ = m.AddCounter("hadad_session_prepares_total",
        "Optimizer invocations (each pays RW_find). Unit: calls.");
    raw->cache_hits_ = m.AddCounter("hadad_session_plan_cache_hits_total",
        "Prepare/Run calls answered from the plan cache. Unit: calls.");
    raw->cache_misses_ = m.AddCounter("hadad_session_plan_cache_misses_total",
        "Prepare/Run calls that missed or found a stale plan. Unit: calls.");
    raw->coalesced_builds_ =
        m.AddCounter("hadad_session_plan_builds_coalesced_total",
        "Misses that waited for an in-flight derivation of the same "
        "expression instead of duplicating RW_find. Unit: calls.");
    raw->chase_budget_exhausted_ =
        m.AddCounter("hadad_chase_budget_exhausted_total",
        "Plan derivations whose chase stopped at its fact or node budget "
        "(the best rewriting found so far is used). Unit: derivations.");
    raw->chase_stalled_ = m.AddCounter("hadad_chase_stalled_total",
        "Plan derivations whose chase the optimizer ended because rounds "
        "stopped lowering the goal's best cost. Unit: derivations.");
    raw->runs_ = m.AddCounter("hadad_session_runs_total",
        "Session::Run invocations. Unit: calls.");
    raw->compiled_plans_ = m.AddCounter("hadad_session_compiled_plans_total",
        "Physical-DAG compilations of query plans (view definitions do not "
        "count). Unit: plans.");
    raw->as_stated_fallbacks_ =
        m.AddCounter("hadad_session_as_stated_fallbacks_total",
        "Executions served as stated because writes kept the rewritten plan "
        "stale through every re-derivation attempt. Unit: calls.");
    raw->fused_nodes_ = m.AddCounter("hadad_session_fused_nodes_total",
        "Plan nodes fusing several logical operators. Unit: nodes.");
    raw->fused_ops_eliminated_ =
        m.AddCounter("hadad_session_fused_ops_eliminated_total",
        "Operator nodes eliminated by fusion. Unit: nodes.");
    raw->mutations_ = m.AddCounter("hadad_session_mutations_total",
        "Mutation entries applied by successful Update/Append/Remove/Put "
        "calls (Mutate batches count per entry). Unit: mutations.");
    raw->workspace_retired_ = m.AddCounter("hadad_workspace_retired_total",
        "Matrix versions retired by MVCC mutations since session build "
        "(refreshed on scrape). Unit: versions.");
    const std::vector<double> latency{1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
    raw->run_seconds_ = m.AddHistogram("hadad_run_seconds",
        "End-to-end Session::Run latency. Unit: seconds.", latency);
    raw->prepare_seconds_ = m.AddHistogram("hadad_prepare_seconds",
        "Optimizer RW_find latency per derivation. Unit: seconds.", latency);
    raw->plan_cache_gauge_ = m.AddGauge("hadad_plan_cache_size",
        "Cached plans by canonical text. Unit: plans.");
    raw->threads_gauge_ = m.AddGauge("hadad_threadpool_threads",
        "Degree of parallelism execution is scheduled with. Unit: threads.");
    raw->adaptive_views_gauge_ = m.AddGauge("hadad_adaptive_views",
        "Installed adaptive views. Unit: views.");
    raw->adaptive_bytes_gauge_ = m.AddGauge("hadad_adaptive_bytes_in_use",
        "Bytes held by the adaptive-view store. Unit: bytes.");
    raw->adaptive_budget_gauge_ = m.AddGauge("hadad_adaptive_budget_bytes",
        "Byte budget of the adaptive-view store. Unit: bytes.");
    raw->monitor_tracked_gauge_ = m.AddGauge("hadad_workload_monitor_tracked",
        "Distinct canonical subexpressions tracked. Unit: expressions.");
    raw->kernel_tier_gauge_ = m.AddGauge("hadad_kernel_tier",
        "Active SIMD kernel tier: 0=scalar, 1=avx2, 2=avx512. Unit: enum.");
    raw->workspace_versions_gauge_ = m.AddGauge("hadad_workspace_versions",
        "Matrix versions held by the MVCC workspace (live + retained for "
        "pinned readers). Unit: versions.");
    raw->pinned_snapshots_gauge_ =
        m.AddGauge("hadad_workspace_pinned_snapshots",
        "Currently pinned MVCC read snapshots. Unit: snapshots.");
    // Resolved once per process at first kernel use; constant thereafter.
    raw->kernel_tier_gauge_->Set(
        static_cast<double>(matrix::ActiveTier()));
  }
  // No other thread can reach the session until Build() returns it, but the
  // state members below are lock-guarded for the session's lifetime — take
  // the writer lock so the initialization writes type-check like any other.
  common::WriterMutexLock state(&raw->views_mu_);
  // The optimizer's base catalog: the shapes of the stored matrices and of
  // any normalized matrices (their data lives in the registry the executor
  // compiles against, not the workspace). View shapes are registered below
  // by AddView itself.
  la::MetaCatalog catalog;
  for (auto& [name, m] : matrices_) {
    catalog[name] = ShapeOf(m);
    session->workspace_.Put(name, std::move(m));
  }
  if (!normalized_.empty()) {
    session->morpheus_ = std::make_unique<morpheus::MorpheusEngine>();
    for (auto& [name, nm] : normalized_) {
      la::MatrixMeta meta;
      meta.rows = nm.rows();
      meta.cols = nm.cols();
      meta.nnz = static_cast<double>(nm.rows()) *
                 static_cast<double>(nm.cols());
      catalog[name] = meta;
      session->morpheus_->Register(name, std::move(nm));
    }
  }

  pacb::OptimizerOptions options = options_;
  if (estimator_.has_value()) options.estimator = *estimator_;
  session->optimizer_ =
      std::make_unique<pacb::Optimizer>(std::move(catalog), options);
  session->optimizer_->SetData(&session->workspace_.data());

  // One DAG executor serves every execution; without Threads() its pool has
  // one thread and runs plans inline on the caller.
  engine::ExecOptions exec_options;
  exec_options.threads = exec_threads_.value_or(1);
  session->executor_ =
      std::make_unique<exec::Executor>(exec_options, raw->morpheus_.get());

  // Materialize views into the workspace (so execution can scan them) and
  // register their definitions with the optimizer (so rewritings can reach
  // them). Later views may reference earlier ones.
  const cost::LeafMetaFn leaf_meta = session->optimizer_->LeafResolver();
  for (const PendingView& v : views_) {
    auto def = la::ParseExpression(v.text);
    if (!def.ok()) {
      return Status(def.status().code(), "view '" + v.name +
                                             "': " + def.status().message());
    }
    Result<matrix::Matrix> value = session->executor_->Run(
        def.value(), session->workspace_, /*stats=*/nullptr, &leaf_meta);
    if (!value.ok()) {
      return Status(value.status().code(),
                    "view '" + v.name + "': " + value.status().message());
    }
    session->workspace_.Put(v.name, std::move(value).value());
    HADAD_RETURN_IF_ERROR(session->optimizer_->AddView(v.name, def.value()));
    raw->user_views_.emplace_back(v.name, def.value());
  }

  for (const pacb::MorpheusJoinDecl& decl : morpheus_joins_) {
    HADAD_RETURN_IF_ERROR(session->optimizer_->AddMorpheusJoin(decl));
    for (const std::string& n : {decl.t, decl.k, decl.u, decl.m}) {
      raw->morpheus_names_.insert(n);
    }
  }
  for (const auto& [name, nm] : normalized_) {
    raw->morpheus_names_.insert(name);
  }
  if (!constraints_.empty()) {
    HADAD_RETURN_IF_ERROR(
        session->optimizer_->AddConstraints(std::move(constraints_)));
  }

  session->profile_ = profile_;

  if (adaptive_budget_bytes_.has_value()) {
    views::AdaptiveViewManager::Host host;
    // `raw` is safe to capture: the manager is a member and never outlives.
    host.workspace = &raw->workspace_;
    host.optimizer = raw->optimizer_.get();
    host.state_mu = &raw->views_mu_;
    host.trace = raw->trace_.get();
    host.evaluate = [raw](const la::ExprPtr& def, engine::WorkspaceView ws) {
      return raw->executor_->Run(def, ws);
    };
    host.on_views_changed = [raw] {
      raw->view_generation_.fetch_add(1, std::memory_order_release);
    };
    session->adaptive_ = std::make_unique<views::AdaptiveViewManager>(
        std::move(host), *adaptive_budget_bytes_, adaptive_min_hits_);
  }
  return session;
}

}  // namespace hadad::api
