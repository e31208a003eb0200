#include "views/adaptive.h"

#include <algorithm>
#include <utility>

#include "views/maintenance.h"

namespace hadad::views {

namespace {

// Pending-set key for a queued incremental refresh of view `name`. Distinct
// from materialization keys (canonical texts) so both share the drain/sweep
// gating machinery without colliding.
std::string RefreshKey(const std::string& name) { return "refresh:" + name; }

}  // namespace

AdaptiveViewManager::AdaptiveViewManager(Host host, int64_t budget_bytes,
                                         int64_t min_hits)
    : host_(std::move(host)),
      budget_bytes_(budget_bytes),
      min_hits_(min_hits),
      store_(host_.workspace, budget_bytes) {}

AdaptiveViewManager::~AdaptiveViewManager() {
  // The pool destructor drains queued tasks; waiting here keeps the
  // invariant explicit and surfaces a stuck task as a hang in the owner's
  // destructor rather than a use-after-free.
  Drain();
}

void AdaptiveViewManager::OnExecution(const la::ExprPtr& executed) {
  if (executed == nullptr) return;
  monitor_.Observe(executed);

  std::set<std::string> leaves;
  la::CollectMatrixRefs(*executed, &leaves);
  {
    common::MutexLock admin(&admin_mu_);
    ++hit_seq_;
    bool any = false;
    for (const std::string& name : leaves) {
      if (!store_.ContainsName(name)) continue;
      store_.RecordHit(name, hit_seq_);
      any = true;
    }
    if (any) hit_runs_.fetch_add(1, std::memory_order_relaxed);
  }

  MaybeScheduleMaterializations();
}

void AdaptiveViewManager::OnDataMutation(const DataChange& change) {
  obs::ScopedSpan propagate(host_.trace, "adaptive_propagation", "views");
  int64_t invalidated_here = 0;
  int64_t refreshes_queued = 0;
  std::vector<RefreshTask> refreshes;
  {
    common::MutexLock admin(&admin_mu_);
    // Names first: Detach/Evict mutate the store while we walk it.
    std::vector<std::string> names;
    names.reserve(store_.views().size());
    for (const auto& [name, v] : store_.views()) names.push_back(name);

    bool views_changed = false;
    for (const std::string& name : names) {
      la::ExprPtr def = store_.views().at(name).definition;
      // Unique per refresh task, so tasks over one leaf never read or erase
      // each other's staged rows.
      const std::string temp_prefix =
          "__delta_" + std::to_string(refresh_seq_) + "_";
      const RefreshPlan plan = PlanRefresh(def, change, temp_prefix);
      if (plan.mode == RefreshMode::kUntouched) continue;

      if (plan.mode == RefreshMode::kDelta) {
        auto detached = store_.Detach(name);
        if (detached.ok()) {
          ++refresh_seq_;
          (void)host_.optimizer->RemoveView(name);
          views_changed = true;
          // The delta rows ride along in the workspace under a reserved
          // name until the background task installs (and erases it).
          RefreshTask task;
          task.temp_name = plan.delta_name;
          host_.workspace->Put(task.temp_name,
                               *change.appended.at(plan.leaf));
          task.meta = std::move(detached->first);
          task.old_value = std::move(detached->second);
          task.delta_expr = plan.delta;
          std::set<std::string> leaves;
          la::CollectMatrixRefs(*def, &leaves);
          task.deps = host_.workspace->StampFor(
              std::vector<std::string>(leaves.begin(), leaves.end()));
          pending_.insert(RefreshKey(task.meta.name));
          refreshes.push_back(std::move(task));
          ++refreshes_queued;
          continue;
        }
      }

      // Invalidate: the stored value no longer matches its definition, and
      // no incremental identity applies.
      if (store_.Evict(name).ok()) {
        (void)host_.optimizer->RemoveView(name);
        invalidated_.fetch_add(1, std::memory_order_relaxed);
        ++invalidated_here;
        views_changed = true;
        // The monitor's accumulated evidence was measured against the old
        // data; keep the advisor honest by dropping it.
        monitor_.Forget(def);
      }
    }
    if (views_changed && host_.on_views_changed) host_.on_views_changed();
  }
  if (propagate.active()) {
    propagate.Annotate("invalidated", invalidated_here);
    propagate.Annotate("refreshes_queued", refreshes_queued);
  }

  for (RefreshTask& task : refreshes) {
    worker_.Submit([this, t = std::move(task)]() mutable {
      RefreshOne(std::move(t));
    });
  }
}

void AdaptiveViewManager::RefreshOne(RefreshTask task) {
  // InstallRefresh consumes the task; the drain key outlives it. A
  // discarded refresh is never blacklisted — it is a data-change casualty,
  // not a doomed candidate — so it finishes with failed=false.
  obs::ScopedSpan span(host_.trace, "adaptive_refresh", "views");
  span.Annotate("view", task.meta.name);
  const std::string refresh_key = RefreshKey(task.meta.name);
  // Pin a workspace snapshot under a brief shared hold, then evaluate
  // old_value + f(Δ) with NO lock held — foreground queries and writers
  // both keep running meanwhile. InstallRefresh re-checks the dependency
  // stamps under the exclusive lock, so mutations landing in the gap
  // discard the refresh rather than corrupt it.
  engine::SnapshotPtr snap;
  {
    common::ReaderMutexLock state(host_.state_mu);
    snap = host_.workspace->PinSnapshot();
  }
  Result<matrix::Matrix> fresh = host_.evaluate(task.delta_expr, *snap);
  snap.reset();  // Unpin before taking the exclusive lock.
  if (fresh.ok()) fresh = matrix::Add(*task.old_value, *fresh);
  {
    common::WriterMutexLock state(host_.state_mu);
    InstallRefresh(std::move(task), std::move(fresh));
  }
  FinishPending(refresh_key, /*failed=*/false);
}

void AdaptiveViewManager::InstallRefresh(RefreshTask task,
                                         Result<matrix::Matrix> fresh) {
  bool installed = false;
  common::MutexLock admin(&admin_mu_);
  host_.workspace->Erase(task.temp_name);
  bool views_changed = false;
  // Install only if every dependency is still exactly as stamped: a
  // second mutation in the window means old_value + f(Δ) no longer
  // describes the current data, so the refresh is discarded.
  const bool current = host_.workspace->StampCurrent(task.deps) &&
                       !store_.ContainsCanonical(task.meta.canonical);
  if (fresh.ok() && current) {
    const int64_t bytes = matrix::ApproxBytes(*fresh);
    std::vector<std::string> evict;
    if (store_.PlanAdmission(bytes, &evict)) {
      for (const std::string& victim : evict) {
        if (!store_.Evict(victim).ok()) continue;
        obs::ScopedSpan evict_span(host_.trace, "view_evict", "views");
        evict_span.Annotate("view", victim);
        (void)host_.optimizer->RemoveView(victim);
        evicted_.fetch_add(1, std::memory_order_relaxed);
        views_changed = true;
      }
      StoredView meta = task.meta;
      meta.bytes = bytes;
      if (store_.Admit(std::move(meta), std::move(*fresh)).ok()) {
        Status registered =
            host_.optimizer->AddView(task.meta.name, task.meta.definition);
        if (registered.ok()) {
          refreshed_.fetch_add(1, std::memory_order_relaxed);
          views_changed = true;
          installed = true;
        } else {
          (void)store_.Evict(task.meta.name);
        }
      }
    }
  }
  if (!installed) {
    // The view stays gone — count it with the invalidations and drop its
    // now-stale monitor evidence (the workload may rebuild it later).
    if (!fresh.ok()) failures_.fetch_add(1, std::memory_order_relaxed);
    invalidated_.fetch_add(1, std::memory_order_relaxed);
    monitor_.Forget(task.meta.definition);
  }
  if (views_changed && host_.on_views_changed) host_.on_views_changed();
}

void AdaptiveViewManager::MaybeScheduleMaterializations() {
  // Copy the exclusion state up front so the advisor's skip callback runs
  // lock-free (state_mu is held shared while it scores; admin_mu_ must
  // stay inner to it).
  std::set<std::string> excluded_canonicals;
  std::set<std::string> adaptive_names;
  {
    common::MutexLock admin(&admin_mu_);
    // One materialization wave at a time: while any is in flight the sweep
    // (snapshot + candidate scoring) is skipped outright, keeping the
    // steady-state foreground overhead to this lock + check.
    if (!pending_.empty()) return;
    excluded_canonicals = failed_;
    for (const auto& [name, v] : store_.views()) {
      excluded_canonicals.insert(v.canonical);
      adaptive_names.insert(name);
    }
  }

  AdvisorOptions advisor_options;
  advisor_options.min_hits = min_hits_;
  advisor_options.max_recommendations = kMaxCandidates;
  advisor_options.max_bytes = budget_bytes_;
  auto skip = [&excluded_canonicals,
               &adaptive_names](const SubexprStat& stat) {
    if (excluded_canonicals.contains(stat.canonical)) return true;
    // Views over adaptive views would chain eviction dependencies; keep
    // every definition in terms of the session's durable names.
    std::set<std::string> leaves;
    la::CollectMatrixRefs(*stat.expr, &leaves);
    for (const std::string& leaf : leaves) {
      if (adaptive_names.contains(leaf)) return true;
    }
    return false;
  };

  std::vector<Recommendation> recs;
  {
    common::ReaderMutexLock state(host_.state_mu);
    recs = Recommend(monitor_.Snapshot(), *host_.optimizer, advisor_options,
                     skip);
  }
  int scheduled = 0;
  for (Recommendation& rec : recs) {
    if (scheduled >= kMaxViewsPerSweep) break;
    {
      common::MutexLock admin(&admin_mu_);
      if (pending_.contains(rec.canonical) ||
          store_.ContainsCanonical(rec.canonical)) {
        continue;  // Raced with another sweep.
      }
      pending_.insert(rec.canonical);
    }
    ++scheduled;
    worker_.Submit([this, rec = std::move(rec)]() mutable {
      MaterializeOne(std::move(rec));
    });
  }
}

void AdaptiveViewManager::MaterializeOne(Recommendation rec) {
  obs::ScopedSpan span(host_.trace, "adaptive_materialize", "views");
  span.Annotate("canonical", rec.canonical);
  // Compute with no lock held at all: the state lock is taken shared only
  // long enough to stamp the definition's leaf epochs and pin an MVCC
  // snapshot; evaluation then runs against the pinned versions while
  // foreground queries AND writers proceed. If a data mutation lands
  // before install, the stamp check discards the stale value.
  engine::VersionStamp deps;
  engine::SnapshotPtr snap;
  {
    common::ReaderMutexLock state(host_.state_mu);
    std::set<std::string> leaves;
    la::CollectMatrixRefs(*rec.definition, &leaves);
    deps = host_.workspace->StampFor(
        std::vector<std::string>(leaves.begin(), leaves.end()));
    snap = host_.workspace->PinSnapshot();
  }
  Result<matrix::Matrix> value = host_.evaluate(rec.definition, *snap);
  snap.reset();  // Unpin before any exclusive-lock work below.
  if (!value.ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    FinishPending(rec.canonical, /*failed=*/true);
    return;
  }

  const int64_t bytes = matrix::ApproxBytes(*value);

  bool changed = false;
  bool installed = false;
  bool discarded = false;
  {
    common::WriterMutexLock state(host_.state_mu);
    common::MutexLock admin(&admin_mu_);
    std::vector<std::string> evict;
    if (!host_.workspace->StampCurrent(deps)) {
      // A mutation raced the materialization: the computed value describes
      // data that no longer exists. Discard without blacklisting — the
      // workload may legitimately rebuild the candidate on the new data.
      discarded = true;
    } else if (!store_.PlanAdmission(bytes, &evict)) {
      failures_.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (const std::string& name : evict) {
        if (!store_.Evict(name).ok()) continue;
        obs::ScopedSpan evict_span(host_.trace, "view_evict", "views");
        evict_span.Annotate("view", name);
        (void)host_.optimizer->RemoveView(name);
        evicted_.fetch_add(1, std::memory_order_relaxed);
        changed = true;
      }
      const std::string name = NextViewName();
      StoredView meta;
      meta.name = name;
      meta.canonical = rec.canonical;
      meta.definition = rec.definition;
      meta.bytes = bytes;
      meta.benefit = rec.score;
      meta.last_use = hit_seq_;
      Status admitted = store_.Admit(std::move(meta), std::move(*value));
      if (!admitted.ok()) {
        failures_.fetch_add(1, std::memory_order_relaxed);
      } else {
        Status registered = host_.optimizer->AddView(name, rec.definition);
        if (!registered.ok()) {
          (void)store_.Evict(name);
          failures_.fetch_add(1, std::memory_order_relaxed);
        } else {
          created_.fetch_add(1, std::memory_order_relaxed);
          changed = true;
          installed = true;
        }
      }
    }
    if (changed && host_.on_views_changed) host_.on_views_changed();
  }
  span.Annotate("installed", static_cast<int64_t>(installed));
  span.Annotate("discarded", static_cast<int64_t>(discarded));
  // Subtrees of the new view stop being recomputed once rewrites land on
  // it; their accumulated counts would otherwise look like benefit. A
  // rejected candidate's stats go too — its canonical is blacklisted, so
  // keeping them would only waste monitor capacity. (A mutation-discarded
  // candidate also forgets — its evidence described the old data — but is
  // not blacklisted.)
  monitor_.Forget(rec.definition);
  FinishPending(rec.canonical, /*failed=*/!installed && !discarded);
}

void AdaptiveViewManager::FinishPending(const std::string& canonical,
                                        bool failed) {
  {
    common::MutexLock admin(&admin_mu_);
    pending_.erase(canonical);
    if (failed) failed_.insert(canonical);
  }
  drain_cv_.notify_all();
}

std::string AdaptiveViewManager::NextViewName() {
  // Caller holds both the unique state lock (workspace reads) and
  // admin_mu_ (name_seq_).
  for (;;) {
    std::string name = "av_" + std::to_string(name_seq_++);
    if (!host_.workspace->Has(name)) return name;
  }
}

void AdaptiveViewManager::Drain() {
  common::MutexLock admin(&admin_mu_);
  // Explicit predicate loop: the analysis tracks the held capability
  // through CondVar::wait(admin) but not through a predicate lambda.
  while (!pending_.empty()) drain_cv_.wait(admin);
}

AdaptiveViewStats AdaptiveViewManager::stats() const {
  AdaptiveViewStats s;
  s.views_created = created_.load(std::memory_order_relaxed);
  s.views_evicted = evicted_.load(std::memory_order_relaxed);
  s.views_invalidated = invalidated_.load(std::memory_order_relaxed);
  s.views_refreshed = refreshed_.load(std::memory_order_relaxed);
  s.view_hit_runs = hit_runs_.load(std::memory_order_relaxed);
  s.materialize_failures = failures_.load(std::memory_order_relaxed);
  s.budget_bytes = budget_bytes_;
  common::MutexLock admin(&admin_mu_);
  s.bytes_in_use = store_.bytes_in_use();
  s.pending = static_cast<int64_t>(pending_.size());
  return s;
}

std::vector<StoredView> AdaptiveViewManager::StoredViews() const {
  common::MutexLock admin(&admin_mu_);
  std::vector<StoredView> out;
  out.reserve(store_.views().size());
  for (const auto& [name, v] : store_.views()) out.push_back(v);
  return out;
}

bool AdaptiveViewManager::IsAdaptiveViewName(const std::string& name) const {
  common::MutexLock admin(&admin_mu_);
  return store_.ContainsName(name);
}

}  // namespace hadad::views
