// The adaptive materialized-view subsystem (src/views/): workload
// monitoring, advisor ranking, the budgeted store, catalog drop/size
// accounting, and the end-to-end Session loop — a repeated query gets
// auto-rewritten onto an advisor-created view with identical results.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "pacb/optimizer.h"
#include "reference_evaluator.h"
#include "views/adaptive.h"
#include "views/advisor.h"
#include "views/view_store.h"
#include "views/workload_monitor.h"

namespace hadad::views {
namespace {

la::ExprPtr Parse(const std::string& text) {
  auto e = la::ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return e.value();
}

// ---------------------------------------------------------------------------
// WorkloadMonitor
// ---------------------------------------------------------------------------

TEST(WorkloadMonitorTest, CountsEachSubexpressionOncePerRun) {
  WorkloadMonitor monitor;
  // t(X) %*% X appears twice in one run; hash-consed DAG semantics count
  // it once per execution.
  la::ExprPtr e = Parse("(t(X) %*% X) + (t(X) %*% X)");
  monitor.Observe(e);
  monitor.Observe(e);

  std::vector<SubexprStat> snapshot = monitor.Snapshot();
  int64_t product_hits = 0;
  int64_t root_hits = 0;
  for (const SubexprStat& s : snapshot) {
    if (s.canonical == la::ToString(Parse("t(X) %*% X"))) {
      product_hits = s.hits;
    }
    if (s.canonical == la::ToString(e)) root_hits = s.hits;
  }
  EXPECT_EQ(product_hits, 2);
  EXPECT_EQ(root_hits, 2);
  EXPECT_EQ(monitor.observed_runs(), 2);
  // Leaves are never candidates.
  for (const SubexprStat& s : snapshot) {
    EXPECT_FALSE(s.expr->is_leaf()) << s.canonical;
  }
}

TEST(WorkloadMonitorTest, ForgetDropsSubtreesButKeepsParents) {
  WorkloadMonitor monitor;
  monitor.Observe(Parse("(t(X) %*% X) + R"));
  monitor.Observe(Parse("t(X) %*% Y"));
  monitor.Forget(Parse("t(X) %*% X"));

  bool saw_parent = false;
  for (const SubexprStat& s : monitor.Snapshot()) {
    EXPECT_NE(s.canonical, la::ToString(Parse("t(X) %*% X")));
    EXPECT_NE(s.canonical, la::ToString(Parse("t(X)")));
    if (s.canonical == la::ToString(Parse("(t(X) %*% X) + R"))) {
      saw_parent = true;
    }
  }
  EXPECT_TRUE(saw_parent);
  // A forgotten subexpression still computed elsewhere re-accumulates.
  monitor.Observe(Parse("t(X) %*% Y"));
  bool transpose_back = false;
  for (const SubexprStat& s : monitor.Snapshot()) {
    if (s.canonical == la::ToString(Parse("t(X)"))) {
      transpose_back = true;
      EXPECT_EQ(s.hits, 1);  // Re-counted from scratch.
    }
  }
  EXPECT_TRUE(transpose_back);
}

TEST(WorkloadMonitorTest, SnapshotIsDeterministicallyOrdered) {
  WorkloadMonitor monitor;
  monitor.Observe(Parse("t(B) %*% A"));
  monitor.Observe(Parse("t(A)"));
  std::vector<SubexprStat> a = monitor.Snapshot();
  std::vector<SubexprStat> b = monitor.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].canonical, b[i].canonical);
  }
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a[i - 1].canonical, a[i].canonical);
  }
}

// ---------------------------------------------------------------------------
// The view advisor (views::Recommend): candidates estimated through the
// optimizer, which has no data here, so leaves read the catalog alone.
// ---------------------------------------------------------------------------

la::MetaCatalog AdvisorCatalog() {
  la::MetaCatalog catalog;
  la::MatrixMeta x;
  x.rows = 200;
  x.cols = 10;
  x.nnz = 2000;
  catalog["X"] = x;
  la::MatrixMeta r;
  r.rows = 10;
  r.cols = 10;
  r.nnz = 100;
  catalog["R"] = r;
  return catalog;
}

// Hand-built monitor output.
std::vector<SubexprStat> AdvisorInput() {
  std::vector<SubexprStat> stats;
  stats.push_back({la::ToString(Parse("(t(X) %*% X) + R")),
                   Parse("(t(X) %*% X) + R"), 5});
  stats.push_back({la::ToString(Parse("t(X) %*% X")), Parse("t(X) %*% X"), 5});
  stats.push_back({la::ToString(Parse("t(X)")), Parse("t(X)"), 5});
  stats.push_back({la::ToString(Parse("R + R")), Parse("R + R"), 1});
  return stats;
}

TEST(ViewAdvisorTest, RankingIsDeterministic) {
  AdvisorOptions options;
  options.min_hits = 3;
  const pacb::Optimizer optimizer(AdvisorCatalog());

  auto first = Recommend(AdvisorInput(), optimizer, options);
  auto second = Recommend(AdvisorInput(), optimizer, options);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].canonical, second[i].canonical);
    EXPECT_DOUBLE_EQ(first[i].score, second[i].score);
  }
  // Scores are non-increasing (ranked), and the whole-pipeline candidate
  // with the largest recompute-per-byte wins.
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_GE(first[i - 1].score, first[i].score);
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first[0].canonical, la::ToString(Parse("(t(X) %*% X) + R")));
}

TEST(ViewAdvisorTest, MinHitsAndSkipFilterCandidates) {
  AdvisorOptions options;
  options.min_hits = 3;
  const pacb::Optimizer optimizer(AdvisorCatalog());

  auto recs = Recommend(AdvisorInput(), optimizer, options);
  for (const Recommendation& r : recs) {
    EXPECT_NE(r.canonical, la::ToString(Parse("R + R")));  // Only 1 hit.
    EXPECT_GE(r.hits, options.min_hits);
  }

  const std::string product = la::ToString(Parse("t(X) %*% X"));
  auto skipped = Recommend(
      AdvisorInput(), optimizer, options,
      [&product](const SubexprStat& s) { return s.canonical == product; });
  for (const Recommendation& r : skipped) {
    EXPECT_NE(r.canonical, product);
  }
  EXPECT_EQ(skipped.size() + 1, recs.size());
}

// ---------------------------------------------------------------------------
// ViewStore budget + eviction
// ---------------------------------------------------------------------------

StoredView MakeMeta(const std::string& name, const std::string& def_text,
                    double benefit) {
  StoredView v;
  v.name = name;
  v.canonical = la::ToString(Parse(def_text));
  v.definition = Parse(def_text);
  v.benefit = benefit;
  return v;
}

TEST(ViewStoreTest, NeverExceedsBudgetAndEvictsLowestBenefit) {
  engine::Workspace ws;
  constexpr int64_t kMatrixBytes = 10 * 10 * sizeof(double);  // 800 each.
  ViewStore store(&ws, /*budget_bytes=*/2 * kMatrixBytes);

  auto value = [] { return matrix::Matrix(matrix::DenseMatrix(10, 10)); };
  ASSERT_TRUE(store.Admit(MakeMeta("a", "t(A)", /*benefit=*/1.0), value())
                  .ok());
  ASSERT_TRUE(store.Admit(MakeMeta("b", "t(B)", /*benefit=*/50.0), value())
                  .ok());
  EXPECT_EQ(store.bytes_in_use(), 2 * kMatrixBytes);

  // A third view cannot fit without eviction; Admit alone refuses (budget
  // is a hard invariant)...
  Status full = store.Admit(MakeMeta("c", "t(C)", 10.0), value());
  EXPECT_FALSE(full.ok());
  EXPECT_LE(store.bytes_in_use(), store.budget_bytes());

  // ...and PlanAdmission picks the lowest-benefit victim.
  std::vector<std::string> evict;
  ASSERT_TRUE(store.PlanAdmission(kMatrixBytes, &evict));
  ASSERT_EQ(evict.size(), 1u);
  EXPECT_EQ(evict[0], "a");
  for (const std::string& name : evict) {
    ASSERT_TRUE(store.Evict(name).ok());
  }
  ASSERT_TRUE(store.Admit(MakeMeta("c", "t(C)", 10.0), value()).ok());
  EXPECT_LE(store.bytes_in_use(), store.budget_bytes());
  EXPECT_FALSE(store.ContainsName("a"));
  EXPECT_TRUE(store.ContainsName("b"));
  EXPECT_TRUE(store.ContainsName("c"));
  EXPECT_FALSE(ws.Has("a"));

  // A candidate bigger than the whole budget is inadmissible outright.
  EXPECT_FALSE(store.PlanAdmission(3 * kMatrixBytes, &evict));
}

// The store's own bookkeeping: bytes per view, the workspace entry it binds
// and takes back, and the names it refuses.
TEST(ViewStoreTest, TracksBytesAndEvicts) {
  Rng rng(3);
  engine::Workspace ws;
  ws.Put("M", matrix::RandomDense(rng, 8, 4));
  ViewStore store(&ws, /*budget_bytes=*/1 << 20);
  const auto admit = [&](const std::string& name, const std::string& def) {
    auto value = reference::Evaluate(*Parse(def), ws);
    EXPECT_TRUE(value.ok()) << def;
    return store.Admit(MakeMeta(name, def, 1.0), *std::move(value));
  };
  ASSERT_TRUE(admit("V", "t(M)").ok());
  ASSERT_TRUE(admit("W", "M %*% t(M)").ok());
  EXPECT_EQ(store.views().at("V").bytes,
            8 * 4 * static_cast<int64_t>(sizeof(double)));
  EXPECT_EQ(store.bytes_in_use(),
            (8 * 4 + 8 * 8) * static_cast<int64_t>(sizeof(double)));

  // A taken view name and a base matrix's name are both refused.
  EXPECT_EQ(admit("V", "M").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(admit("M", "t(M)").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.size(), 2u);

  ASSERT_TRUE(store.Evict("V").ok());
  EXPECT_FALSE(ws.Has("V"));
  EXPECT_TRUE(ws.Has("W"));
  EXPECT_FALSE(store.ContainsName("V"));
  EXPECT_EQ(store.bytes_in_use(),
            8 * 8 * static_cast<int64_t>(sizeof(double)));

  EXPECT_EQ(store.Evict("V").code(), StatusCode::kNotFound);
  // Base matrices are not evictable through the store.
  EXPECT_EQ(store.Evict("M").code(), StatusCode::kNotFound);
  EXPECT_TRUE(ws.Has("M"));
}

// An admitted view is a workspace name: scanning it reads the value the
// definition evaluated to.
TEST(ViewStoreTest, AdmittedViewAnswersScans) {
  Rng rng(11);
  engine::Workspace ws;
  ws.Put("M", matrix::RandomDense(rng, 30, 8));
  ws.Put("N", matrix::RandomDense(rng, 8, 30));
  ViewStore store(&ws, /*budget_bytes=*/1 << 20);
  auto direct = reference::Evaluate(*Parse("N %*% M"), ws);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(store.Admit(MakeMeta("V3", "N %*% M", 1.0), *direct).ok());
  ASSERT_TRUE(ws.Has("V3"));
  auto via_view = reference::Evaluate(*Parse("V3"), ws);
  ASSERT_TRUE(via_view.ok());
  EXPECT_TRUE(via_view->ApproxEquals(*direct, 1e-10));
}

TEST(ViewStoreTest, HitsWeightEvictionOrder) {
  engine::Workspace ws;
  constexpr int64_t kMatrixBytes = 10 * 10 * sizeof(double);
  ViewStore store(&ws, 2 * kMatrixBytes);
  auto value = [] { return matrix::Matrix(matrix::DenseMatrix(10, 10)); };
  // Equal admission benefit; runtime hits must break the tie.
  ASSERT_TRUE(store.Admit(MakeMeta("cold", "t(A)", 1.0), value()).ok());
  ASSERT_TRUE(store.Admit(MakeMeta("hot", "t(B)", 1.0), value()).ok());
  store.RecordHit("hot", 1);
  store.RecordHit("hot", 2);

  std::vector<std::string> evict;
  ASSERT_TRUE(store.PlanAdmission(kMatrixBytes, &evict));
  ASSERT_EQ(evict.size(), 1u);
  EXPECT_EQ(evict[0], "cold");
}

// ---------------------------------------------------------------------------
// pacb::Optimizer::RemoveView
// ---------------------------------------------------------------------------

TEST(OptimizerRemoveViewTest, RemovedViewsStopAnsweringQueries) {
  Rng rng(7);
  engine::Workspace ws;
  ws.Put("M", matrix::RandomDense(rng, 20, 6));
  ws.Put("N", matrix::RandomDense(rng, 6, 20));
  pacb::Optimizer optimizer(ws.BuildMetaCatalog());
  optimizer.SetData(&ws.data());
  ASSERT_TRUE(optimizer.AddViewText("V", "M %*% N").ok());

  auto with_view = optimizer.OptimizeText("M %*% N");
  ASSERT_TRUE(with_view.ok());
  EXPECT_EQ(la::ToString(with_view->best), "V");

  ASSERT_TRUE(optimizer.RemoveView("V").ok());
  EXPECT_FALSE(optimizer.catalog().contains("V"));
  auto without_view = optimizer.OptimizeText("M %*% N");
  ASSERT_TRUE(without_view.ok());
  EXPECT_EQ(la::ToString(without_view->best), "M %*% N");

  EXPECT_EQ(optimizer.RemoveView("V").code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// End-to-end: Session closes the loop
// ---------------------------------------------------------------------------

struct E2eData {
  matrix::Matrix x;
  matrix::Matrix r;
};

E2eData MakeE2eData() {
  Rng rng(21);
  return E2eData{matrix::RandomDense(rng, 80, 12),
                 matrix::RandomDense(rng, 12, 12)};
}

constexpr char kPipeline[] = "(t(X) %*% X) + R";

TEST(AdaptiveSessionTest, RepeatedQueryAutoMaterializesAndRewrites) {
  E2eData d = MakeE2eData();
  // View-free baseline for the ground truth.
  auto baseline =
      api::SessionBuilder().Put("X", d.x).Put("R", d.r).Build().value();
  auto expected = baseline->Run(kPipeline);
  ASSERT_TRUE(expected.ok());

  auto session = api::SessionBuilder()
                     .Put("X", d.x)
                     .Put("R", d.r)
                     .AdaptiveViews(/*budget_bytes=*/1 << 20, /*min_hits=*/2)
                     .Build()
                     .value();

  // Run 1 and 2: executed as stated; run 2 crosses min_hits and queues the
  // materialization, which the wait lets land.
  for (int i = 0; i < 2; ++i) {
    auto result = session->Run(kPipeline);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->ApproxEquals(*expected, 0.0));  // Bit-identical.
    session->WaitForAdaptiveViews();
  }
  api::SessionStats mid = session->stats();
  ASSERT_GE(mid.adaptive_views_created, 1);
  ASSERT_NE(session->adaptive(), nullptr);
  std::vector<StoredView> stored = session->adaptive()->StoredViews();
  ASSERT_FALSE(stored.empty());

  // Run 3: the plan cache notices the view-generation change, re-derives,
  // and the rewrite lands on the adaptive view — visible in the prepared
  // plan and Explain, with bit-identical results.
  auto result = session->Run(kPipeline);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(*expected, 0.0));

  auto prepared = session->Prepare(kPipeline);
  ASSERT_TRUE(prepared.ok());
  bool uses_adaptive_view = false;
  for (const StoredView& v : stored) {
    if (la::ToString(prepared->plan()).find(v.name) != std::string::npos) {
      uses_adaptive_view = true;
      EXPECT_NE(prepared->Explain().find(v.name), std::string::npos);
    }
  }
  EXPECT_TRUE(uses_adaptive_view)
      << "rewritten plan: " << la::ToString(prepared->plan());
  EXPECT_GE(session->stats().adaptive_view_hit_runs, 1);
  EXPECT_LE(session->stats().adaptive_bytes_in_use,
            session->stats().adaptive_budget_bytes);
}

TEST(AdaptiveSessionTest, StalePreparedQueryRederivesAfterViewLands) {
  E2eData d = MakeE2eData();
  auto baseline =
      api::SessionBuilder().Put("X", d.x).Put("R", d.r).Build().value();
  auto expected = baseline->Run(kPipeline);
  ASSERT_TRUE(expected.ok());

  auto session = api::SessionBuilder()
                     .Put("X", d.x)
                     .Put("R", d.r)
                     .AdaptiveViews(/*budget_bytes=*/1 << 20, /*min_hits=*/2)
                     .Build()
                     .value();

  auto prepared = session->Prepare(kPipeline);  // Derived pre-view.
  ASSERT_TRUE(prepared.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Run(kPipeline).ok());
    session->WaitForAdaptiveViews();
  }
  ASSERT_GE(session->stats().adaptive_views_created, 1);
  // The stale handle still executes — against the refreshed plan, which
  // now scans the adaptive view — and stays bit-identical.
  const int64_t hit_runs_before = session->stats().adaptive_view_hit_runs;
  auto via_stale = prepared->Execute();
  ASSERT_TRUE(via_stale.ok());
  EXPECT_TRUE(via_stale->ApproxEquals(*expected, 0.0));
  EXPECT_GT(session->stats().adaptive_view_hit_runs, hit_runs_before);
}

TEST(AdaptiveSessionTest, BudgetIsNeverExceededUnderEvictionPressure) {
  Rng rng(5);
  api::SessionBuilder builder;
  for (int k = 0; k < 4; ++k) {
    builder.Put("R" + std::to_string(k), matrix::RandomDense(rng, 10, 10));
  }
  // Room for two 10x10 results; four hot disjoint pipelines force the
  // store to evict.
  auto session = builder
                     .AdaptiveViews(
                         /*budget_bytes=*/2 * 10 * 10 * sizeof(double) + 64,
                         /*min_hits=*/2)
                     .Build()
                     .value();

  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 4; ++k) {
      std::string text =
          "t(R" + std::to_string(k) + ") %*% R" + std::to_string(k);
      ASSERT_TRUE(session->Run(text).ok());
      session->WaitForAdaptiveViews();
      api::SessionStats s = session->stats();
      EXPECT_LE(s.adaptive_bytes_in_use, s.adaptive_budget_bytes);
    }
  }
  api::SessionStats s = session->stats();
  EXPECT_GE(s.adaptive_views_created, 2);
  EXPECT_GE(s.adaptive_views_evicted, 1);
  EXPECT_LE(s.adaptive_bytes_in_use, s.adaptive_budget_bytes);
}

TEST(AdaptiveSessionTest, BackgroundMaterializationIsRaceSafe) {
  E2eData d = MakeE2eData();
  auto baseline =
      api::SessionBuilder().Put("X", d.x).Put("R", d.r).Build().value();
  std::vector<std::string> pipelines = {kPipeline, "t(X) %*% X",
                                        "(t(X) %*% X) %*% R", "t(R) + R"};
  std::vector<matrix::Matrix> expected;
  for (const std::string& text : pipelines) {
    auto r = baseline->Run(text);
    ASSERT_TRUE(r.ok()) << text;
    expected.push_back(*r);
  }

  // Tight budget: concurrent installs and evictions race with serving.
  auto session = api::SessionBuilder()
                     .Put("X", d.x)
                     .Put("R", d.r)
                     .AdaptiveViews(
                         /*budget_bytes=*/2 * 12 * 12 * sizeof(double) + 64,
                         /*min_hits=*/2)
                     .Build()
                     .value();

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 16;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        const size_t q = static_cast<size_t>(t + i) % pipelines.size();
        auto result = session->Run(pipelines[q]);
        if (!result.ok()) {
          ++failures;
        } else if (!result->ApproxEquals(expected[q], 1e-12)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  session->WaitForAdaptiveViews();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  api::SessionStats s = session->stats();
  EXPECT_LE(s.adaptive_bytes_in_use, s.adaptive_budget_bytes);
  // Post-drain serving still agrees with the baseline.
  for (size_t q = 0; q < pipelines.size(); ++q) {
    auto result = session->Run(pipelines[q]);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->ApproxEquals(expected[q], 1e-12));
  }
}

// bench_adaptive_views' mix: three pipelines share t(X) %*% X. Ranked by γ
// alone, the Gram matrix (50x50, answering every pipeline) outranks t(X)
// (50x1000, answering none of them by itself) whatever kernels or fusion
// the engine picked, so the store's contents are the same on every
// dispatch tier.
TEST(AdaptiveSessionTest, StoreHoldsOnlyTheSharedGram) {
  Rng rng(42);
  api::SessionBuilder builder;
  builder.Put("X", matrix::RandomDense(rng, 1000, 50));
  std::vector<std::string> pipelines;
  for (int k = 0; k < 3; ++k) {
    const std::string r = "R" + std::to_string(k);
    builder.Put(r, matrix::RandomDense(rng, 50, 50));
    pipelines.push_back("(t(X) %*% X) + " + r);
  }
  auto session = builder
                     .AdaptiveViews(/*budget_bytes=*/int64_t{64} << 20,
                                    /*min_hits=*/2)
                     .Build()
                     .value();
  for (int round = 0; round < 3; ++round) {
    for (const std::string& text : pipelines) {
      ASSERT_TRUE(session->Run(text).ok()) << text;
    }
    session->WaitForAdaptiveViews();
  }

  std::vector<StoredView> stored = session->adaptive()->StoredViews();
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].canonical, la::ToString(Parse("t(X) %*% X")));
  EXPECT_EQ(session->stats().adaptive_bytes_in_use, 20000);
  for (const std::string& text : pipelines) {
    auto prepared = session->Prepare(text);
    ASSERT_TRUE(prepared.ok()) << text;
    std::set<std::string> leaves;
    la::CollectMatrixRefs(*prepared->plan(), &leaves);
    EXPECT_TRUE(leaves.contains(stored[0].name))
        << text << " runs as " << la::ToString(prepared->plan());
  }
}

// ---------------------------------------------------------------------------
// MVCC snapshot races: a mutation landing between a background evaluation
// and its install must discard the stale value, never install it.
// ---------------------------------------------------------------------------

// A manager over a raw Host whose evaluate hook can inject a conflicting
// base-data mutation mid-evaluation — deterministic reproduction of the
// writer-races-installer window.
struct RaceHarness {
  RaceHarness() {
    Rng rng(21);
    x0 = matrix::RandomDense(rng, 80, 12);
    conflict = matrix::RandomDense(rng, 80, 12);
    ws.Put("X", x0);
    optimizer.emplace(ws.BuildMetaCatalog());
    optimizer->SetData(&ws.data());

    AdaptiveViewManager::Host host;
    host.workspace = &ws;
    host.optimizer = &*optimizer;
    host.state_mu = &state_mu;
    host.evaluate = [this](const la::ExprPtr& def, engine::WorkspaceView wsv)
        -> Result<matrix::Matrix> {
      Result<matrix::Matrix> r = reference::Evaluate(*def, wsv);
      if (inject.exchange(false)) {
        // The writer proceeds while the evaluation's snapshot is pinned —
        // MVCC's whole point — and invalidates the stamped deps.
        common::WriterMutexLock lock(&state_mu);
        ws.Update("X", conflict);
      }
      return r;
    };
    host.on_views_changed = [] {};

    manager.emplace(host, /*budget_bytes=*/int64_t{256} << 20,
                    /*min_hits=*/2);
  }

  matrix::Matrix x0;
  matrix::Matrix conflict;
  engine::Workspace ws;
  std::optional<pacb::Optimizer> optimizer;
  common::SharedMutex state_mu;
  std::atomic<bool> inject{false};
  std::optional<AdaptiveViewManager> manager;
};

TEST(AdaptiveSnapshotRaceTest, StaleMaterializationIsDiscardedNotInstalled) {
  RaceHarness h;
  la::ExprPtr def = Parse("t(X) %*% X");

  h.manager->OnExecution(def);
  h.inject.store(true);
  h.manager->OnExecution(def);  // Crosses min_hits; materializes.
  h.manager->Drain();

  // The computed value described the pre-conflict X: discarded, with the
  // candidate neither installed nor blacklisted as a failure.
  AdaptiveViewStats stats = h.manager->stats();
  EXPECT_EQ(stats.views_created, 0);
  EXPECT_EQ(stats.materialize_failures, 0);
  EXPECT_EQ(stats.pending, 0);
  EXPECT_TRUE(h.manager->StoredViews().empty());

  // The workload may legitimately rebuild on the new data: a clean retry
  // (no injected conflict) installs.
  h.manager->OnExecution(def);
  h.manager->OnExecution(def);
  h.manager->Drain();
  EXPECT_EQ(h.manager->stats().views_created, 1);
  ASSERT_EQ(h.manager->StoredViews().size(), 1u);

  // The installed value matches the post-conflict data exactly.
  auto expected = reference::Evaluate(*def, h.ws);
  ASSERT_TRUE(expected.ok());
  auto got = h.ws.Get(h.manager->StoredViews()[0].name);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE((*got)->ApproxEquals(*expected, 0.0));
}

TEST(AdaptiveSnapshotRaceTest, StaleDeltaRefreshIsDiscardedNotInstalled) {
  RaceHarness h;
  la::ExprPtr def = Parse("t(X) %*% X");

  h.manager->OnExecution(def);
  h.manager->OnExecution(def);
  h.manager->Drain();
  ASSERT_EQ(h.manager->stats().views_created, 1);

  // Append to X and queue the incremental refresh (V ← V + t(Δ)Δ); the
  // delta evaluation then races a conflicting update of X.
  Rng rng(33);
  matrix::Matrix extra = matrix::RandomDense(rng, 15, 12);
  DataChange change;
  change.appended.emplace("X", &extra);
  {
    common::WriterMutexLock lock(&h.state_mu);
    ASSERT_TRUE(h.ws.Append("X", extra).ok());
    h.inject.store(true);
    h.manager->OnDataMutation(change);
  }
  h.manager->Drain();

  // old_value + f(Δ) no longer describes the data: the refresh must be
  // discarded and counted with the invalidations.
  AdaptiveViewStats stats = h.manager->stats();
  EXPECT_EQ(stats.views_refreshed, 0);
  EXPECT_GE(stats.views_invalidated, 1);
  EXPECT_EQ(stats.pending, 0);
  EXPECT_TRUE(h.manager->StoredViews().empty());
}

// ---------------------------------------------------------------------------
// PreparedQuery compiled-plan caching (executor sessions)
// ---------------------------------------------------------------------------

TEST(CompiledPlanCacheTest, HitPathSkipsDagRecompilation) {
  Rng rng(17);
  auto session = api::SessionBuilder()
                     .Put("M", matrix::RandomDense(rng, 30, 8))
                     .Put("N", matrix::RandomDense(rng, 8, 30))
                     .Threads(1)
                     .Build()
                     .value();

  auto prepared = session->Prepare("(M %*% N) %*% M");
  ASSERT_TRUE(prepared.ok());
  auto first = prepared->Execute();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(session->stats().compiled_plans, 1);

  auto second = prepared->Execute();
  ASSERT_TRUE(second.ok());
  // Run() shares the cached PreparedPlan, so it reuses the same DAG too.
  ASSERT_TRUE(session->Run("(M %*% N) %*% M").ok());
  EXPECT_EQ(session->stats().compiled_plans, 1);
  EXPECT_TRUE(second->ApproxEquals(*first, 0.0));
}

}  // namespace
}  // namespace hadad::views
