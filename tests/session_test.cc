#include "api/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/profiles.h"
#include "engine/workspace.h"
#include "exec/executor.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "morpheus/generator.h"
#include "pacb/optimizer.h"
#include "reference_evaluator.h"

namespace hadad::api {
namespace {

struct TestData {
  matrix::Matrix m;
  matrix::Matrix n;
  matrix::Matrix c;
  matrix::Matrix v;
};

TestData MakeTestData() {
  Rng rng(11);
  return TestData{matrix::RandomDense(rng, 30, 8),
                  matrix::RandomDense(rng, 8, 30),
                  matrix::RandomInvertible(rng, 12),
                  matrix::RandomDense(rng, 8, 1)};
}

std::shared_ptr<Session> MakeSession() {
  TestData d = MakeTestData();
  auto session = SessionBuilder()
                     .Put("M", d.m)
                     .Put("N", d.n)
                     .Put("C", d.c)
                     .Put("v", d.v)
                     .Build();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return *session;
}

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

TEST(SessionBuilderTest, DuplicateNamesRejected) {
  TestData d = MakeTestData();
  auto session = SessionBuilder().Put("M", d.m).Put("M", d.n).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("'M'"), std::string::npos);
}

TEST(SessionBuilderTest, ViewNameCollidingWithMatrixRejected) {
  TestData d = MakeTestData();
  auto session =
      SessionBuilder().Put("M", d.m).AddView("M", "t(M)").Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilderTest, EmptyNameRejected) {
  TestData d = MakeTestData();
  auto session = SessionBuilder().Put("", d.m).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilderTest, MalformedViewDefinitionRejected) {
  TestData d = MakeTestData();
  auto session =
      SessionBuilder().Put("M", d.m).AddView("V", "t(M %*%").Build();
  ASSERT_FALSE(session.ok());
  // The error names the offending view.
  EXPECT_NE(session.status().message().find("'V'"), std::string::npos);
}

TEST(SessionBuilderTest, ViewOverUnknownMatrixRejected) {
  TestData d = MakeTestData();
  auto session =
      SessionBuilder().Put("M", d.m).AddView("V", "t(Q)").Build();
  EXPECT_FALSE(session.ok());
}

TEST(SessionBuilderTest, MorpheusJoinOverUnknownNamesRejected) {
  TestData d = MakeTestData();
  auto session = SessionBuilder()
                     .Put("T", d.m)
                     .AddMorpheusJoin({"T", "K", "U", "M"})
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);
}

// A view's constraints must fit the chase's pattern limit (32 atoms): a
// chain of 31 additions builds and answers queries; at 32 additions Build()
// fails with a typed error naming the view instead of the first Run
// aborting inside the matcher.
TEST(SessionBuilderTest, OverlongViewDefinitionIsATypedError) {
  auto chain = [](int additions) {
    std::string text = "A";
    for (int i = 0; i < additions; ++i) text = "(" + text + " + A)";
    return text;
  };
  TestData d = MakeTestData();
  auto fits = SessionBuilder().Put("A", d.c).AddView("V", chain(31)).Build();
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  auto answer = (*fits)->Run(chain(31));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(
      answer->ApproxEquals(matrix::ScalarMultiply(32.0, d.c), 1e-9));

  auto too_long =
      SessionBuilder().Put("A", d.c).AddView("V", chain(32)).Build();
  ASSERT_FALSE(too_long.ok());
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_long.status().message().find("view 'V'"), std::string::npos)
      << too_long.status().ToString();
}

TEST(SessionBuilderTest, BuildersAreSingleUse) {
  TestData d = MakeTestData();
  SessionBuilder builder;
  builder.Put("M", d.m);
  ASSERT_TRUE(builder.Build().ok());
  auto second = builder.Build();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Prepare/Execute parity with the manual three-object flow
// ---------------------------------------------------------------------------

TEST(SessionTest, PrepareMatchesManualWorkspaceOptimizerExecutorFlow) {
  const std::string pipeline = "(M %*% N) %*% M";
  TestData d = MakeTestData();

  // Manual expert flow: Workspace -> Optimizer -> Executor, hand-wired.
  engine::Workspace ws;
  ws.Put("M", d.m);
  ws.Put("N", d.n);
  ws.Put("C", d.c);
  ws.Put("v", d.v);
  pacb::Optimizer optimizer(ws.BuildMetaCatalog());
  optimizer.SetData(&ws.data());
  auto manual_rewrite = optimizer.OptimizeText(pipeline);
  ASSERT_TRUE(manual_rewrite.ok());
  auto manual_result = exec::Executor(engine::ExecOptions{.threads = 1})
                           .Run(manual_rewrite->best, ws);
  ASSERT_TRUE(manual_result.ok());

  // Session flow over the same data.
  std::shared_ptr<Session> session = MakeSession();
  auto prepared = session->Prepare(pipeline);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  EXPECT_EQ(la::ToString(prepared->plan()),
            la::ToString(manual_rewrite->best));
  EXPECT_DOUBLE_EQ(prepared->rewrite().best_cost, manual_rewrite->best_cost);
  EXPECT_DOUBLE_EQ(prepared->rewrite().original_cost,
                   manual_rewrite->original_cost);

  auto session_result = prepared->Execute();
  ASSERT_TRUE(session_result.ok());
  EXPECT_TRUE(session_result->ApproxEquals(*manual_result, 1e-10));

  // ExecuteOriginal runs the pipeline as stated.
  auto as_stated = reference::Evaluate(
      *la::ParseExpression(pipeline).value(), session->workspace());
  ASSERT_TRUE(as_stated.ok());
  auto original = prepared->ExecuteOriginal();
  ASSERT_TRUE(original.ok());
  EXPECT_TRUE(original->ApproxEquals(*as_stated, 1e-10));
}

TEST(SessionTest, RunMatchesPreparedExecute) {
  std::shared_ptr<Session> session = MakeSession();
  auto prepared = session->Prepare("t(M %*% N)");
  ASSERT_TRUE(prepared.ok());
  auto via_prepare = prepared->Execute();
  auto via_run = session->Run("t(M %*% N)");
  ASSERT_TRUE(via_prepare.ok());
  ASSERT_TRUE(via_run.ok());
  EXPECT_TRUE(via_run->ApproxEquals(*via_prepare, 1e-12));
}

TEST(SessionTest, ErrorsSurfaceAsStatusNotCrashes) {
  std::shared_ptr<Session> session = MakeSession();
  EXPECT_FALSE(session->Run("t(M %*%").ok());        // Parse error.
  EXPECT_FALSE(session->Run("Q %*% M").ok());        // Unknown name.
  EXPECT_FALSE(session->Prepare("M %*% M").ok());    // Dim mismatch.
}

TEST(SessionTest, PreparedQueryKeepsSessionAlive) {
  std::shared_ptr<Session> session = MakeSession();
  auto prepared = session->Prepare("(M %*% N) %*% M");
  ASSERT_TRUE(prepared.ok());
  PreparedQuery query = *prepared;
  session.reset();  // Drop the caller's handle; the plan still executes.
  EXPECT_TRUE(query.Execute().ok());
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

TEST(SessionTest, ExplainReportsRewriteCostsAndChase) {
  std::shared_ptr<Session> session = MakeSession();
  auto prepared = session->Prepare("(M %*% N) %*% M");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->rewrite().improved);
  std::string explain = prepared->Explain();
  // Original (canonical form) and rewritten expressions.
  EXPECT_NE(explain.find(prepared->canonical_text()), std::string::npos);
  EXPECT_EQ(prepared->canonical_text(),
            la::ToString(la::ParseExpression("(M %*% N) %*% M").value()));
  EXPECT_NE(explain.find(la::ToString(prepared->plan())), std::string::npos);
  // γ estimates, RW_find, chase stats, alternatives.
  EXPECT_NE(explain.find("γ estimate"), std::string::npos);
  EXPECT_NE(explain.find("RW_find"), std::string::npos);
  EXPECT_NE(explain.find("rounds"), std::string::npos);
  EXPECT_NE(explain.find("alternatives"), std::string::npos);
}

TEST(SessionTest, ExplainMarksAlreadyOptimalPipelines) {
  std::shared_ptr<Session> session = MakeSession();
  auto prepared = session->Prepare("M");
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->rewrite().improved);
  EXPECT_NE(prepared->Explain().find("already optimal"), std::string::npos);
}

TEST(SessionTest, ExplainNamesAStalledChase) {
  std::shared_ptr<Session> session = MakeSession();
  // The chase stops after rounds that no longer lower the goal's cost.
  auto stalled = session->Prepare("trace(M %*% N)");
  ASSERT_TRUE(stalled.ok());
  ASSERT_TRUE(stalled->rewrite().chase_stats.stalled);
  EXPECT_NE(stalled->Explain().find(", stalled)"), std::string::npos)
      << stalled->Explain();
  // A chase that ended otherwise says nothing of a stall.
  auto settled = session->Prepare("M");
  ASSERT_TRUE(settled.ok());
  ASSERT_FALSE(settled->rewrite().chase_stats.stalled);
  EXPECT_EQ(settled->Explain().find("stalled"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

TEST(SessionTest, SecondPrepareHitsTheCache) {
  std::shared_ptr<Session> session = MakeSession();
  auto first = session->Prepare("(M %*% N) %*% M");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache());

  auto second = session->Prepare("(M %*% N) %*% M");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache());
  // The plan object itself is shared, not re-derived.
  EXPECT_EQ(&second->rewrite(), &first->rewrite());

  SessionStats stats = session->stats();
  EXPECT_EQ(stats.prepares, 1);  // One optimizer invocation total.
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 1);
}

TEST(SessionTest, CacheKeyIsTheCanonicalExpression) {
  std::shared_ptr<Session> session = MakeSession();
  // Redundant parentheses and whitespace canonicalize to the same plan.
  ASSERT_TRUE(session->Run("(M %*% N) %*% M").ok());
  ASSERT_TRUE(session->Run("((M %*% N)) %*%  M").ok());
  SessionStats stats = session->stats();
  EXPECT_EQ(stats.prepares, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(session->plan_cache_size(), 1);
  // A different expression is a genuine miss.
  ASSERT_TRUE(session->Run("t(M %*% N)").ok());
  EXPECT_EQ(session->stats().cache_misses, 2);
  EXPECT_EQ(session->plan_cache_size(), 2);
}

TEST(SessionTest, SecondRunSkipsReoptimization) {
  std::shared_ptr<Session> session = MakeSession();
  ASSERT_TRUE(session->Run("(M %*% N) %*% M").ok());
  SessionStats cold = session->stats();
  EXPECT_EQ(cold.prepares, 1);
  EXPECT_EQ(cold.cache_hits, 0);

  ASSERT_TRUE(session->Run("(M %*% N) %*% M").ok());
  SessionStats warm = session->stats();
  EXPECT_EQ(warm.prepares, 1);  // No new optimizer invocation.
  EXPECT_EQ(warm.cache_hits, 1);
  EXPECT_EQ(warm.runs, 2);
}

TEST(SessionTest, ClearPlanCacheForcesReoptimization) {
  std::shared_ptr<Session> session = MakeSession();
  ASSERT_TRUE(session->Run("t(M %*% N)").ok());
  EXPECT_EQ(session->plan_cache_size(), 1);
  session->ClearPlanCache();
  EXPECT_EQ(session->plan_cache_size(), 0);
  ASSERT_TRUE(session->Run("t(M %*% N)").ok());
  EXPECT_EQ(session->stats().prepares, 2);
}

TEST(SessionTest, FailedPipelinesAreNotCached) {
  std::shared_ptr<Session> session = MakeSession();
  EXPECT_FALSE(session->Run("Q %*% M").ok());
  EXPECT_EQ(session->plan_cache_size(), 0);
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST(SessionTest, ConcurrentRunsShareCachedPlans) {
  std::shared_ptr<Session> session = MakeSession();
  const std::vector<std::string> pipelines = {
      "(M %*% N) %*% M", "t(M %*% N)", "sum(M %*% N)", "t(N) %*% v"};
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, &pipelines, &failures, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        const std::string& text =
            pipelines[static_cast<size_t>(t + i) % pipelines.size()];
        if (!session->Run(text).ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  SessionStats stats = session->stats();
  EXPECT_EQ(stats.runs, kThreads * kRunsPerThread);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, kThreads * kRunsPerThread);
  // Every pipeline cached exactly once; racing misses may re-optimize but
  // never duplicate a cache entry.
  EXPECT_EQ(session->plan_cache_size(),
            static_cast<int64_t>(pipelines.size()));
  EXPECT_GE(stats.cache_hits, kThreads * kRunsPerThread - stats.prepares);
}

// ---------------------------------------------------------------------------
// Configuration pass-through
// ---------------------------------------------------------------------------

TEST(SessionTest, ViewsAreMaterializedAndReachableByRewrites) {
  TestData d = MakeTestData();
  auto session = SessionBuilder()
                     .Put("M", d.m)
                     .Put("N", d.n)
                     .AddView("V", "N %*% M")
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Materialized into the workspace...
  ASSERT_TRUE((*session)->workspace().Has("V"));
  auto direct = reference::Evaluate(
      *la::ParseExpression("N %*% M").value(), (*session)->workspace());
  auto via_view = (*session)->Run("V");
  ASSERT_TRUE(via_view.ok());
  EXPECT_TRUE(via_view->ApproxEquals(*direct, 1e-10));
}

TEST(SessionTest, ViewsMayReferenceEarlierViews) {
  TestData d = MakeTestData();
  auto session = SessionBuilder()
                     .Put("M", d.m)
                     .Put("N", d.n)
                     .AddView("V1", "N %*% M")
                     .AddView("V2", "t(V1)")
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE((*session)->workspace().Has("V2"));
}

TEST(SessionTest, SmartProfileAppliesEngineRewrites) {
  TestData d = MakeTestData();
  auto session = SessionBuilder()
                     .Put("M", d.m)
                     .SetProfile(engine::Profile::kSmart)
                     .Build();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->profile(), engine::Profile::kSmart);
}

TEST(SessionTest, NormalizedMatrixRoutesThroughMorpheus) {
  Rng rng(9);
  morpheus::PkFkConfig config;
  config.n_r = 40;
  config.d_s = 5;
  config.tuple_ratio = 4;
  config.feature_ratio = 2;
  morpheus::NormalizedMatrix nm = morpheus::GeneratePkFk(rng, config);
  auto materialized = nm.Materialize();
  ASSERT_TRUE(materialized.ok());
  const int64_t m_cols = nm.cols();

  auto session = SessionBuilder()
                     .Put("G", matrix::RandomDense(rng, m_cols, 6))
                     .AddNormalizedMatrix("M", std::move(nm))
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_NE((*session)->morpheus(), nullptr);

  // Factorized execution agrees with the denormalized ground truth.
  auto factorized = (*session)->Run("colSums(M %*% G)");
  ASSERT_TRUE(factorized.ok()) << factorized.status().ToString();
  engine::Workspace ground;
  ground.Put("M", *materialized);
  const matrix::Matrix* g = (*session)->workspace().Find("G");
  ASSERT_NE(g, nullptr);
  ground.Put("G", *g);
  auto expected = reference::Evaluate(
      *la::ParseExpression("colSums(M %*% G)").value(), ground);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(factorized->ApproxEquals(*expected, 1e-8));
}

TEST(SessionTest, ViewsMayReferenceNormalizedMatrices) {
  Rng rng(13);
  morpheus::PkFkConfig config;
  config.n_r = 40;
  config.d_s = 5;
  config.tuple_ratio = 4;
  config.feature_ratio = 2;
  morpheus::NormalizedMatrix nm = morpheus::GeneratePkFk(rng, config);
  auto materialized = nm.Materialize();
  ASSERT_TRUE(materialized.ok());

  // The view definition evaluates through the Morpheus engine at Build().
  auto session = SessionBuilder()
                     .AddNormalizedMatrix("M", std::move(nm))
                     .AddView("V", "colSums(M)")
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const matrix::Matrix* v = (*session)->workspace().Find("V");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->ApproxEquals(matrix::ColSums(*materialized), 1e-8));
}

}  // namespace
}  // namespace hadad::api
