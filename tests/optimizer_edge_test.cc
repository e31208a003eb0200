// Edge cases of the optimizer facade: view-name queries, scalar pipelines,
// decomposition factors in queries, budget behaviour, and the naive-PACB
// (pruning off) mode.

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "pacb/optimizer.h"
#include "reference_evaluator.h"

namespace hadad::pacb {
namespace {

la::MetaCatalog SmallCatalog() {
  la::MetaCatalog c;
  c["M"] = {.rows = 500, .cols = 60, .nnz = 30000};
  c["N"] = {.rows = 60, .cols = 500, .nnz = 30000};
  c["C"] = {.rows = 80, .cols = 80, .nnz = 6400};
  c["D"] = {.rows = 80, .cols = 80, .nnz = 6400};
  return c;
}

TEST(OptimizerEdgeTest, QueryThatIsExactlyAViewScan) {
  Optimizer opt(SmallCatalog());
  ASSERT_TRUE(opt.AddViewText("V", "M %*% N").ok());
  // Asking for the view itself returns the scan, cost 0.
  auto r = opt.OptimizeText("V");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "V");
  EXPECT_DOUBLE_EQ(r->best_cost, 0.0);
  // Asking for the definition answers from the view.
  auto r2 = opt.OptimizeText("M %*% N");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(la::ToString(r2->best), "V");
}

TEST(OptimizerEdgeTest, ViewDefinitionsMayReferenceEarlierViews) {
  Optimizer opt(SmallCatalog());
  ASSERT_TRUE(opt.AddViewText("V", "M %*% N").ok());
  ASSERT_TRUE(opt.AddViewText("W", "t(V)").ok());
  auto r = opt.OptimizeText("t(M %*% N)");
  ASSERT_TRUE(r.ok());
  // Either W directly or t(V); both are cost-0-ish. W is smaller.
  EXPECT_EQ(la::ToString(r->best), "W");
}

TEST(OptimizerEdgeTest, PureScalarPipeline) {
  Optimizer opt(SmallCatalog());
  auto r = opt.OptimizeText("det(C) * det(D) * det(C)");
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->best_cost, r->original_cost);
}

TEST(OptimizerEdgeTest, DecompositionFactorsInQueries) {
  la::MetaCatalog catalog = SmallCatalog();
  catalog["P"] = {.rows = 50, .cols = 50, .nnz = 2500, .symmetric_pd = true};
  Optimizer opt(catalog);
  // cho(P) %*% t(cho(P)) is P by I_cho; extraction should find the scan.
  auto r = opt.OptimizeText("cho(P) %*% t(cho(P))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "P");
  EXPECT_DOUBLE_EQ(r->best_cost, 0.0);
}

TEST(OptimizerEdgeTest, QrFixpointsViaTypes) {
  la::MetaCatalog catalog = SmallCatalog();
  catalog["Q"] = {.rows = 50, .cols = 50, .nnz = 2500, .orthogonal = true};
  Optimizer opt(catalog);
  // qr_q of an orthogonal matrix is the matrix itself (constraint (7)).
  auto r = opt.OptimizeText("qr_q(Q)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "Q");
}

TEST(OptimizerEdgeTest, TinyBudgetStillReturnsOriginal) {
  OptimizerOptions options;
  options.chase.max_facts = 8;   // Practically no room to derive anything.
  options.chase.max_rounds = 1;
  Optimizer opt(SmallCatalog(), options);
  auto r = opt.OptimizeText("t(M %*% N)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "t(M %*% N)");
  EXPECT_TRUE(r->chase_stats.budget_exhausted ||
              r->chase_stats.facts_added == 0);
}

TEST(OptimizerEdgeTest, RepeatedOptimizeCallsAreIndependent) {
  Optimizer opt(SmallCatalog());
  auto r1 = opt.OptimizeText("t(M %*% N)");
  auto r2 = opt.OptimizeText("t(M %*% N)");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(la::ToString(r1->best), la::ToString(r2->best));
  EXPECT_DOUBLE_EQ(r1->best_cost, r2->best_cost);
}

TEST(OptimizerEdgeTest, MorpheusJoinValidation) {
  Optimizer opt(SmallCatalog());
  EXPECT_FALSE(opt.AddMorpheusJoin({"M", "N", "nope", "C"}).ok());
}

TEST(OptimizerEdgeTest, NaivePacbEnumeratesMoreButAgreesOnBest) {
  OptimizerOptions pruned_options;
  OptimizerOptions naive_options;
  naive_options.prune = false;
  Optimizer pruned(SmallCatalog(), pruned_options);
  Optimizer naive(SmallCatalog(), naive_options);
  for (const char* text : {"t(M %*% N)", "trace(C + D)", "(M %*% N) %*% M"}) {
    auto a = pruned.OptimizeText(text);
    auto b = naive.OptimizeText(text);
    ASSERT_TRUE(a.ok()) << text;
    ASSERT_TRUE(b.ok()) << text;
    EXPECT_EQ(la::ToString(a->best), la::ToString(b->best)) << text;
    EXPECT_GE(b->rewrites.size(), a->rewrites.size()) << text;
  }
}

TEST(OptimizerEdgeTest, SubtractionPipelinesRoundTrip) {
  Rng rng(6);
  engine::Workspace ws;
  ws.Put("M", matrix::RandomDense(rng, 40, 30));
  ws.Put("N", matrix::RandomDense(rng, 40, 30));
  ws.Put("w", matrix::RandomDense(rng, 30, 1));
  Optimizer opt(ws.BuildMetaCatalog());
  auto r = opt.OptimizeText("(M - N) %*% w");
  ASSERT_TRUE(r.ok());
  auto a = reference::Evaluate(*la::ParseExpression("(M - N) %*% w").value(), ws);
  auto b = reference::Evaluate(*r->best, ws);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->ApproxEquals(*b, 1e-8));
}

TEST(OptimizerEdgeTest, ZeroCostQueriesDoNotRegress) {
  // Single scans and single ops have γ = 0; the optimizer must return them
  // unchanged (or an equal-cost smaller plan) without exploding.
  Optimizer opt(SmallCatalog());
  for (const char* text : {"M", "t(M)", "sum(M)", "M %*% N"}) {
    auto r = opt.OptimizeText(text);
    ASSERT_TRUE(r.ok()) << text;
    EXPECT_DOUBLE_EQ(r->best_cost, 0.0) << text;
  }
}

}  // namespace
}  // namespace hadad::pacb
