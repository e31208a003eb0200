// Pivoted LU (LUP) through the whole stack: kernels, evaluator factors,
// constraint knowledge (Table 10's P M = L U), and rewriting.

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "pacb/optimizer.h"
#include "reference_evaluator.h"

namespace hadad {
namespace {

la::ExprPtr Parse(const std::string& s) {
  auto r = la::ParseExpression(s);
  HADAD_CHECK_MSG(r.ok(), s.c_str());
  return r.value();
}

TEST(LupTest, ParserAndShapes) {
  la::MetaCatalog catalog;
  catalog["C"] = {.rows = 20, .cols = 20, .nnz = 400};
  auto l = la::InferShape(*Parse("lup_l(C)"), catalog);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(l->lower_triangular);
  auto u = la::InferShape(*Parse("lup_u(C)"), catalog);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u->upper_triangular);
  auto p = la::InferShape(*Parse("lup_p(C)"), catalog);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->permutation);
  EXPECT_DOUBLE_EQ(p->nnz, 20.0);
  // Non-square rejected.
  catalog["R"] = {.rows = 4, .cols = 5, .nnz = 20};
  EXPECT_FALSE(la::InferShape(*Parse("lup_l(R)"), catalog).ok());
}

TEST(LupTest, EvaluatorFactorsSatisfyPmEqualsLu) {
  Rng rng(11);
  engine::Workspace ws;
  ws.Put("C", matrix::RandomDense(rng, 12, 12, -1.0, 1.0));
  auto pm = reference::Evaluate(*Parse("lup_p(C) %*% C"), ws);
  auto lu = reference::Evaluate(*Parse("lup_l(C) %*% lup_u(C)"), ws);
  ASSERT_TRUE(pm.ok());
  ASSERT_TRUE(lu.ok());
  EXPECT_TRUE(pm->ApproxEquals(*lu, 1e-9));
  // The permutation factor is orthogonal: P^T P = I.
  auto ptp = reference::Evaluate(*Parse("t(lup_p(C)) %*% lup_p(C)"), ws);
  ASSERT_TRUE(ptp.ok());
  EXPECT_TRUE(ptp->ApproxEquals(matrix::Matrix::Identity(12), 1e-12));
}

TEST(LupTest, RewriterKnowsPmEqualsLu) {
  // lup_l(C) %*% lup_u(C) = lup_p(C) %*% C by the lup-def constraint; the
  // latter is cheaper to decode (smaller tree at equal cost), so extraction
  // should surface it.
  la::MetaCatalog catalog;
  catalog["C"] = {.rows = 64, .cols = 64, .nnz = 4096};
  pacb::Optimizer opt(catalog);
  auto r = opt.OptimizeText("lup_l(C) %*% lup_u(C)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "lup_p(C) %*% C");
  // Semantics on data.
  Rng rng(12);
  engine::Workspace ws;
  ws.Put("C", matrix::RandomDense(rng, 64, 64, -1.0, 1.0));
  auto a = reference::Evaluate(*Parse("lup_l(C) %*% lup_u(C)"), ws);
  auto b = reference::Evaluate(*r->best, ws);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->ApproxEquals(*b, 1e-8));
}

TEST(LupTest, LowerTriangularFixpoint) {
  // For a lower-triangular input, LUP(L) = [L, I, I] (Table 10): the U
  // factor collapses to identity, so lup_l(L) rewrites to L itself.
  la::MetaCatalog catalog;
  catalog["L"] = {.rows = 32, .cols = 32, .nnz = 528,
                  .lower_triangular = true};
  pacb::Optimizer opt(catalog);
  auto r = opt.OptimizeText("lup_l(L)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "L");
}

TEST(LupTest, ViewOverLupFactor) {
  // A view storing the pivoted factors can answer factor queries.
  la::MetaCatalog catalog;
  catalog["C"] = {.rows = 48, .cols = 48, .nnz = 2304};
  pacb::Optimizer opt(catalog);
  ASSERT_TRUE(opt.AddViewText("VL", "lup_l(C)").ok());
  auto r = opt.OptimizeText("lup_l(C)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "VL");
}

}  // namespace
}  // namespace hadad
