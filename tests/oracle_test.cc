// Property-based soundness oracle: generate random well-shaped LA
// expressions, optimize them, and check that (a) the rewriting never costs
// more than the original under γ and (b) original and rewriting evaluate to
// the same matrix on real data. This exercises Theorem 8.1 (soundness)
// end to end: every constraint in MMC must be a true LA identity or the
// oracle fails.

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/expr.h"
#include "matrix/generate.h"
#include "pacb/optimizer.h"
#include "reference_evaluator.h"

namespace hadad {
namespace {

using la::Expr;
using la::ExprPtr;
using la::MatrixMeta;
using la::OpKind;

struct TypedExpr {
  ExprPtr expr;
  int64_t rows;
  int64_t cols;
};

// Grows a pool of well-shaped expressions over the workspace leaves by
// randomly applying operators whose shape constraints hold. Operators with
// numerical hazards on random data (inverse, determinant of products,
// division) are exercised by the targeted suites instead.
class RandomExprGen {
 public:
  RandomExprGen(Rng* rng, std::vector<TypedExpr> leaves)
      : rng_(rng), pool_(std::move(leaves)) {}

  ExprPtr Generate(int steps) {
    for (int i = 0; i < steps; ++i) Step();
    return pool_.back().expr;
  }

 private:
  const TypedExpr& Pick() {
    return pool_[rng_->NextBelow(pool_.size())];
  }

  void Push(OpKind kind, const TypedExpr& a, int64_t rows, int64_t cols) {
    pool_.push_back({Expr::Unary(kind, a.expr), rows, cols});
  }
  void Push(OpKind kind, const TypedExpr& a, const TypedExpr& b,
            int64_t rows, int64_t cols) {
    pool_.push_back({Expr::Binary(kind, a.expr, b.expr), rows, cols});
  }

  void Step() {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const TypedExpr& a = Pick();
      switch (rng_->NextBelow(8)) {
        case 0:  // Transpose.
          Push(OpKind::kTranspose, a, a.cols, a.rows);
          return;
        case 1:  // Row/col sums.
          if (rng_->NextBelow(2) == 0) {
            Push(OpKind::kRowSums, a, a.rows, 1);
          } else {
            Push(OpKind::kColSums, a, 1, a.cols);
          }
          return;
        case 2:  // Full aggregate.
          Push(OpKind::kSum, a, 1, 1);
          return;
        case 3:  // Reverse.
          Push(OpKind::kRev, a, a.rows, a.cols);
          return;
        case 4: {  // Addition (same-shape partner).
          const TypedExpr& b = Pick();
          if (a.rows == b.rows && a.cols == b.cols) {
            Push(OpKind::kAdd, a, b, a.rows, a.cols);
            return;
          }
          break;
        }
        case 5: {  // Product.
          const TypedExpr& b = Pick();
          if (a.cols == b.rows && a.rows * b.cols <= 4096) {
            Push(OpKind::kMultiply, a, b, a.rows, b.cols);
            return;
          }
          break;
        }
        case 6: {  // Hadamard.
          const TypedExpr& b = Pick();
          if (a.rows == b.rows && a.cols == b.cols) {
            Push(OpKind::kHadamard, a, b, a.rows, a.cols);
            return;
          }
          break;
        }
        case 7:  // Scalar multiplication.
          pool_.push_back({Expr::Binary(OpKind::kHadamard,
                                        Expr::Scalar(0.5), a.expr),
                           a.rows, a.cols});
          return;
      }
    }
  }

  Rng* rng_;
  std::vector<TypedExpr> pool_;
};

class OracleTest : public ::testing::TestWithParam<int> {};

TEST_P(OracleTest, RewritePreservesValueAndNeverCostsMore) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  engine::Workspace ws;
  ws.Put("A", matrix::RandomDense(rng, 24, 16, -1.0, 1.0));
  ws.Put("B", matrix::RandomDense(rng, 16, 24, -1.0, 1.0));
  ws.Put("S", matrix::RandomSparse(rng, 24, 16, 0.15, -1.0, 1.0));
  ws.Put("v", matrix::RandomDense(rng, 16, 1, -1.0, 1.0));
  std::vector<TypedExpr> leaves = {
      {Expr::MatrixRef("A"), 24, 16},
      {Expr::MatrixRef("B"), 16, 24},
      {Expr::MatrixRef("S"), 24, 16},
      {Expr::MatrixRef("v"), 16, 1},
  };
  pacb::Optimizer optimizer(ws.BuildMetaCatalog());
  optimizer.SetData(&ws.data());

  RandomExprGen gen(&rng, std::move(leaves));
  for (int trial = 0; trial < 4; ++trial) {
    ExprPtr expr = gen.Generate(4);
    SCOPED_TRACE(la::ToString(expr));
    auto r = optimizer.Optimize(expr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LE(r->best_cost, r->original_cost + 1e-6);
    auto original = reference::Evaluate(*expr, ws);
    ASSERT_TRUE(original.ok());
    auto rewritten = reference::Evaluate(*r->best, ws);
    ASSERT_TRUE(rewritten.ok()) << la::ToString(r->best);
    EXPECT_TRUE(original->ApproxEquals(*rewritten, 1e-6))
        << "rewrote to " << la::ToString(r->best);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace hadad
