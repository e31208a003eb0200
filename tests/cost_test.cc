#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "la/parser.h"
#include "la/vrem.h"
#include "matrix/generate.h"

namespace hadad::cost {
namespace {

la::ExprPtr Parse(const std::string& s) {
  auto r = la::ParseExpression(s);
  HADAD_CHECK(r.ok());
  return r.value();
}

// Example 7.1's setup, scaled: M is n x k dense, N is k x n dense.
la::MetaCatalog Example71Catalog(int64_t n, int64_t k) {
  la::MetaCatalog catalog;
  catalog["M"] = {.rows = n, .cols = k,
                  .nnz = static_cast<double>(n * k)};
  catalog["N"] = {.rows = k, .cols = n,
                  .nnz = static_cast<double>(n * k)};
  return catalog;
}

TEST(CostModelTest, Example71ChainOrderCosts) {
  // γ((MN)M) = n*n (the MN intermediate); γ(M(NM)) = k*k.
  const int64_t n = 50000, k = 100;
  la::MetaCatalog catalog = Example71Catalog(n, k);
  NaiveMetadataEstimator naive;
  auto e1 = EstimateExpression(*Parse("(M %*% N) %*% M"), catalog, naive);
  auto e2 = EstimateExpression(*Parse("M %*% (N %*% M)"), catalog, naive);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_DOUBLE_EQ(e1->cost, static_cast<double>(n) * n);
  EXPECT_DOUBLE_EQ(e2->cost, static_cast<double>(k) * k);
}

TEST(CostModelTest, LeavesAndRootAreFree) {
  la::MetaCatalog catalog = Example71Catalog(100, 10);
  NaiveMetadataEstimator naive;
  // A single operator on base inputs has no intermediates.
  auto e = EstimateExpression(*Parse("M %*% N"), catalog, naive);
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(e->cost, 0.0);
  // Leaf scan is free.
  auto leaf = EstimateExpression(*Parse("M"), catalog, naive);
  ASSERT_TRUE(leaf.ok());
  EXPECT_DOUBLE_EQ(leaf->cost, 0.0);
}

TEST(CostModelTest, MonotoneInSubexpressions) {
  // The soundness theorems (§8) require γ monotone: an expression never
  // costs less than its subexpressions.
  la::MetaCatalog catalog = Example71Catalog(1000, 20);
  catalog["C"] = {.rows = 1000, .cols = 1000, .nnz = 1e6};
  NaiveMetadataEstimator naive;
  const char* exprs[] = {"(M %*% N) %*% M", "t(M %*% N)",
                         "sum((M %*% N) %*% M)", "trace(C) + trace(C)"};
  for (const char* text : exprs) {
    la::ExprPtr e = Parse(text);
    auto whole = EstimateExpression(*e, catalog, naive);
    ASSERT_TRUE(whole.ok());
    for (const la::ExprPtr& c : e->children()) {
      auto sub = EstimateExpression(*c, catalog, naive);
      ASSERT_TRUE(sub.ok());
      EXPECT_LE(sub->cost, whole->cost) << text;
    }
  }
}

TEST(EstimatorTest, NaiveWorstCaseMultiply) {
  NaiveMetadataEstimator naive;
  ClassMeta a;
  a.shape = {.rows = 100, .cols = 50, .nnz = 10};  // Ultra sparse.
  ClassMeta b;
  b.shape = {.rows = 50, .cols = 80, .nnz = 4000};  // Dense.
  auto out = naive.Propagate(la::vrem::kMultiM, {a, b});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->shape.rows, 100);
  EXPECT_EQ(out->shape.cols, 80);
  // Worst case: 10 nnz * 80 output columns = 800.
  EXPECT_DOUBLE_EQ(out->shape.nnz, 800.0);
}

TEST(EstimatorTest, NaiveAddAndHadamard) {
  NaiveMetadataEstimator naive;
  ClassMeta a;
  a.shape = {.rows = 10, .cols = 10, .nnz = 30};
  ClassMeta b;
  b.shape = {.rows = 10, .cols = 10, .nnz = 50};
  auto add = naive.Propagate(la::vrem::kAddM, {a, b});
  ASSERT_TRUE(add.has_value());
  EXPECT_DOUBLE_EQ(add->shape.nnz, 80.0);
  auto had = naive.Propagate(la::vrem::kMultiE, {a, b});
  ASSERT_TRUE(had.has_value());
  EXPECT_DOUBLE_EQ(had->shape.nnz, 30.0);
}

TEST(EstimatorTest, ShapeValidationInPropagate) {
  NaiveMetadataEstimator naive;
  ClassMeta a;
  a.shape = {.rows = 10, .cols = 5, .nnz = 50};
  ClassMeta b;
  b.shape = {.rows = 4, .cols = 7, .nnz = 28};
  EXPECT_FALSE(naive.Propagate(la::vrem::kMultiM, {a, b}).has_value());
  EXPECT_FALSE(naive.Propagate(la::vrem::kInvM, {a}).has_value());
  EXPECT_FALSE(naive.Propagate("not_an_op", {a}).has_value());
}

TEST(EstimatorTest, MncBaseHistogramsAreExact) {
  Rng rng(3);
  matrix::Matrix m = matrix::RandomSparse(rng, 30, 20, 0.1);
  MncEstimator mnc;
  la::MatrixMeta meta{.rows = 30, .cols = 20, .nnz = -1};
  ClassMeta base = mnc.MakeBase(meta, &m);
  ASSERT_NE(base.mnc, nullptr);
  EXPECT_EQ(base.mnc->row_nnz.size(), 30u);
  EXPECT_DOUBLE_EQ(base.shape.nnz, static_cast<double>(m.Nnz()));
  double total = 0;
  for (double r : base.mnc->row_nnz) total += r;
  EXPECT_DOUBLE_EQ(total, base.shape.nnz);
}

// The one-pass histogram counts exactly what ToSparse() stores: NaN and
// -0.0 do not count, subnormals do.
TEST(EstimatorTest, FromMatrixCountsLikeToSparse) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  matrix::Matrix m(matrix::DenseMatrix(
      3, 4, {nan, 0.0, -0.0, 1.0,      //
             tiny, -tiny, 2.5, nan,    //
             -0.0, 0.0, 0.0, -3.0}));
  MncHistogram h = MncHistogram::FromMatrix(m);
  matrix::SparseMatrix s = m.ToSparse();
  auto as_doubles = [](const std::vector<int64_t>& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  EXPECT_EQ(h.row_nnz, as_doubles(s.RowNnzCounts()));
  EXPECT_EQ(h.col_nnz, as_doubles(s.ColNnzCounts()));
  EXPECT_EQ(h.row_nnz, (std::vector<double>{1, 3, 1}));

  Rng rng(9);
  matrix::Matrix sparse = matrix::RandomSparse(rng, 40, 25, 0.1);
  MncHistogram hs = MncHistogram::FromMatrix(sparse);
  EXPECT_EQ(hs.row_nnz, as_doubles(sparse.sparse().RowNnzCounts()));
  EXPECT_EQ(hs.col_nnz, as_doubles(sparse.sparse().ColNnzCounts()));
}

TEST(EstimatorTest, MncBeatsNaiveOnStructuredProduct) {
  // Diagonal-like A times diagonal-like B: true product is diagonal-like
  // (n non-zeros). MNC sees this through histograms; the worst-case
  // estimator overestimates massively.
  const int64_t n = 100;
  MncEstimator mnc;
  NaiveMetadataEstimator naive;
  la::MatrixMeta meta{.rows = n, .cols = n, .nnz = static_cast<double>(n)};
  // Build an actual diagonal matrix for exact base histograms.
  std::vector<matrix::Triplet> trips;
  for (int64_t i = 0; i < n; ++i) trips.push_back({i, i, 1.0});
  matrix::Matrix diag(matrix::SparseMatrix::FromTriplets(n, n, trips));
  ClassMeta a = mnc.MakeBase(meta, &diag);
  ClassMeta b = a;
  auto mnc_out = mnc.Propagate(la::vrem::kMultiM, {a, b});
  auto naive_out =
      naive.Propagate(la::vrem::kMultiM,
                      {naive.MakeBase(meta, nullptr),
                       naive.MakeBase(meta, nullptr)});
  ASSERT_TRUE(mnc_out.has_value());
  ASSERT_TRUE(naive_out.has_value());
  EXPECT_DOUBLE_EQ(mnc_out->shape.nnz, static_cast<double>(n));
  EXPECT_DOUBLE_EQ(naive_out->shape.nnz, static_cast<double>(n) * n);
}

TEST(EstimatorTest, MncRowColSumsCountNonEmptyLines) {
  MncEstimator mnc;
  la::MatrixMeta meta{.rows = 4, .cols = 4, .nnz = 3};
  matrix::Matrix m(matrix::SparseMatrix::FromTriplets(
      4, 4, {{0, 0, 1.0}, {0, 1, 2.0}, {2, 3, 3.0}}));
  ClassMeta base = mnc.MakeBase(meta, &m);
  auto rs = mnc.Propagate(la::vrem::kRowSums, {base});
  ASSERT_TRUE(rs.has_value());
  EXPECT_DOUBLE_EQ(rs->shape.nnz, 2.0);  // Rows 0 and 2 are non-empty.
  auto cs = mnc.Propagate(la::vrem::kColSums, {base});
  ASSERT_TRUE(cs.has_value());
  EXPECT_DOUBLE_EQ(cs->shape.nnz, 3.0);  // Columns 0, 1, 3.
}

TEST(CostModelTest, SparseAwareCostRanksAlsRewrite) {
  // §2's ALS example: (u v^T - N) v vs u v^T v - N v with ultra-sparse N.
  // The rewrite avoids the dense 2M x 1000 intermediate; here scaled down.
  la::MetaCatalog catalog;
  const int64_t rows = 20000, cols = 100;
  catalog["N"] = {.rows = rows, .cols = cols, .nnz = 400};  // Ultra sparse.
  catalog["u"] = {.rows = rows, .cols = 1,
                  .nnz = static_cast<double>(rows)};
  catalog["v"] = {.rows = cols, .cols = 1,
                  .nnz = static_cast<double>(cols)};
  NaiveMetadataEstimator naive;
  auto original = EstimateExpression(
      *Parse("(u %*% t(v) - N) %*% v"), catalog, naive);
  auto rewrite = EstimateExpression(
      *Parse("u %*% (t(v) %*% v) - N %*% v"), catalog, naive);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(rewrite.ok());
  EXPECT_LT(rewrite->cost, original->cost / 100);
}

TEST(CostModelTest, ErrorsPropagate) {
  la::MetaCatalog catalog;
  catalog["M"] = {.rows = 10, .cols = 5, .nnz = 50};
  NaiveMetadataEstimator naive;
  EXPECT_FALSE(EstimateExpression(*Parse("Q %*% M"), catalog, naive).ok());
  EXPECT_FALSE(EstimateExpression(*Parse("M %*% M"), catalog, naive).ok());
}

// Property sweep: under both estimators, estimated nnz never exceeds cells
// for a pile of random expression shapes.
class EstimatorBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorBoundsTest, NnzBoundedByCells) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  la::MetaCatalog catalog;
  const int64_t n = 20 + static_cast<int64_t>(rng.NextBelow(30));
  const int64_t k = 5 + static_cast<int64_t>(rng.NextBelow(20));
  catalog["A"] = {.rows = n, .cols = k,
                  .nnz = static_cast<double>(rng.NextBelow(
                      static_cast<uint64_t>(n * k)))};
  catalog["B"] = {.rows = k, .cols = n,
                  .nnz = static_cast<double>(rng.NextBelow(
                      static_cast<uint64_t>(n * k)))};
  NaiveMetadataEstimator naive;
  MncEstimator mnc;
  for (const char* text :
       {"A %*% B", "t(A) %*% t(B)", "A %*% B %*% A", "rowSums(A %*% B)",
        "colSums(A) %*% B %*% A", "sum(A %*% B)", "(A + A) %*% B"}) {
    for (const SparsityEstimator* est :
         std::initializer_list<const SparsityEstimator*>{&naive, &mnc}) {
      auto e = EstimateExpression(*Parse(text), catalog, *est);
      ASSERT_TRUE(e.ok()) << text;
      EXPECT_LE(e->output.shape.nnz, e->output.shape.Cells() + 1e-9)
          << text << " under " << est->name();
      EXPECT_GE(e->cost, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorBoundsTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace hadad::cost
