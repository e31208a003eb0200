#include "matrix/matrix.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "matrix/generate.h"

namespace hadad::matrix {
namespace {

DenseMatrix Make(int64_t rows, int64_t cols, std::vector<double> vals) {
  return DenseMatrix(rows, cols, std::move(vals));
}

TEST(DenseMatrixTest, BasicAccessors) {
  DenseMatrix m = Make(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 6);
  EXPECT_EQ(m.CountNonZeros(), 6);
}

TEST(DenseMatrixTest, IdentityAndZero) {
  DenseMatrix id = DenseMatrix::Identity(3);
  EXPECT_DOUBLE_EQ(id.At(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id.At(0, 1), 0.0);
  EXPECT_EQ(DenseMatrix::Zero(2, 2).CountNonZeros(), 0);
}

TEST(SparseMatrixTest, FromTripletsSortsAndMergesDuplicates) {
  SparseMatrix s = SparseMatrix::FromTriplets(
      3, 3, {{2, 1, 5.0}, {0, 0, 1.0}, {2, 1, 2.0}, {1, 2, -1.0}});
  EXPECT_EQ(s.nnz(), 3);
  EXPECT_DOUBLE_EQ(s.At(2, 1), 7.0);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s.At(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(s.At(1, 1), 0.0);
}

TEST(SparseMatrixTest, DuplicatesCancellingToZeroArePruned) {
  SparseMatrix s =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, -1.0}});
  EXPECT_EQ(s.nnz(), 0);
}

TEST(SparseMatrixTest, DenseRoundTrip) {
  DenseMatrix d = Make(2, 3, {0, 2, 0, 3, 0, 4});
  SparseMatrix s = SparseMatrix::FromDense(d);
  EXPECT_EQ(s.nnz(), 3);
  EXPECT_TRUE(s.ToDense().ApproxEquals(d));
}

TEST(SparseMatrixTest, Transpose) {
  SparseMatrix s =
      SparseMatrix::FromTriplets(2, 3, {{0, 2, 1.0}, {1, 0, 2.0}});
  SparseMatrix t = s.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.At(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.At(0, 1), 2.0);
}

TEST(SparseMatrixTest, NnzHistograms) {
  SparseMatrix s = SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 1, 1.0}, {2, 1, 1.0}});
  EXPECT_EQ(s.RowNnzCounts(), (std::vector<int64_t>{2, 0, 1}));
  EXPECT_EQ(s.ColNnzCounts(), (std::vector<int64_t>{1, 2, 0}));
}

TEST(MultiplyTest, DenseDense) {
  Matrix a(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  Matrix b(Make(3, 2, {7, 8, 9, 10, 11, 12}));
  auto r = Multiply(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->At(0, 0), 58);
  EXPECT_DOUBLE_EQ(r->At(0, 1), 64);
  EXPECT_DOUBLE_EQ(r->At(1, 0), 139);
  EXPECT_DOUBLE_EQ(r->At(1, 1), 154);
}

TEST(MultiplyTest, DimensionMismatchIsAnError) {
  Matrix a(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  Matrix b(Make(2, 2, {1, 0, 0, 1}));
  auto r = Multiply(a, b);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDimensionMismatch);
}

TEST(MultiplyTest, ScalarOperandBroadcasts) {
  Matrix a(Make(2, 2, {1, 2, 3, 4}));
  auto r = Multiply(Matrix::Scalar(2.0), a);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->At(1, 1), 8.0);
  auto r2 = Multiply(a, Matrix::Scalar(3.0));
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->At(0, 0), 3.0);
}

TEST(MultiplyTest, SparseDenseAgreesWithDense) {
  Rng rng(7);
  Matrix sp = RandomSparse(rng, 20, 15, 0.2);
  Matrix dn = RandomDense(rng, 15, 8);
  auto fast = Multiply(sp, dn);
  auto ref = Multiply(Matrix(sp.ToDense()), dn);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(fast->ApproxEquals(*ref));
  EXPECT_TRUE(fast->is_dense());
}

TEST(MultiplyTest, DenseSparseAgreesWithDense) {
  Rng rng(8);
  Matrix dn = RandomDense(rng, 10, 12);
  Matrix sp = RandomSparse(rng, 12, 9, 0.3);
  auto fast = Multiply(dn, sp);
  auto ref = Multiply(dn, Matrix(sp.ToDense()));
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(fast->ApproxEquals(*ref));
}

TEST(MultiplyTest, SparseSparseAgreesWithDenseAndStaysSparse) {
  Rng rng(9);
  Matrix a = RandomSparse(rng, 18, 14, 0.15);
  Matrix b = RandomSparse(rng, 14, 11, 0.15);
  auto fast = Multiply(a, b);
  auto ref = Multiply(Matrix(a.ToDense()), Matrix(b.ToDense()));
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(fast->ApproxEquals(*ref));
  EXPECT_TRUE(fast->is_sparse());
}

TEST(AddTest, DenseAndSparseCombinations) {
  Rng rng(10);
  Matrix sp1 = RandomSparse(rng, 6, 6, 0.3);
  Matrix sp2 = RandomSparse(rng, 6, 6, 0.3);
  Matrix dn = RandomDense(rng, 6, 6);
  auto ss = Add(sp1, sp2);
  ASSERT_TRUE(ss.ok());
  EXPECT_TRUE(ss->is_sparse());
  auto ref = Add(Matrix(sp1.ToDense()), Matrix(sp2.ToDense()));
  EXPECT_TRUE(ss->ApproxEquals(*ref));
  auto sd = Add(sp1, dn);
  ASSERT_TRUE(sd.ok());
  EXPECT_TRUE(sd->is_dense());
}

TEST(AddTest, SubtractMatchesAddOfNegation) {
  Matrix a(Make(2, 2, {5, 6, 7, 8}));
  Matrix b(Make(2, 2, {1, 2, 3, 4}));
  auto diff = Subtract(a, b);
  ASSERT_TRUE(diff.ok());
  auto alt = Add(a, ScalarMultiply(-1.0, b));
  EXPECT_TRUE(diff->ApproxEquals(*alt));
}

TEST(AddTest, MismatchedShapesError) {
  Matrix a(Make(2, 2, {1, 2, 3, 4}));
  Matrix b(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  EXPECT_FALSE(Add(a, b).ok());
}

TEST(ElementwiseTest, HadamardSparseShortcut) {
  Rng rng(11);
  Matrix sp = RandomSparse(rng, 8, 8, 0.2);
  Matrix dn = RandomDense(rng, 8, 8);
  auto h = ElementwiseMultiply(sp, dn);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->is_sparse());
  auto ref = ElementwiseMultiply(Matrix(sp.ToDense()), dn);
  EXPECT_TRUE(h->ApproxEquals(*ref));
}

TEST(ElementwiseTest, DivideByZeroIsAnError) {
  Matrix a(Make(1, 2, {1, 2}));
  Matrix b(Make(1, 2, {1, 0}));
  auto r = ElementwiseDivide(a, b);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ElementwiseTest, DivideComputesRatios) {
  Matrix a(Make(2, 2, {2, 4, 6, 8}));
  Matrix b(Make(2, 2, {2, 2, 3, 4}));
  auto r = ElementwiseDivide(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ApproxEquals(Matrix(Make(2, 2, {1, 2, 2, 2}))));
}

TEST(TransposeTest, DoubleTransposeIsIdentityOnValue) {
  Rng rng(12);
  Matrix a = RandomDense(rng, 5, 7);
  EXPECT_TRUE(Transpose(Transpose(a)).ApproxEquals(a));
  Matrix s = RandomSparse(rng, 5, 7, 0.4);
  EXPECT_TRUE(Transpose(Transpose(s)).ApproxEquals(s));
}

TEST(TransposeTest, MultiplyTransposeLaw) {
  // (MN)^T = N^T M^T — the LA property HADAD encodes as a TGD.
  Rng rng(13);
  Matrix m = RandomDense(rng, 4, 6);
  Matrix n = RandomDense(rng, 6, 5);
  auto lhs = Transpose(Multiply(m, n).value());
  auto rhs = Multiply(Transpose(n), Transpose(m));
  ASSERT_TRUE(rhs.ok());
  EXPECT_TRUE(lhs.ApproxEquals(*rhs));
}

TEST(InverseTest, InverseTimesSelfIsIdentity) {
  Rng rng(14);
  Matrix a = RandomInvertible(rng, 8);
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  auto prod = Multiply(a, *inv);
  ASSERT_TRUE(prod.ok());
  EXPECT_TRUE(prod->ApproxEquals(Matrix::Identity(8), 1e-8));
}

TEST(InverseTest, SingularMatrixIsAnError) {
  Matrix a(Make(2, 2, {1, 2, 2, 4}));
  auto inv = Inverse(a);
  ASSERT_FALSE(inv.ok());
  EXPECT_EQ(inv.status().code(), StatusCode::kNotInvertible);
}

TEST(InverseTest, NonSquareIsAnError) {
  Matrix a(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  EXPECT_FALSE(Inverse(a).ok());
}

TEST(InverseTest, ProductInverseLaw) {
  // (CD)^{-1} = D^{-1} C^{-1} — the property behind pipeline P1.3.
  Rng rng(15);
  Matrix c = RandomInvertible(rng, 6);
  Matrix d = RandomInvertible(rng, 6);
  auto lhs = Inverse(Multiply(c, d).value());
  auto rhs = Multiply(Inverse(d).value(), Inverse(c).value());
  ASSERT_TRUE(lhs.ok());
  ASSERT_TRUE(rhs.ok());
  EXPECT_TRUE(lhs->ApproxEquals(*rhs, 1e-7));
}

TEST(DeterminantTest, KnownValuesAndProductLaw) {
  Matrix a(Make(2, 2, {3, 1, 4, 2}));
  auto det = Determinant(a);
  ASSERT_TRUE(det.ok());
  EXPECT_NEAR(*det, 2.0, 1e-12);
  Rng rng(16);
  Matrix c = RandomInvertible(rng, 5);
  Matrix d = RandomInvertible(rng, 5);
  double lhs = Determinant(Multiply(c, d).value()).value();
  double rhs = Determinant(c).value() * Determinant(d).value();
  EXPECT_NEAR(lhs, rhs, 1e-6 * std::fabs(rhs));
}

TEST(TraceTest, TraceLaws) {
  Rng rng(17);
  Matrix c = RandomDense(rng, 6, 6);
  Matrix d = RandomDense(rng, 6, 6);
  // trace(C + D) = trace(C) + trace(D).
  EXPECT_NEAR(Trace(Add(c, d).value()).value(),
              Trace(c).value() + Trace(d).value(), 1e-9);
  // trace(CD) = trace(DC).
  EXPECT_NEAR(Trace(Multiply(c, d).value()).value(),
              Trace(Multiply(d, c).value()).value(), 1e-8);
  EXPECT_FALSE(Trace(Matrix(Make(2, 3, {1, 2, 3, 4, 5, 6}))).ok());
}

TEST(DiagTest, VectorToDiagonalAndBack) {
  Matrix v(Make(3, 1, {1, 2, 3}));
  auto d = Diag(v);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->rows(), 3);
  EXPECT_EQ(d->cols(), 3);
  EXPECT_DOUBLE_EQ(d->At(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(d->At(0, 1), 0.0);
  auto back = Diag(*d);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ApproxEquals(v));
}

TEST(MatrixExpTest, ExpOfZeroIsIdentity) {
  auto e = MatrixExp(Matrix::Zero(4, 4));
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->ApproxEquals(Matrix::Identity(4)));
}

TEST(MatrixExpTest, DiagonalCase) {
  Matrix a(Make(2, 2, {1, 0, 0, 2}));
  auto e = MatrixExp(a);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->At(0, 0), std::exp(1.0), 1e-10);
  EXPECT_NEAR(e->At(1, 1), std::exp(2.0), 1e-9);
  EXPECT_NEAR(e->At(0, 1), 0.0, 1e-12);
}

TEST(MatrixExpTest, TransposeLaw) {
  // exp(M^T) = exp(M)^T.
  Rng rng(18);
  Matrix m = RandomDense(rng, 5, 5, -0.5, 0.5);
  auto lhs = MatrixExp(Transpose(m));
  auto rhs = Transpose(MatrixExp(m).value());
  ASSERT_TRUE(lhs.ok());
  EXPECT_TRUE(lhs->ApproxEquals(rhs, 1e-9));
}

TEST(AdjugateTest, FundamentalIdentity) {
  // A * adj(A) = det(A) * I.
  Rng rng(19);
  Matrix a = RandomInvertible(rng, 5);
  auto adj = Adjugate(a);
  ASSERT_TRUE(adj.ok());
  auto prod = Multiply(a, *adj);
  double det = Determinant(a).value();
  EXPECT_TRUE(prod->ApproxEquals(ScalarMultiply(det, Matrix::Identity(5)),
                                 1e-6));
}

TEST(AdjugateTest, EqualsDetTimesInverseBitForBit) {
  // Adjugate factors once; det and A^{-1} from that one factorization must
  // be the bits of the separate Determinant and Inverse calls.
  Rng rng(37);
  Matrix a = RandomInvertible(rng, 65);
  auto adj = Adjugate(a);
  ASSERT_TRUE(adj.ok());
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  const DenseMatrix want = ScalarMultiply(Determinant(a).value(), *inv).dense();
  ASSERT_TRUE(adj->is_dense());
  const DenseMatrix& got = adj->dense();
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.size()) * sizeof(double)),
            0);
}

TEST(AdjugateTest, TinyPivotIsNotInvertibleEvenWithLargeDet) {
  // det = 1e6 passes the det test, but the second pivot (1e-14) is below
  // the inverse's 1e-13 threshold.
  Matrix a(Make(2, 2, {1e20, 0, 0, 1e-14}));
  auto adj = Adjugate(a);
  ASSERT_FALSE(adj.ok());
  EXPECT_EQ(adj.status().code(), StatusCode::kNotInvertible);
}

TEST(AdjugateTest, SingularSmallMatrixViaCofactors) {
  Matrix a(Make(2, 2, {1, 2, 2, 4}));  // Singular.
  auto adj = Adjugate(a);
  ASSERT_TRUE(adj.ok());
  EXPECT_TRUE(adj->ApproxEquals(Matrix(Make(2, 2, {4, -2, -2, 1}))));
}

TEST(DirectSumTest, BlockStructure) {
  Matrix a(Make(1, 2, {1, 2}));
  Matrix b(Make(2, 1, {3, 4}));
  Matrix s = DirectSum(a, b);
  EXPECT_EQ(s.rows(), 3);
  EXPECT_EQ(s.cols(), 3);
  EXPECT_DOUBLE_EQ(s.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(s.At(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(s.At(0, 2), 0.0);
}

TEST(KroneckerTest, SmallKnownCase) {
  Matrix a(Make(2, 2, {1, 2, 3, 4}));
  Matrix b(Make(2, 2, {0, 1, 1, 0}));
  auto k = KroneckerProduct(a, b);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k->rows(), 4);
  EXPECT_DOUBLE_EQ(k->At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(k->At(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(k->At(3, 0), 3.0);
}

TEST(KroneckerTest, SparseAgreesWithDense) {
  Rng rng(20);
  Matrix a = RandomSparse(rng, 4, 3, 0.4);
  Matrix b = RandomSparse(rng, 3, 4, 0.4);
  auto sp = KroneckerProduct(a, b);
  auto dn = KroneckerProduct(Matrix(a.ToDense()), Matrix(b.ToDense()));
  ASSERT_TRUE(sp.ok());
  EXPECT_TRUE(sp->ApproxEquals(*dn));
}

TEST(AggregationTest, SumsAndPartialSums) {
  Matrix m(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  EXPECT_DOUBLE_EQ(Sum(m), 21.0);
  Matrix rs = RowSums(m);
  EXPECT_EQ(rs.rows(), 2);
  EXPECT_EQ(rs.cols(), 1);
  EXPECT_DOUBLE_EQ(rs.At(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(rs.At(1, 0), 15.0);
  Matrix cs = ColSums(m);
  EXPECT_EQ(cs.rows(), 1);
  EXPECT_DOUBLE_EQ(cs.At(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(cs.At(0, 2), 9.0);
}

TEST(AggregationTest, SparseAggregationsCountImplicitZeros) {
  SparseMatrix s = SparseMatrix::FromTriplets(2, 2, {{0, 0, 5.0}});
  Matrix m(s);
  EXPECT_DOUBLE_EQ(Sum(m), 5.0);
  EXPECT_DOUBLE_EQ(Min(m), 0.0);  // Implicit zeros count.
  EXPECT_DOUBLE_EQ(Max(m), 5.0);
  EXPECT_DOUBLE_EQ(Mean(m), 1.25);
}

TEST(AggregationTest, SystemMlRuleIdentities) {
  // The MMC_StatAgg rules must be true of the kernels themselves:
  // sum(MN) = sum(colSums(M)^T (*) rowSums(N)).
  Rng rng(21);
  Matrix m = RandomDense(rng, 7, 5);
  Matrix n = RandomDense(rng, 5, 6);
  double lhs = Sum(Multiply(m, n).value());
  Matrix cs_t = Transpose(ColSums(m));
  Matrix rs = RowSums(n);
  double rhs = Sum(ElementwiseMultiply(cs_t, rs).value());
  EXPECT_NEAR(lhs, rhs, 1e-8);
  // sum(M^T) = sum(M), sum(rowSums(M)) = sum(M).
  EXPECT_NEAR(Sum(Transpose(m)), Sum(m), 1e-10);
  EXPECT_NEAR(Sum(RowSums(m)), Sum(m), 1e-10);
  EXPECT_NEAR(Sum(ColSums(m)), Sum(m), 1e-10);
  // trace(MN) = sum(M (*) N^T).
  Matrix sq1 = RandomDense(rng, 6, 6);
  Matrix sq2 = RandomDense(rng, 6, 6);
  EXPECT_NEAR(Trace(Multiply(sq1, sq2).value()).value(),
              Sum(ElementwiseMultiply(sq1, Transpose(sq2)).value()), 1e-8);
}

TEST(AggregationTest, StatFamilies) {
  Matrix m(Make(2, 2, {1, 3, 5, 7}));
  EXPECT_DOUBLE_EQ(Min(m), 1.0);
  EXPECT_DOUBLE_EQ(Max(m), 7.0);
  EXPECT_DOUBLE_EQ(Mean(m), 4.0);
  EXPECT_NEAR(Var(m), 20.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(RowMins(m).At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(RowMaxs(m).At(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(RowMeans(m).At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(ColMins(m).At(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(ColMaxs(m).At(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(ColMeans(m).At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(RowVars(m).At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(ColVars(m).At(0, 0), 8.0);
}

TEST(ReverseTest, ReversesRowOrder) {
  Matrix m(Make(3, 1, {1, 2, 3}));
  Matrix r = Reverse(m);
  EXPECT_DOUBLE_EQ(r.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(r.At(2, 0), 1.0);
  // sum(rev(M)) = sum(M) — MMC_StatAgg rule.
  EXPECT_DOUBLE_EQ(Sum(r), Sum(m));
}

TEST(CbindTest, Concatenates) {
  Matrix a(Make(2, 1, {1, 2}));
  Matrix b(Make(2, 2, {3, 4, 5, 6}));
  auto c = Cbind(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->cols(), 3);
  EXPECT_DOUBLE_EQ(c->At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(c->At(0, 2), 4.0);
  EXPECT_FALSE(Cbind(a, Matrix(Make(3, 1, {1, 2, 3}))).ok());
}

TEST(ScalarTest, ScalarValueAndLifting) {
  Matrix s = Matrix::Scalar(2.5);
  EXPECT_TRUE(s.IsScalar());
  EXPECT_DOUBLE_EQ(s.ScalarValue(), 2.5);
}

// Property sweep: multiplication distributes over addition for random shapes.
class DistributivityTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributivityTest, MulDistributesOverAdd) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  int64_t n = 2 + static_cast<int64_t>(rng.NextBelow(6));
  int64_t k = 2 + static_cast<int64_t>(rng.NextBelow(6));
  int64_t m = 2 + static_cast<int64_t>(rng.NextBelow(6));
  Matrix a = RandomDense(rng, n, k);
  Matrix b = RandomDense(rng, k, m);
  Matrix c = RandomDense(rng, k, m);
  auto lhs = Multiply(a, Add(b, c).value());
  auto rhs = Add(Multiply(a, b).value(), Multiply(a, c).value());
  ASSERT_TRUE(lhs.ok());
  EXPECT_TRUE(lhs->ApproxEquals(*rhs, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributivityTest,
                         ::testing::Range(1, 13));

// Property sweep: associativity of multiplication for random shapes.
class AssociativityTest : public ::testing::TestWithParam<int> {};

TEST_P(AssociativityTest, MulIsAssociative) {
  Rng rng(static_cast<uint64_t>(GetParam() * 31 + 5));
  int64_t d1 = 2 + static_cast<int64_t>(rng.NextBelow(5));
  int64_t d2 = 2 + static_cast<int64_t>(rng.NextBelow(5));
  int64_t d3 = 2 + static_cast<int64_t>(rng.NextBelow(5));
  int64_t d4 = 2 + static_cast<int64_t>(rng.NextBelow(5));
  Matrix a = RandomDense(rng, d1, d2);
  Matrix b = RandomDense(rng, d2, d3);
  Matrix c = RandomDense(rng, d3, d4);
  auto lhs = Multiply(Multiply(a, b).value(), c);
  auto rhs = Multiply(a, Multiply(b, c).value());
  ASSERT_TRUE(lhs.ok());
  EXPECT_TRUE(lhs->ApproxEquals(*rhs, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssociativityTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace hadad::matrix
