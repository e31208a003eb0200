// SIMD kernel tier: dispatch policy + bit-identity of every vector tier
// against the scalar reference, at the microkernel level and through the
// blocked/fused kernels and inv/det/PLU/exp, across odd/tail shapes and
// thread counts. These
// tests run identically whichever tier the host resolves to — vector cases
// self-skip on hardware without the tier.

#include "matrix/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "matrix/blocked_kernels.h"
#include "matrix/decompositions.h"
#include "matrix/generate.h"
#include "matrix/matrix.h"

namespace hadad::matrix {
namespace {

// Row widths around every vector-width boundary: scalar-only, partial ymm,
// exact ymm, ymm+tail, exact zmm, zmm+tail, several full vectors + tail.
const std::vector<int64_t> kWidths = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65, 100};

std::vector<double> RandomVec(Rng& rng, int64_t n, double lo = -2.0,
                              double hi = 2.0) {
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Uniform(lo, hi);
  return v;
}

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// An empty matrix has no data pointer to hand memcmp.
bool BitsEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(double)) == 0);
}

// Tiers at or below the host's capability, scalar always included.
std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (DetectedCpuTier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  if (DetectedCpuTier() >= SimdTier::kAvx512) {
    tiers.push_back(SimdTier::kAvx512);
  }
  return tiers;
}

// ---------------------------------------------------------------------------
// Dispatch policy.
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ResolveTierForceScalarWins) {
  EXPECT_EQ(ResolveTier(SimdTier::kAvx512, "1", nullptr), SimdTier::kScalar);
  EXPECT_EQ(ResolveTier(SimdTier::kAvx512, "1", "avx512"), SimdTier::kScalar);
  EXPECT_EQ(ResolveTier(SimdTier::kAvx2, "1", "avx2"), SimdTier::kScalar);
  // Only the literal "1" forces; other values leave the tier request live.
  EXPECT_EQ(ResolveTier(SimdTier::kAvx2, "0", nullptr), SimdTier::kAvx2);
}

TEST(SimdDispatchTest, ResolveTierHonorsAndClampsRequests) {
  EXPECT_EQ(ResolveTier(SimdTier::kAvx512, nullptr, "scalar"),
            SimdTier::kScalar);
  EXPECT_EQ(ResolveTier(SimdTier::kAvx512, nullptr, "avx2"), SimdTier::kAvx2);
  EXPECT_EQ(ResolveTier(SimdTier::kAvx512, nullptr, "avx512"),
            SimdTier::kAvx512);
  // Requests above the CPU's capability clamp down, never up.
  EXPECT_EQ(ResolveTier(SimdTier::kAvx2, nullptr, "avx512"), SimdTier::kAvx2);
  EXPECT_EQ(ResolveTier(SimdTier::kScalar, nullptr, "avx2"),
            SimdTier::kScalar);
  // Unset / unknown names keep the detected tier.
  EXPECT_EQ(ResolveTier(SimdTier::kAvx2, nullptr, nullptr), SimdTier::kAvx2);
  EXPECT_EQ(ResolveTier(SimdTier::kAvx2, nullptr, "sse9"), SimdTier::kAvx2);
}

TEST(SimdDispatchTest, ActiveTierMatchesEnvironmentPolicy) {
  // Whatever environment this test process runs under (plain, forced-scalar
  // CI arm, explicit HADAD_SIMD_TIER), the latched tier must be exactly
  // what the pure policy function derives from it.
  const SimdTier expected =
      ResolveTier(DetectedCpuTier(), std::getenv("HADAD_FORCE_SCALAR"),
                  std::getenv("HADAD_SIMD_TIER"));
  EXPECT_EQ(ActiveTier(), expected);
  EXPECT_EQ(ActiveOps().tier, ActiveTier());
}

TEST(SimdDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(TierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(TierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(TierName(SimdTier::kAvx512), "avx512");
}

TEST(SimdDispatchTest, OpsForTierClampsToDetected) {
  for (SimdTier tier : AvailableTiers()) {
    EXPECT_EQ(OpsForTier(tier).tier, tier);
  }
  EXPECT_LE(OpsForTier(SimdTier::kAvx512).tier, DetectedCpuTier());
}

TEST(SimdDispatchTest, ScopedOverrideSwapsAndRestores) {
  const SimdTier before = ActiveTier();
  {
    ScopedTierOverride scalar(SimdTier::kScalar);
    EXPECT_EQ(ActiveTier(), SimdTier::kScalar);
    {
      ScopedTierOverride nested(DetectedCpuTier());
      EXPECT_EQ(ActiveTier(), DetectedCpuTier());
    }
    EXPECT_EQ(ActiveTier(), SimdTier::kScalar);
  }
  EXPECT_EQ(ActiveTier(), before);
}

// ---------------------------------------------------------------------------
// Microkernel bit-identity: every op of every available tier reproduces the
// scalar reference bit for bit on every tail shape.
// ---------------------------------------------------------------------------

TEST(SimdOpsTest, AllOpsBitIdenticalToScalarOnAllTails) {
  const SimdOps& ref = OpsForTier(SimdTier::kScalar);
  Rng rng(7);
  for (SimdTier tier : AvailableTiers()) {
    const SimdOps& ops = OpsForTier(tier);
    for (int64_t n : kWidths) {
      const std::vector<double> x = RandomVec(rng, n);
      const std::vector<double> y = RandomVec(rng, n);
      const double s = rng.Uniform(-3.0, 3.0);

      std::vector<double> want = RandomVec(rng, n);
      std::vector<double> got = want;  // axpy accumulates into both.
      ref.axpy(want.data(), x.data(), s, n);
      ops.axpy(got.data(), x.data(), s, n);
      EXPECT_TRUE(BitsEqual(want, got))
          << "axpy " << TierName(tier) << " n=" << n;

      std::vector<double> w2(static_cast<size_t>(n)), g2 = w2;
      ref.add_vv(w2.data(), x.data(), y.data(), n);
      ops.add_vv(g2.data(), x.data(), y.data(), n);
      EXPECT_TRUE(BitsEqual(w2, g2))
          << "add_vv " << TierName(tier) << " n=" << n;

      ref.mul_vv(w2.data(), x.data(), y.data(), n);
      ops.mul_vv(g2.data(), x.data(), y.data(), n);
      EXPECT_TRUE(BitsEqual(w2, g2))
          << "mul_vv " << TierName(tier) << " n=" << n;

      ref.add_vs(w2.data(), x.data(), s, n);
      ops.add_vs(g2.data(), x.data(), s, n);
      EXPECT_TRUE(BitsEqual(w2, g2))
          << "add_vs " << TierName(tier) << " n=" << n;

      ref.mul_vs(w2.data(), x.data(), s, n);
      ops.mul_vs(g2.data(), x.data(), s, n);
      EXPECT_TRUE(BitsEqual(w2, g2))
          << "mul_vs " << TierName(tier) << " n=" << n;
    }
  }
}

TEST(SimdOpsTest, ExactAliasingIsSupported) {
  Rng rng(11);
  for (SimdTier tier : AvailableTiers()) {
    const SimdOps& ops = OpsForTier(tier);
    for (int64_t n : kWidths) {
      const std::vector<double> x = RandomVec(rng, n);
      const std::vector<double> y = RandomVec(rng, n);

      // d aliases the first operand (the fused interpreter's in-place reuse).
      std::vector<double> a = x, want = x;
      ops.mul_vv(a.data(), a.data(), y.data(), n);
      OpsForTier(SimdTier::kScalar)
          .mul_vv(want.data(), want.data(), y.data(), n);
      EXPECT_TRUE(BitsEqual(want, a)) << "alias-lhs " << TierName(tier);

      // d aliases the second operand.
      std::vector<double> b = y, want2 = y;
      ops.add_vv(b.data(), x.data(), b.data(), n);
      OpsForTier(SimdTier::kScalar)
          .add_vv(want2.data(), x.data(), want2.data(), n);
      EXPECT_TRUE(BitsEqual(want2, b)) << "alias-rhs " << TierName(tier);

      // In-place scalar broadcast.
      std::vector<double> c = x, want3 = x;
      ops.add_vs(c.data(), c.data(), 1.5, n);
      OpsForTier(SimdTier::kScalar)
          .add_vs(want3.data(), want3.data(), 1.5, n);
      EXPECT_TRUE(BitsEqual(want3, c)) << "alias-vs " << TierName(tier);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level bit-identity: the blocked/fused kernels produce identical
// bits under every tier, sequentially and at several thread counts.
// ---------------------------------------------------------------------------

class SimdKernelTest : public ::testing::Test {
 protected:
  // Runs `body` under every available tier, sequentially and at 2, 4 and 8
  // threads, comparing each result against `want` via `BitsEqual`.
  template <typename Fn>
  void CheckAllTiers(const char* what, const DenseMatrix& want, Fn body) {
    matrix::RangeRunner seq;  // Null runner: body(0, n).
    for (SimdTier tier : AvailableTiers()) {
      ScopedTierOverride active(tier);
      EXPECT_TRUE(BitsEqual(want, body(seq)))
          << what << " " << TierName(tier) << " sequential";
      for (int threads : {2, 4, 8}) {
        exec::ThreadPool pool(threads);
        matrix::RangeRunner runner =
            [&pool](int64_t n,
                    const std::function<void(int64_t, int64_t)>& chunk) {
              pool.ParallelFor(n, kRowGrain, chunk);
            };
        EXPECT_TRUE(BitsEqual(want, body(runner)))
            << what << " " << TierName(tier) << " threads=" << threads;
      }
    }
  }

  // As above, against the scalar tier's sequential result.
  template <typename Fn>
  void CheckAllTiers(const char* what, Fn body) {
    const DenseMatrix want = [&] {
      ScopedTierOverride scalar(SimdTier::kScalar);
      return body(matrix::RangeRunner());
    }();
    CheckAllTiers(what, want, body);
  }
};

TEST_F(SimdKernelTest, BlockedGemmKernelsAcrossOddShapes) {
  Rng rng(21);
  // Shapes straddle the k-tile and every vector boundary.
  struct Shape {
    int64_t n, k, m;
  };
  for (const Shape& s : {Shape{17, 33, 7}, Shape{64, 300, 65},
                         Shape{33, 64, 9}, Shape{5, 513, 16}}) {
    const DenseMatrix a = RandomDense(rng, s.n, s.k, -1.0, 1.0).dense();
    const DenseMatrix b = RandomDense(rng, s.k, s.m, -1.0, 1.0).dense();
    const DenseMatrix at = RandomDense(rng, s.k, s.n, -1.0, 1.0).dense();
    const SparseMatrix sp =
        RandomSparse(rng, s.n, s.k, 0.2, -1.0, 1.0).sparse();
    CheckAllTiers("gemm", [&](const RangeRunner& r) {
      return MultiplyDenseBlocked(a, b, r);
    });
    CheckAllTiers("gemm_tn", [&](const RangeRunner& r) {
      return MultiplyTransposedDenseBlocked(at, b, r);
    });
    CheckAllTiers("spmm", [&](const RangeRunner& r) {
      return MultiplySparseDenseParallel(sp, b, r);
    });
    CheckAllTiers("gemm_rowsums", [&](const RangeRunner& r) {
      return GemmRowSums(a, b, r);
    });
    CheckAllTiers("gemm_colsums", [&](const RangeRunner& r) {
      return GemmColSums(a, b, r);
    });
    CheckAllTiers("gemm_colmeans", [&](const RangeRunner& r) {
      return GemmColMeans(a, b, r);
    });
    // Scalar-valued reductions: wrap in a 1x1 for the shared checker.
    CheckAllTiers("gemm_sum", [&](const RangeRunner& r) {
      return DenseMatrix(1, 1, {GemmSum(a, b, r)});
    });
    CheckAllTiers("gemm_mean", [&](const RangeRunner& r) {
      return DenseMatrix(1, 1, {GemmMean(a, b, r)});
    });
  }
}

TEST_F(SimdKernelTest, ReducingEpiloguesMatchUnfusedAggregates) {
  // The fused mean/colMeans epilogues must equal aggregate-over-product
  // bit for bit — same contract the sum/rowSums/colSums kernels honor.
  Rng rng(23);
  const DenseMatrix a = RandomDense(rng, 47, 65, -1.0, 1.0).dense();
  const DenseMatrix b = RandomDense(rng, 65, 33, -1.0, 1.0).dense();
  const Matrix product = Matrix(MultiplyDenseBlocked(a, b));
  EXPECT_EQ(GemmSum(a, b), Sum(product));
  EXPECT_EQ(GemmMean(a, b), Mean(product));
  EXPECT_TRUE(BitsEqual(ColMeans(product).dense(), GemmColMeans(a, b)));
  EXPECT_TRUE(BitsEqual(ColSums(product).dense(), GemmColSums(a, b)));
  EXPECT_TRUE(BitsEqual(RowSums(product).dense(), GemmRowSums(a, b)));
}

TEST_F(SimdKernelTest, FusedElementwiseEveryOpcodeAcrossTiers) {
  // One program covering every opcode and operand mix: vec*vec, vec+scalar
  // input, vec*const, const*const (scalar-scalar fold), vec+vec.
  // Postfix for ((A .* B) + s) * 2 + (A + 3*4).
  FusedElementwiseProgram program;
  program.steps = {
      {FusedStep::Code::kPushInput, 0, 0.0},  // A
      {FusedStep::Code::kPushInput, 1, 0.0},  // B
      {FusedStep::Code::kMul, 0, 0.0},        // vec * vec
      {FusedStep::Code::kPushInput, 2, 0.0},  // broadcast scalar input
      {FusedStep::Code::kAdd, 0, 0.0},        // vec + scalar
      {FusedStep::Code::kPushConst, 0, 2.0},
      {FusedStep::Code::kMul, 0, 0.0},        // vec * const
      {FusedStep::Code::kPushInput, 0, 0.0},  // A again
      {FusedStep::Code::kPushConst, 0, 3.0},
      {FusedStep::Code::kPushConst, 0, 4.0},
      {FusedStep::Code::kMul, 0, 0.0},        // const * const (scalar fold)
      {FusedStep::Code::kAdd, 0, 0.0},        // vec + folded scalar
      {FusedStep::Code::kAdd, 0, 0.0},        // vec + vec
  };
  program.max_stack = 4;

  Rng rng(29);
  for (int64_t cols : kWidths) {
    const DenseMatrix a = RandomDense(rng, 37, cols, -1.0, 1.0).dense();
    const DenseMatrix b = RandomDense(rng, 37, cols, -1.0, 1.0).dense();
    std::vector<FusedInput> inputs(3);
    inputs[0].dense = &a;
    inputs[1].dense = &b;
    inputs[2].scalar = 0.75;
    CheckAllTiers("fused_elementwise", [&](const RangeRunner& r) {
      return EvalFusedElementwise(program, inputs, 37, cols, r);
    });
  }
}

// ---------------------------------------------------------------------------
// inv, det, PLU and exp against the scalar loops they replaced. These are
// verbatim copies of the former kernels — a column-at-a-time triangular
// solve, a PLU with a scalar row update, and exp on the naive GEMM — kept
// as the bit-for-bit oracle for the packed PLU, the row-wise solve and the
// blocked-GEMM exp.
// ---------------------------------------------------------------------------

PluResult ScalarLoopPlu(const Matrix& m) {
  const int64_t n = m.rows();
  DenseMatrix a = m.ToDense();
  PluResult out;
  out.perm.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out.perm[static_cast<size_t>(i)] = i;
  out.sign = 1.0;
  for (int64_t col = 0; col < n; ++col) {
    int64_t pivot = col;
    double best = std::fabs(a.At(col, col));
    for (int64_t r = col + 1; r < n; ++r) {
      if (std::fabs(a.At(r, col)) > best) {
        best = std::fabs(a.At(r, col));
        pivot = r;
      }
    }
    if (pivot != col) {
      for (int64_t j = 0; j < n; ++j) {
        std::swap(a.At(col, j), a.At(pivot, j));
      }
      std::swap(out.perm[static_cast<size_t>(col)],
                out.perm[static_cast<size_t>(pivot)]);
      out.sign = -out.sign;
    }
    const double p = a.At(col, col);
    if (p == 0.0) continue;
    for (int64_t r = col + 1; r < n; ++r) {
      const double f = a.At(r, col) / p;
      a.At(r, col) = f;
      for (int64_t j = col + 1; j < n; ++j) {
        a.At(r, j) -= f * a.At(col, j);
      }
    }
  }
  DenseMatrix l = DenseMatrix::Identity(n);
  DenseMatrix u(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (j < i) {
        l.At(i, j) = a.At(i, j);
      } else {
        u.At(i, j) = a.At(i, j);
      }
    }
  }
  out.l = Matrix(std::move(l));
  out.u = Matrix(std::move(u));
  return out;
}

Result<Matrix> ScalarLoopInverse(const Matrix& a) {
  const PluResult plu = ScalarLoopPlu(a);
  const int64_t n = a.rows();
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(plu.u.dense().At(i, i)) < 1e-13) {
      return Status::NotInvertible("singular matrix");
    }
  }
  const DenseMatrix& l = plu.l.dense();
  const DenseMatrix& u = plu.u.dense();
  DenseMatrix out(n, n);
  std::vector<double> y(static_cast<size_t>(n));
  std::vector<double> x(static_cast<size_t>(n));
  for (int64_t col = 0; col < n; ++col) {
    for (int64_t i = 0; i < n; ++i) {
      y[static_cast<size_t>(i)] =
          (plu.perm[static_cast<size_t>(i)] == col) ? 1.0 : 0.0;
    }
    for (int64_t i = 0; i < n; ++i) {
      double s = y[static_cast<size_t>(i)];
      for (int64_t j = 0; j < i; ++j) {
        s -= l.At(i, j) * y[static_cast<size_t>(j)];
      }
      y[static_cast<size_t>(i)] = s;
    }
    for (int64_t i = n - 1; i >= 0; --i) {
      double s = y[static_cast<size_t>(i)];
      for (int64_t j = i + 1; j < n; ++j) {
        s -= u.At(i, j) * x[static_cast<size_t>(j)];
      }
      x[static_cast<size_t>(i)] = s / u.At(i, i);
    }
    for (int64_t i = 0; i < n; ++i) out.At(i, col) = x[static_cast<size_t>(i)];
  }
  return Matrix(std::move(out));
}

double ScalarLoopDeterminant(const Matrix& a) {
  const PluResult plu = ScalarLoopPlu(a);
  double det = plu.sign;
  for (int64_t i = 0; i < a.rows(); ++i) det *= plu.u.dense().At(i, i);
  return det;
}

DenseMatrix ScalarLoopGemm(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    double* out_row = out.row(i);
    const double* a_row = a.row(i);
    for (int64_t p = 0; p < a.cols(); ++p) {
      const double av = a_row[p];
      if (av == 0.0) continue;
      const double* b_row = b.row(p);
      for (int64_t j = 0; j < b.cols(); ++j) out_row[j] += av * b_row[j];
    }
  }
  return out;
}

DenseMatrix ScalarLoopExp(const Matrix& a) {
  DenseMatrix d = a.ToDense();
  const int64_t n = d.rows();
  double norm = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < n; ++j) s += std::fabs(d.At(i, j));
    norm = std::max(norm, s);
  }
  int squarings = 0;
  while (norm > 0.5 && squarings < 60) {
    norm /= 2.0;
    ++squarings;
  }
  const double scale = std::ldexp(1.0, -squarings);
  DenseMatrix scaled(n, n);
  for (int64_t i = 0; i < d.size(); ++i) {
    scaled.data()[i] = d.data()[i] * scale;
  }
  DenseMatrix result = DenseMatrix::Identity(n);
  DenseMatrix term = DenseMatrix::Identity(n);
  for (int k = 1; k <= 30; ++k) {
    term = ScalarLoopGemm(term, scaled);
    const double inv_fact = 1.0 / k;
    bool significant = false;
    for (int64_t i = 0; i < term.size(); ++i) {
      term.data()[i] *= inv_fact;
      result.data()[i] += term.data()[i];
      if (std::fabs(term.data()[i]) > 1e-17) significant = true;
    }
    if (!significant) break;
  }
  for (int s = 0; s < squarings; ++s) result = ScalarLoopGemm(result, result);
  return result;
}

// A kernel result in CheckAllTiers' currency: the matrix itself, or, for an
// error, a 0 x (code + 1) matrix, so a status code compares like a result.
DenseMatrix AsDense(const Result<Matrix>& r) {
  if (!r.ok()) {
    return DenseMatrix(0, static_cast<int64_t>(r.status().code()) + 1);
  }
  return r->ToDense();
}

// PluDecompose's l, u, perm and sign stacked into one (2n + 2) x n matrix.
DenseMatrix AsDense(const PluResult& plu) {
  const int64_t n = plu.l.rows();
  DenseMatrix out(2 * n + 2, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out.At(i, j) = plu.l.At(i, j);
      out.At(n + i, j) = plu.u.At(i, j);
    }
    out.At(2 * n, i) = static_cast<double>(plu.perm[static_cast<size_t>(i)]);
  }
  if (n > 0) out.At(2 * n + 1, 0) = plu.sign;
  return out;
}

TEST_F(SimdKernelTest, PluInverseDetExpReproduceTheScalarLoops) {
  Rng rng(31);
  for (int64_t n : {1, 2, 7, 8, 9, 17, 63, 64, 65, 129}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Invertible; invertible with a zero first pivot (row swap at step 0);
    // singular, with an all-zero first column (the elimination skips it
    // and Inverse reports NotInvertible).
    const Matrix invertible = RandomInvertible(rng, n);
    DenseMatrix swapped = RandomInvertible(rng, n).dense();
    swapped.At(0, 0) = 0.0;
    DenseMatrix singular = RandomDense(rng, n, n, -1.0, 1.0).dense();
    for (int64_t i = 0; i < n; ++i) singular.At(i, 0) = 0.0;
    const Matrix singular_m(std::move(singular));
    const Result<Matrix> singular_inv = Inverse(singular_m);
    ASSERT_FALSE(singular_inv.ok());
    EXPECT_EQ(singular_inv.status().code(), StatusCode::kNotInvertible);
    for (const Matrix& a : {invertible, Matrix(std::move(swapped)), singular_m}) {
      CheckAllTiers("plu", AsDense(ScalarLoopPlu(a)), [&](const RangeRunner&) {
        return AsDense(PluDecompose(a).value());
      });
      CheckAllTiers("inv", AsDense(ScalarLoopInverse(a)),
                    [&](const RangeRunner& r) { return AsDense(Inverse(a, r)); });
      CheckAllTiers("det", DenseMatrix(1, 1, {ScalarLoopDeterminant(a)}),
                    [&](const RangeRunner&) {
                      return DenseMatrix(1, 1, {Determinant(a).value()});
                    });
    }
    // exp of zero is I (no squarings); a dense matrix with a diagonal of 4
    // has norm >= 4, so exp scales it down and squares back at least 3
    // times.
    const Matrix zero(DenseMatrix(n, n));
    DenseMatrix dense = RandomDense(rng, n, n, -4.0, 4.0).dense();
    for (int64_t i = 0; i < n; ++i) dense.At(i, i) = 4.0;
    for (const Matrix& a : {zero, Matrix(std::move(dense))}) {
      CheckAllTiers("exp", ScalarLoopExp(a), [&](const RangeRunner& r) {
        return AsDense(MatrixExp(a, r));
      });
    }
  }
}

}  // namespace
}  // namespace hadad::matrix
