// Scalar vs SIMD kernel tier, measured at the matrix-kernel seam: the same
// blocked/fused kernels and inv/det/exp run twice via ScopedTierOverride —
// once pinned to the scalar reference tier, once on the tier runtime
// dispatch resolved for this CPU — and every vector result is verified
// BIT-IDENTICAL to the scalar one (verified_tolerance 0 in the JSON: the
// tiers share one rounding sequence by construction, so any mismatch is a
// bug, not noise).
//
// On a scalar-only host the two arms coincide and speedups print ~1.0x;
// the records still emit so the baseline schema is hardware-independent.
//
//   $ ./build/bench/bench_simd_kernels [--json=PATH]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "matrix/blocked_kernels.h"
#include "matrix/generate.h"
#include "matrix/matrix.h"
#include "matrix/simd.h"

using namespace hadad;  // NOLINT

namespace {

bool BitsEqual(const matrix::DenseMatrix& a, const matrix::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.rows() * a.cols()) *
                         sizeof(double)) == 0;
}

// Best-of-repeats wall clock of `body` under `tier`.
double TimeUnder(matrix::SimdTier tier, int repeats,
                 const std::function<matrix::DenseMatrix()>& body,
                 matrix::DenseMatrix* out) {
  matrix::ScopedTierOverride override(tier);
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    matrix::DenseMatrix result = body();
    best = std::min(best, timer.ElapsedSeconds());
    *out = std::move(result);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("bench_simd_kernels", argc, argv);
  const matrix::SimdTier vector_tier = matrix::DetectedCpuTier();
  std::printf("== SIMD kernel tier vs scalar reference (tier: %s) ==\n\n",
              matrix::TierName(vector_tier));

  Rng rng(97);
  // Dense GEMM operands: big enough that the axpy inner loop dominates,
  // small enough for a quick single-core CI run. Odd inner/outer sizes keep
  // the masked-tail paths in the measurement.
  const matrix::DenseMatrix ga =
      matrix::RandomDense(rng, 384, 300, -1.0, 1.0).dense();
  const matrix::DenseMatrix gb =
      matrix::RandomDense(rng, 300, 385, -1.0, 1.0).dense();
  const matrix::DenseMatrix gat =
      matrix::RandomDense(rng, 300, 384, -1.0, 1.0).dense();
  const matrix::SparseMatrix sp =
      matrix::RandomSparse(rng, 1500, 300, 0.05, -1.0, 1.0).sparse();

  // 4-op fused elementwise chain E1 + E2 .* E3 - E4 in postfix — the
  // program shape FuseElementwiseChains emits for that expression.
  const int64_t er = 900, ec = 901;
  const matrix::DenseMatrix e1 =
      matrix::RandomDense(rng, er, ec, -1.0, 1.0).dense();
  const matrix::DenseMatrix e2 =
      matrix::RandomDense(rng, er, ec, -1.0, 1.0).dense();
  const matrix::DenseMatrix e3 =
      matrix::RandomDense(rng, er, ec, -1.0, 1.0).dense();
  const matrix::DenseMatrix e4 =
      matrix::RandomDense(rng, er, ec, -1.0, 1.0).dense();
  matrix::FusedElementwiseProgram chain;
  chain.steps = {
      {matrix::FusedStep::Code::kPushInput, 0, 0.0},
      {matrix::FusedStep::Code::kPushInput, 1, 0.0},
      {matrix::FusedStep::Code::kPushInput, 2, 0.0},
      {matrix::FusedStep::Code::kMul, 0, 0.0},       // E2 .* E3
      {matrix::FusedStep::Code::kAdd, 0, 0.0},       // E1 + ...
      {matrix::FusedStep::Code::kPushInput, 3, 0.0},
      {matrix::FusedStep::Code::kPushConst, 0, -1.0},
      {matrix::FusedStep::Code::kMul, 0, 0.0},       // -E4
      {matrix::FusedStep::Code::kAdd, 0, 0.0},       // ... - E4
  };
  chain.max_stack = 3;
  std::vector<matrix::FusedInput> chain_inputs(4);
  chain_inputs[0].dense = &e1;
  chain_inputs[1].dense = &e2;
  chain_inputs[2].dense = &e3;
  chain_inputs[3].dense = &e4;

  struct Workload {
    const char* id;
    std::function<matrix::DenseMatrix()> body;
  };
  const std::vector<Workload> workloads = {
      {"gemm_dense_384",
       [&] { return matrix::MultiplyDenseBlocked(ga, gb); }},
      {"gemm_tn_fused_384",
       [&] { return matrix::MultiplyTransposedDenseBlocked(gat, gb); }},
      {"spmm_1500x300",
       [&] { return matrix::MultiplySparseDenseParallel(sp, gb); }},
      {"fused_chain4_900sq",
       [&] {
         return matrix::EvalFusedElementwise(chain, chain_inputs, er, ec);
       }},
      {"gemm_colsums_384",
       [&] { return matrix::GemmColSums(ga, gb); }},
      {"gemm_colmeans_384",
       [&] { return matrix::GemmColMeans(ga, gb); }},
      {"gemm_sum_384",
       [&] {
         return matrix::DenseMatrix(1, 1, {matrix::GemmSum(ga, gb)});
       }},
  };
  constexpr int kRepeats = 5;

  std::printf("%-20s %12s %12s %8s  %s\n", "workload", "scalar[ms]",
              "vector[ms]", "speedup", "verified");
  bool all_identical = true;
  auto run = [&](const Workload& w) {
    matrix::DenseMatrix scalar_out(1, 1), vector_out(1, 1);
    const double scalar_s =
        TimeUnder(matrix::SimdTier::kScalar, kRepeats, w.body, &scalar_out);
    const double vector_s =
        TimeUnder(vector_tier, kRepeats, w.body, &vector_out);
    const bool identical = BitsEqual(scalar_out, vector_out);
    all_identical = all_identical && identical;
    const double speedup = scalar_s / vector_s;
    std::printf("%-20s %12.3f %12.3f %7.2fx  %s\n", w.id, scalar_s * 1e3,
                vector_s * 1e3, speedup,
                identical ? "bit-identical" : "MISMATCH");
    // verified_tolerance 0: the vector arm reproduced the scalar bits.
    json.Add(w.id, vector_s, speedup, /*threads=*/1,
             /*verified_tolerance=*/identical ? 0.0 : -1.0);
  };
  for (const Workload& w : workloads) run(w);

  // inv / det / exp on the 256 x 256 shape of the benchmark workspace's C
  // and D: the packed PLU's row update, the row-wise triangular solves and
  // exp's blocked products all run on the tier's axpy. (det of this input
  // overflows to +inf; the row times the elimination.) The input is made
  // only now: the scalar arm of the GEMM rows above moves with where their
  // buffers land, and allocating it first shifted gemm_colsums_384's
  // scalar time by half.
  const matrix::Matrix la = matrix::RandomInvertible(rng, 256);
  const std::vector<Workload> la_workloads = {
      {"inv_256", [&] { return matrix::Inverse(la).value().ToDense(); }},
      {"det_256",
       [&] {
         return matrix::DenseMatrix(1, 1, {matrix::Determinant(la).value()});
       }},
      {"exp_256", [&] { return matrix::MatrixExp(la).value().ToDense(); }},
  };
  for (const Workload& w : la_workloads) run(w);

  HADAD_CHECK_MSG(all_identical,
                  "vector tier diverged from the scalar reference");
  if (!json.Write()) return 1;
  std::printf("\nall vector results bit-identical to scalar reference\n");
  return 0;
}
