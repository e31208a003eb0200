#ifndef HADAD_MATRIX_SIMD_H_
#define HADAD_MATRIX_SIMD_H_

#include <cstdint>

namespace hadad::matrix {

// ---------------------------------------------------------------------------
// SIMD kernel tier with runtime CPU dispatch.
// ---------------------------------------------------------------------------
// The cache-blocked kernels and the fused-elementwise interpreter in
// blocked_kernels.cc route their innermost row loops through the function
// pointers below. The tier is selected ONCE per process, at first use, from
// runtime CPU-feature detection (overridable by environment variable), so
// one binary runs the widest vector width the host supports and still falls
// back to plain scalar C++ anywhere else.
//
// Bit-identity contract: every vector implementation performs EXACTLY the
// per-element operation sequence of the scalar reference — a separately
// rounded IEEE-754 multiply followed by a separately rounded add, lane by
// lane (the translation unit is compiled with -ffp-contract=off so neither
// the vector bodies nor the scalar tails can be contracted into FMA, whose
// single rounding would change low bits). Only loops whose iterations are
// independent per element are dispatched; every sequential reduction fold
// (rowSums/sum epilogues) stays scalar in blocked_kernels.cc. Consequently
// all tiers produce bit-for-bit identical results, and the existing
// fusion/thread-count bit-identity suites hold under any tier. NaN is the
// one exception: a NaN result is NaN in every tier, but when two NaNs meet
// in one multiply or add, operand order decides which one propagates, so
// its sign and payload may differ between the scalar loop and a vector
// body.
enum class SimdTier {
  kScalar = 0,  // Portable reference; always available.
  kAvx2 = 1,    // 4-wide doubles (ymm), x86-64 with AVX2.
  kAvx512 = 2,  // 8-wide doubles (zmm) with masked tails, x86-64 AVX-512F.
};

// "scalar" | "avx2" | "avx512" — stable strings used by metrics, spans,
// ExplainAnalyze, and the HADAD_SIMD_TIER override.
const char* TierName(SimdTier tier);

// Row-microkernel dispatch table of one tier. All pointers are non-null in
// every tier. `d` may alias `a` or `b` exactly (same base pointer); partial
// overlap is not supported.
struct SimdOps {
  SimdTier tier = SimdTier::kScalar;
  // out[j] += a * x[j] — the GEMM/SpMM inner loop (axpy epilogue seam).
  void (*axpy)(double* out, const double* x, double a, int64_t n) = nullptr;
  // d[j] = a[j] + b[j] / d[j] = a[j] * b[j] — fused-elementwise vector ops.
  void (*add_vv)(double* d, const double* a, const double* b,
                 int64_t n) = nullptr;
  void (*mul_vv)(double* d, const double* a, const double* b,
                 int64_t n) = nullptr;
  // d[j] = v[j] + s / d[j] = v[j] * s — scalar-broadcast forms.
  void (*add_vs)(double* d, const double* v, double s, int64_t n) = nullptr;
  void (*mul_vs)(double* d, const double* v, double s, int64_t n) = nullptr;
  // Inner-dimension (k) block depth for the cache-blocked GEMM: how many
  // rows of `b` stay hot while a chunk of output rows accumulates. Tunable
  // per tier; 256 measured best for every tier on the bench_simd_kernels
  // GEMM workloads (deeper tiles fell out of L2). Never affects results —
  // a cell's ascending-k accumulation order is tile-independent.
  int64_t k_tile = 256;
};

// The widest tier this CPU supports (pure CPUID probe, no env overrides).
SimdTier DetectedCpuTier();

// Applies the environment policy to a detected tier. Pure function, exposed
// for tests: `force_scalar` (HADAD_FORCE_SCALAR) set to "1" wins and pins
// kScalar; otherwise `tier_name` (HADAD_SIMD_TIER) of "scalar"/"avx2"/
// "avx512" requests that tier, clamped to `detected` (never selects an
// unsupported tier); unset/unknown values keep `detected`. Null pointers
// mean "variable unset".
SimdTier ResolveTier(SimdTier detected, const char* force_scalar,
                     const char* tier_name);

// The tier the process resolved at first use: ResolveTier(DetectedCpuTier(),
// getenv("HADAD_FORCE_SCALAR"), getenv("HADAD_SIMD_TIER")).
SimdTier ActiveTier();

// The dispatch table of ActiveTier(). Kernels read this once per call.
const SimdOps& ActiveOps();

// The dispatch table of any tier, clamped to DetectedCpuTier() (asking for
// kAvx512 on a non-AVX-512 host returns the widest supported table). The
// scalar table is always the portable reference.
const SimdOps& OpsForTier(SimdTier tier);

// Test-only: forces ActiveTier()/ActiveOps() to `tier` (clamped to the
// CPU's capability) for this object's lifetime, restoring the previous
// selection on destruction. Not thread-safe against concurrently running
// kernels — single-threaded test setup only.
class ScopedTierOverride {
 public:
  explicit ScopedTierOverride(SimdTier tier);
  ~ScopedTierOverride();
  ScopedTierOverride(const ScopedTierOverride&) = delete;
  ScopedTierOverride& operator=(const ScopedTierOverride&) = delete;

 private:
  const SimdOps* previous_;
};

}  // namespace hadad::matrix

#endif  // HADAD_MATRIX_SIMD_H_
