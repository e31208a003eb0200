// Figure 5: P1.1, P1.3, P1.4 and P1.15 before/after HADAD's rewriting (no
// views), using the MNC cost model. The paper reports speedups of roughly
// 1.3x-4x for P1.1 across systems, large wins for P1.3 ((CD)^-1 computes one
// inverse instead of two), sparse-aware wins for P1.4 with a sparse A, and
// the classic chain-order win for P1.15.
//
//   $ ./build/bench/bench_fig5_la_rewrites [--json=PATH]

#include <cstdio>

#include "compare.h"
#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main(int argc, char** argv) {
  bench::FigureReport report("bench_fig5_la_rewrites", argc, argv);
  std::printf("Figure 5 reproduction: LA rewriting without views "
              "(MNC estimator)\n");
  std::printf("Paper shape: every pipeline improves; P1.15's win grows with "
              "n^2/k^2; P1.4 improves when A is sparse.\n");

  // Dense bindings.
  {
    Rng rng(42);
    auto session = bench::LaSession(core::MakeLaBenchWorkspace(rng),
                                    pacb::EstimatorKind::kMnc);
    report.Table("dense bindings, kNaive profile (R-like)", "dense");
    for (const char* id : {"P1.1", "P1.3", "P1.15"}) {
      report.Compare(*session, id);
    }
  }

  // Sparse A for P1.4 (the paper's AL1 binding).
  {
    core::LaBenchConfig config;
    config.a_sparsity = 0.000075;  // Amazon-like ultra sparse.
    Rng rng(43);
    auto session = bench::LaSession(core::MakeLaBenchWorkspace(rng, config),
                                    pacb::EstimatorKind::kMnc);
    report.Table("P1.4 with ultra-sparse A (AL1 role)", "sparse_a");
    report.Compare(*session, "P1.4");
  }

  // The SystemML-like profile already reorders chains internally: HADAD's
  // rewriting is redundant there for P1.15 (the P¬Opt_SM effect, §9.1.3).
  {
    Rng rng(44);
    auto session = bench::LaSession(core::MakeLaBenchWorkspace(rng),
                                    pacb::EstimatorKind::kMnc,
                                    engine::Profile::kSmart);
    report.Table(
        "kSmart profile (SystemML-like): P1.15 redundant, P1.1 still wins",
        "smart");
    for (const char* id : {"P1.15", "P1.1"}) report.Compare(*session, id);
  }
  return report.Finish();
}
