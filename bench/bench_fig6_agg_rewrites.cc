// Figure 6: the aggregate pipelines P1.13, P1.25, P1.14 and P2.12 before and
// after rewriting (MNC cost model, log-scale in the paper). The headline:
// sum(MN) collapses to a vector expression (paper: ~50x on P1.13, up to 42x
// on P1.14/P2.12); P1.25 is dominated by picking the right multiplication
// order inside M N N^T.
//
//   $ ./build/bench/bench_fig6_agg_rewrites [--json=PATH]

#include <cstdio>

#include "compare.h"
#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main(int argc, char** argv) {
  bench::FigureReport report("bench_fig6_agg_rewrites", argc, argv);
  std::printf("Figure 6 reproduction: aggregate/statistical rewrites "
              "(MNC estimator)\n");
  std::printf("Paper shape: P1.13 ~50x; P1.14/P2.12 up to 42x; P1.25 "
              "improves via chain order.\n");
  Rng rng(42);
  const engine::Workspace data = core::MakeLaBenchWorkspace(rng);

  auto naive = bench::LaSession(data, pacb::EstimatorKind::kMnc);
  report.Table("dense bindings, kNaive profile", "naive");
  for (const char* id : {"P1.13", "P1.25", "P1.14", "P2.12"}) {
    report.Compare(*naive, id);
  }

  // The kSmart profile knows sum(t(M)) = sum(M) style rules but not the
  // cross-rule chain (Example 6.3): HADAD still wins on P1.14.
  auto smart = bench::LaSession(data, pacb::EstimatorKind::kMnc,
                                engine::Profile::kSmart);
  report.Table("kSmart profile (SystemML-like)", "smart");
  for (const char* id : {"P1.13", "P1.14"}) report.Compare(*smart, id);
  return report.Finish();
}
