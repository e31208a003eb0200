// Figure 7: views-based rewriting of P2.14, P2.21 (OLS), P2.25 (ALS) and
// P2.27 against the V_exp views (naive cost model). Paper shape: P2.14 up
// to 2.8x via V3 = NM; P2.21 70-150x via V1 = D^-1 (all intermediates
// become vectors); P2.25 ~65x via V4 = u1 v2^T + distribution; P2.27 4-41x
// via V9 and V5.
//
//   $ ./build/bench/bench_fig7_view_rewrites [--json=PATH]

#include <cstdio>

#include "compare.h"
#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main(int argc, char** argv) {
  bench::FigureReport report("bench_fig7_view_rewrites", argc, argv);
  std::printf("Figure 7 reproduction: views-based LA rewriting (V_exp, "
              "naive estimator)\n");
  Rng rng(42);
  auto session =
      bench::LaSession(core::MakeLaBenchWorkspace(rng),
                       pacb::EstimatorKind::kNaive, engine::Profile::kNaive,
                       core::VexpViews());
  report.Table("V_exp views materialized, kNaive profile", "vexp");
  for (const char* id : {"P2.14", "P2.21", "P2.25", "P2.27"}) {
    report.Compare(*session, id);
  }
  return report.Finish();
}
