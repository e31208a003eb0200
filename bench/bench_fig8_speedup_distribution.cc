// Figure 8: the distribution of rewriting speedups across the 38 P¬Opt
// pipelines on the R-like (kNaive) profile with the MNC cost model. The
// paper splits the distribution at 10x: 25 pipelines below (87% of them at
// least 1.5x) and 13 at 10x-60x, with P1.5 an ~1000x outlier.
//
//   $ ./build/bench/bench_fig8_speedup_distribution [--json=PATH]

#include <cstdio>
#include <string>

#include "compare.h"
#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main(int argc, char** argv) {
  bench::FigureReport report("bench_fig8_speedup_distribution", argc, argv);
  std::printf("Figure 8 reproduction: P¬Opt speedup distribution "
              "(kNaive profile, MNC estimator)\n");
  Rng rng(42);
  auto session = bench::LaSession(core::MakeLaBenchWorkspace(rng),
                                  pacb::EstimatorKind::kMnc);

  int total = 0, below_1_5 = 0, mid = 0, high = 0;
  double best = 0;
  std::string best_id;
  report.Table("all P¬Opt pipelines", "p_not_opt");
  for (const core::Pipeline& p : core::LaBenchmark()) {
    if (p.cls != core::PipelineClass::kNotOpt) continue;
    auto row = report.Compare(*session, p);
    if (!row.has_value()) continue;
    ++total;
    if (row->speedup < 1.5) {
      ++below_1_5;
    } else if (row->speedup < 10.0) {
      ++mid;
    } else {
      ++high;
    }
    if (row->speedup > best) {
      best = row->speedup;
      best_id = p.id;
    }
  }
  std::printf("\nDistribution over %d pipelines: <1.5x: %d, 1.5x-10x: %d, "
              ">=10x: %d. Max: %s at %.1fx.\n",
              total, below_1_5, mid, high, best_id.c_str(), best);
  std::printf("Paper: 25 pipelines <10x (87%% of those >=1.5x), 13 at "
              "10-60x, P1.5 ~1000x.\n");
  return report.Finish();
}
