// Figure 12: HADAD's RW_find as a percentage of total time
// (Q_exec + RW_find) on Morpheus, for the aggregate-only pipelines P1.10,
// P1.16 and P1.18, across the PK-FK grid. Paper: up to ~9% when the data is
// tiny and the computation nearly free, under 1% at larger sizes.

#include <cstdio>

#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main() {
  std::printf("Figure 12 reproduction: HADAD overhead %% on Morpheus "
              "(aggregate-only pipelines)\n");
  struct Case {
    const char* id;
    const char* text;
  } cases[] = {
      {"P1.10", "rowSums(t(M))"},
      {"P1.16", "sum(t(M))"},
      {"P1.18", "sum(colSums(M))"},
  };
  const double tuple_ratios[] = {2, 10, 20};
  const double feature_ratios[] = {1, 5};
  for (const Case& c : cases) {
    std::printf("\n-- %s: %s --\n", c.id, c.text);
    std::printf("%6s %6s %12s %12s %9s\n", "TR", "FR", "Qexec[ms]",
                "RWfind[ms]", "ovhd[%]");
    for (double tr : tuple_ratios) {
      for (double fr : feature_ratios) {
        Rng rng(static_cast<uint64_t>(tr * 10 + fr));
        morpheus::PkFkConfig config;
        config.n_r = 500;
        config.d_s = 20;
        config.tuple_ratio = tr;
        config.feature_ratio = fr;
        auto session =
            api::SessionBuilder()
                .AddNormalizedMatrix("M", morpheus::GeneratePkFk(rng, config))
                .Build();
        if (!session.ok()) return 1;
        // Prepare pays RW_find; ExecuteOriginal is Q_exec, the pipeline as
        // stated on the factorized DAG route.
        auto prepared = (*session)->Prepare(c.text);
        if (!prepared.ok()) return 1;
        const double rw_find = prepared->rewrite().optimize_seconds;
        engine::ExecStats stats;
        auto out = prepared->ExecuteOriginal(&stats);
        if (!out.ok()) return 1;
        const double total = stats.seconds + rw_find;
        std::printf("%6.0f %6.0f %12.3f %12.3f %9.2f\n", tr, fr,
                    stats.seconds * 1e3, rw_find * 1e3,
                    total > 0 ? 100.0 * rw_find / total : 0.0);
      }
    }
  }
  std::printf("\nPaper: up to ~9%% at the smallest sizes, <1%% at the "
              "largest.\n");
  return 0;
}
