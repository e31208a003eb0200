// Appendices C/D/E: the P¬Opt pipelines re-run under the naive cost model
// and under the paper's sparse-binding variations (§9.1.1's "AS/NS in the
// role of M" discussion): with an ultra-sparse M, t(M%*%N) barely gains
// (the big intermediate never densifies), while a Netflix-sparsity M still
// gains ~1.8x; (MN)M becomes much faster outright.
//
//   $ ./build/bench/bench_appendix_sparse [--json=PATH]

#include <cstdio>

#include "compare.h"
#include "core/hadad.h"

using namespace hadad;  // NOLINT

namespace {

void RunBindings(bench::FigureReport& report, const char* label,
                 const char* tag, const core::LaBenchConfig& config,
                 uint64_t seed) {
  Rng rng(seed);
  auto session = bench::LaSession(core::MakeLaBenchWorkspace(rng, config),
                                  pacb::EstimatorKind::kNaive);
  report.Table(label, tag);
  for (const char* id : {"P1.1", "P1.13", "P1.15", "P1.12", "P2.10"}) {
    report.Compare(*session, id);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::FigureReport report("bench_appendix_sparse", argc, argv);
  std::printf("Appendix C/D/E reproduction: naive cost model + sparse "
              "bindings for M\n");
  core::LaBenchConfig dense;
  RunBindings(report, "Syn1 in the role of M (dense)", "dense", dense, 50);

  core::LaBenchConfig amazon = dense;
  amazon.m_sparsity = 0.000075;  // AS: ultra sparse.
  RunBindings(report, "AS in the role of M (ultra sparse, 0.0075%)",
              "as_m", amazon, 51);

  core::LaBenchConfig netflix = dense;
  netflix.m_sparsity = 0.014;  // NS: mildly sparse.
  RunBindings(report, "NS in the role of M (1.4%)", "ns_m", netflix, 52);

  std::printf("\nPaper shape: with AS-as-M the P1.1 rewrite is cost-neutral "
              "(no dense intermediate to avoid); with NS-as-M ~1.8x; dense "
              "bindings as in Figure 5.\n");
  return report.Finish();
}
