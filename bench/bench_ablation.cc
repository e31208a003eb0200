// Ablation study: what each design choice buys (docs/ARCHITECTURE.md lists
// the deviations from the paper). Every part runs on api::Session.
//   (a) Prune_prov on/off — chase size and RW_find time (§7.3's motivation:
//       commutativity/associativity blow the space up exponentially);
//   (b) naive vs MNC estimator — rewriting quality on sparse data (§9.1.1
//       reports the naive model misses 4 efficient rewritings), measured as
//       each estimator's rewriting executed against the pipeline as stated;
//   (c) views on/off — the marginal value of view constraints.
//
//   $ ./build/bench/bench_ablation [--json=PATH]

#include <cstdio>

#include "compare.h"
#include "core/hadad.h"

using namespace hadad;  // NOLINT

namespace {

pacb::RewriteResult Rewrite(const api::Session& session, const char* id) {
  auto prepared = session.Prepare(core::FindPipeline(id)->text);
  HADAD_CHECK_MSG(prepared.ok(), prepared.status().ToString().c_str());
  return prepared->rewrite();
}

}  // namespace

int main(int argc, char** argv) {
  bench::FigureReport report("bench_ablation", argc, argv);
  Rng rng(42);
  const engine::Workspace data = core::MakeLaBenchWorkspace(rng);

  // --- (a) Pruning on/off. -------------------------------------------------
  std::printf("== Ablation (a): Prune_prov on vs off ==\n");
  std::printf("%-7s %10s %10s %10s | %10s %10s %10s\n", "id", "facts+",
              "pruned", "find[ms]", "facts+", "pruned", "find[ms]");
  std::printf("%-7s %-32s | %-32s\n", "", "           with pruning",
              "          without pruning");
  const auto pruned = bench::LaSession(data, pacb::EstimatorKind::kNaive);
  api::SessionBuilder unpruned_builder;
  for (const auto& [name, m] : data.data()) unpruned_builder.Put(name, *m);
  pacb::OptimizerOptions without_pruning;
  without_pruning.prune = false;
  const auto unpruned =
      unpruned_builder.SetOptimizerOptions(without_pruning).Build().value();
  for (const char* id : {"P1.15", "P2.14", "P2.17", "P1.29", "P2.21"}) {
    const pacb::RewriteResult a = Rewrite(*pruned, id);
    const pacb::RewriteResult b = Rewrite(*unpruned, id);
    std::printf("%-7s %10lld %10lld %10.2f | %10lld %10lld %10.2f\n", id,
                static_cast<long long>(a.chase_stats.facts_added),
                static_cast<long long>(a.chase_stats.pruned_applications),
                a.optimize_seconds * 1e3,
                static_cast<long long>(b.chase_stats.facts_added),
                static_cast<long long>(b.chase_stats.pruned_applications),
                b.optimize_seconds * 1e3);
    if (la::ToString(a.best) != la::ToString(b.best)) {
      std::printf("        NOTE: best plans differ: %s vs %s\n",
                  la::ToString(a.best).c_str(), la::ToString(b.best).c_str());
    }
  }

  // --- (b) Estimator quality on sparse data. -------------------------------
  std::printf("\n== Ablation (b): naive vs MNC estimator (ultra-sparse A) "
              "==\n");
  {
    core::LaBenchConfig sparse_config;
    sparse_config.a_sparsity = 0.000075;
    Rng sparse_rng(43);
    const engine::Workspace sparse =
        core::MakeLaBenchWorkspace(sparse_rng, sparse_config);
    for (const pacb::EstimatorKind estimator :
         {pacb::EstimatorKind::kNaive, pacb::EstimatorKind::kMnc}) {
      const bool mnc = estimator == pacb::EstimatorKind::kMnc;
      const auto session = bench::LaSession(sparse, estimator);
      report.Table(mnc ? "MNC estimator" : "naive estimator",
                   mnc ? "sparse_a_mnc" : "sparse_a_naive");
      for (const char* id : {"P1.4", "P2.11", "P1.2", "P1.8"}) {
        report.Compare(*session, id);
      }
    }
  }

  // --- (c) Views on/off. ----------------------------------------------------
  std::printf("\n== Ablation (c): V_exp views on vs off ==\n");
  const auto with_views =
      bench::LaSession(data, pacb::EstimatorKind::kNaive,
                       engine::Profile::kNaive, core::VexpViews());
  std::printf("%-7s %14s %14s   %s\n", "id", "cost w/o views",
              "cost w/ views", "best w/ views");
  for (const char* id : {"P2.21", "P2.14", "P1.22", "P2.27"}) {
    const pacb::RewriteResult a = Rewrite(*pruned, id);
    const pacb::RewriteResult b = Rewrite(*with_views, id);
    std::printf("%-7s %14.0f %14.0f   %s\n", id, a.best_cost, b.best_cost,
                la::ToString(b.best).c_str());
  }
  return report.Finish();
}
