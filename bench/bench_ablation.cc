// Ablation study: what each design choice buys (docs/ARCHITECTURE.md lists
// the deviations from the paper).
//   (a) Prune_prov on/off — chase size and RW_find time (§7.3's motivation:
//       commutativity/associativity blow the space up exponentially);
//   (b) naive vs MNC estimator — rewriting quality on sparse data (§9.1.1
//       reports the naive model misses 4 efficient rewritings);
//   (c) views on/off — the marginal value of view constraints.

#include <cstdio>

#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main() {
  Rng rng(42);
  core::LaBenchConfig config;
  engine::Workspace ws = core::MakeLaBenchWorkspace(rng, config);
  la::MetaCatalog catalog = ws.BuildMetaCatalog();

  // --- (a) Pruning on/off. -------------------------------------------------
  std::printf("== Ablation (a): Prune_prov on vs off ==\n");
  std::printf("%-7s %10s %10s %10s | %10s %10s %10s\n", "id", "facts+",
              "pruned", "find[ms]", "facts+", "pruned", "find[ms]");
  std::printf("%-7s %-32s | %-32s\n", "", "           with pruning",
              "          without pruning");
  for (const char* id : {"P1.15", "P2.14", "P2.17", "P1.29", "P2.21"}) {
    const core::Pipeline* p = core::FindPipeline(id);
    pacb::OptimizerOptions with;
    pacb::Optimizer pruned(catalog, with);
    pacb::OptimizerOptions without;
    without.prune = false;
    pacb::Optimizer unpruned(catalog, without);
    auto a = pruned.OptimizeText(p->text);
    auto b = unpruned.OptimizeText(p->text);
    if (!a.ok() || !b.ok()) {
      std::printf("%s failed\n", id);
      continue;
    }
    std::printf("%-7s %10lld %10lld %10.2f | %10lld %10lld %10.2f\n", id,
                static_cast<long long>(a->chase_stats.facts_added),
                static_cast<long long>(a->chase_stats.pruned_applications),
                a->optimize_seconds * 1e3,
                static_cast<long long>(b->chase_stats.facts_added),
                static_cast<long long>(b->chase_stats.pruned_applications),
                b->optimize_seconds * 1e3);
    if (la::ToString(a->best) != la::ToString(b->best)) {
      std::printf("        NOTE: best plans differ: %s vs %s\n",
                  la::ToString(a->best).c_str(),
                  la::ToString(b->best).c_str());
    }
  }

  // --- (b) Estimator quality on sparse data. -------------------------------
  std::printf("\n== Ablation (b): naive vs MNC estimator (ultra-sparse A) "
              "==\n");
  core::LaBenchConfig sparse_config = config;
  sparse_config.a_sparsity = 0.000075;
  Rng rng2(43);
  engine::Workspace sparse_ws = core::MakeLaBenchWorkspace(rng2,
                                                           sparse_config);
  la::MetaCatalog sparse_catalog = sparse_ws.BuildMetaCatalog();
  pacb::OptimizerOptions naive_options;
  pacb::Optimizer naive_opt(sparse_catalog, naive_options);
  naive_opt.SetData(&sparse_ws.data());
  pacb::OptimizerOptions mnc_options;
  mnc_options.estimator = pacb::EstimatorKind::kMnc;
  pacb::Optimizer mnc_opt(sparse_catalog, mnc_options);
  mnc_opt.SetData(&sparse_ws.data());
  engine::Engine naive_engine(engine::Profile::kNaive, &sparse_ws);
  std::printf("%-7s %-30s %-30s\n", "id", "best (naive est.)",
              "best (MNC est.)");
  for (const char* id : {"P1.4", "P2.11", "P1.2", "P1.8"}) {
    const core::Pipeline* p = core::FindPipeline(id);
    auto a = naive_opt.OptimizeText(p->text);
    auto b = mnc_opt.OptimizeText(p->text);
    if (!a.ok() || !b.ok()) continue;
    std::printf("%-7s %-30s %-30s\n", id, la::ToString(a->best).c_str(),
                la::ToString(b->best).c_str());
  }

  // --- (c) Views on/off. ----------------------------------------------------
  std::printf("\n== Ablation (c): V_exp views on vs off ==\n");
  pacb::Optimizer no_views(catalog);
  engine::Workspace vws = core::MakeLaBenchWorkspace(rng, config);
  engine::ViewCatalog view_catalog(&vws);
  for (const core::ViewSpec& v : core::VexpViews()) {
    (void)view_catalog.MaterializeText(v.name, v.definition);
  }
  la::MetaCatalog base = vws.BuildMetaCatalog();
  for (const core::ViewSpec& v : core::VexpViews()) base.erase(v.name);
  pacb::Optimizer with_views(base);
  for (const core::ViewSpec& v : core::VexpViews()) {
    (void)with_views.AddViewText(v.name, v.definition);
  }
  std::printf("%-7s %14s %14s   %s\n", "id", "cost w/o views",
              "cost w/ views", "best w/ views");
  for (const char* id : {"P2.21", "P2.14", "P1.22", "P2.27"}) {
    const core::Pipeline* p = core::FindPipeline(id);
    auto a = no_views.OptimizeText(p->text);
    auto b = with_views.OptimizeText(p->text);
    if (!a.ok() || !b.ok()) continue;
    std::printf("%-7s %14.0f %14.0f   %s\n", id, a->best_cost, b->best_cost,
                la::ToString(b->best).c_str());
  }
  return 0;
}
