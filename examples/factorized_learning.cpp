// Factorized learning over a PK-FK join: HADAD + Morpheus (§2 and §9.2.1).
//
// Morpheus keeps the join output M = [T | K U] normalized and pushes LA
// operators through the factorization. On colSums(M N) it can only
// factorize the multiplication (big intermediate). HADAD first rewrites to
// colSums(M) N — enabling Morpheus's colSums pushdown, whose intermediate
// is a single row (125x in the paper).

#include <cstdio>

#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main() {
  Rng rng(9);
  morpheus::PkFkConfig config;
  config.n_r = 2000;        // Dimension-table rows.
  config.d_s = 20;          // Fact-table features.
  config.tuple_ratio = 15;  // nS = 30000.
  config.feature_ratio = 5; // dR = 100.
  morpheus::NormalizedMatrix nm = morpheus::GeneratePkFk(rng, config);
  std::printf("normalized matrix M: %lld x %lld = [T %lldx%lld | K U with "
              "U %lldx%lld]\n",
              static_cast<long long>(nm.rows()),
              static_cast<long long>(nm.cols()),
              static_cast<long long>(nm.t().rows()),
              static_cast<long long>(nm.t().cols()),
              static_cast<long long>(nm.u().rows()),
              static_cast<long long>(nm.u().cols()));

  // Registering M as a normalized matrix makes the DAG compiler lower its
  // uses to factorized nm_* kernels (Morpheus's pushdowns where its rules
  // allow) while the optimizer sees M's denormalized shape.
  const int64_t m_cols = nm.cols();
  auto session = api::SessionBuilder()
                     .Put("G", matrix::RandomDense(rng, m_cols, 100))
                     .AddNormalizedMatrix("M", std::move(nm))
                     .Build();
  if (!session.ok()) {
    std::printf("session failed: %s\n", session.status().ToString().c_str());
    return 1;
  }

  const std::string pipeline = "colSums(M %*% G)";
  auto prepared = (*session)->Prepare(pipeline);
  if (!prepared.ok()) {
    std::printf("prepare failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("pipeline:  %s\n", pipeline.c_str());
  std::printf("rewriting: %s (RW_find %.1f ms)\n",
              la::ToString(prepared->plan()).c_str(),
              prepared->rewrite().optimize_seconds * 1e3);

  const int64_t m_rows = (*session)->morpheus()->Lookup("M")->rows();
  engine::ExecStats base_stats, hadad_stats;
  auto base = prepared->ExecuteOriginal(&base_stats);
  auto with_hadad = prepared->Execute(&hadad_stats);
  if (!base.ok() || !with_hadad.ok()) return 1;
  std::printf("Morpheus alone: %.1f ms (multiplication factorized, "
              "intermediate %lld x 100)\n",
              base_stats.seconds * 1e3, static_cast<long long>(m_rows));
  std::printf("with HADAD:     %.1f ms (colSums pushdown enabled, "
              "intermediate 1 x %lld)\n",
              hadad_stats.seconds * 1e3, static_cast<long long>(m_cols));
  std::printf("speedup %.1fx; results agree: %s (paper: up to 125x)\n",
              base_stats.seconds / hadad_stats.seconds,
              base->ApproxEquals(*with_hadad, 1e-6) ? "yes" : "NO");
  return 0;
}
