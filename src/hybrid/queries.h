#ifndef HADAD_HYBRID_QUERIES_H_
#define HADAD_HYBRID_QUERIES_H_

#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "common/status.h"
#include "hybrid/dataset.h"
#include "pacb/optimizer.h"

namespace hadad::hybrid {

// The ten micro-hybrid Q_LA pipelines (Table 7, adapted to self-consistent
// scaled shapes; see docs/ARCHITECTURE.md, "Deviations from the paper").
// Names: M the join matrix, NF the filtered sparse matrix, T/K/U the
// normalized pieces, and synthetic aux matrices X (q x nS), X2 (nS x nH),
// X4/C5 (q x nS), C2 (nH x nH), Y (dM x nH), u (nS x 1), v/u5/u6 (nH x 1).
struct HybridQuery {
  std::string id;
  std::string qla;
};
std::vector<HybridQuery> MicroBenchmarkQueries();

// Hybrid views (§9.2.2): defined over the *base* tables-as-matrices, so a
// rewriting can only reach them through Morpheus's rules + LA properties:
//   V3 = rowSums(T) + K rowSums(U)            ( = rowSums(M) )
//   V4 = [colSums(T) | colSums(K) U]          ( = colSums(M) )
//   V5 = [C5 T | (C5 K) U]                    ( = C5 M )
struct HybridView {
  std::string name;
  std::string definition;
};
std::vector<HybridView> HybridViews();

// Builds the benchmark api::Session: workspace with T/K/U/M/NF, aux
// matrices and the materialized hybrid views, optimizer configured with the
// morpheusJoin declaration and view constraints. `nf` is the (already
// filtered) analysis matrix bound as "NF".
Result<std::shared_ptr<api::Session>> BuildHybridSession(
    Rng& rng, const Preprocessed& pre, matrix::Matrix nf,
    pacb::EstimatorKind estimator);

}  // namespace hadad::hybrid

#endif  // HADAD_HYBRID_QUERIES_H_
