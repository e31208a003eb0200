#ifndef HADAD_CORE_DATA_H_
#define HADAD_CORE_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/workspace.h"

namespace hadad::core {

// Matrix-name bindings of the LA benchmark (Table 6), scaled to laptop
// size while preserving aspect ratios and sparsity fractions (see
// docs/ARCHITECTURE.md, "Deviations from the paper"). Paper sizes in
// comments.
struct LaBenchConfig {
  int64_t n_a = 20000;  // A, B rows            (paper: 1M,   AL1/NL1/Syn3).
  int64_t n_m = 1000;   // M rows / N cols      (paper: 50K,  AS/NS/Syn1).
  int64_t k = 100;      // Feature width        (paper: 100).
  int64_t n_c = 256;    // C, D side            (paper: 10K,  Syn5).
  int64_t n_r = 100;    // R side               (paper: 100,  Syn10).
  int64_t x_rows = 2000;  // X rows             (paper: 100K, AL3/NL3).
  int64_t x_cols = 1000;  // X cols             (paper: 50K).

  // Sparse bindings (the "AS in the role of M" variations, §9.1.1):
  // fraction of non-zero cells, negative = dense.
  double a_sparsity = -1.0;  // Amazon-like A would be 0.000075.
  double m_sparsity = -1.0;  // AS: 0.000075; NS: 0.014.
  double x_sparsity = 0.002;  // AL3-like X (always sparse in the paper).
};

// Builds the benchmark workspace: A, B, C, D, M, N, R, X, v1, v2, u1, vd.
// vd is a D-compatible vector (the paper's Table 6 binds v1 = Syn7 even
// where a D-length vector is required, e.g. P2.21; we bind vd explicitly).
// C and D are diagonally dominated so inverse-heavy pipelines are well
// conditioned.
engine::Workspace MakeLaBenchWorkspace(Rng& rng,
                                       const LaBenchConfig& config = {});

// Table 4/5 dataset inventory (scaled): used by bench_datasets to print the
// data the benchmarks run on.
struct DatasetSpec {
  std::string name;
  int64_t rows;
  int64_t cols;
  double sparsity;  // Non-zero fraction; 1.0 = dense.
  std::string paper_shape;  // The unscaled shape the paper used.
};
std::vector<DatasetSpec> PaperDatasets(const LaBenchConfig& config = {});

}  // namespace hadad::core

#endif  // HADAD_CORE_DATA_H_
