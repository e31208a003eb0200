// Tables 4 and 5: the datasets behind the LA benchmark, regenerated
// synthetically at laptop scale (aspect ratios and sparsity fractions
// preserved; see docs/ARCHITECTURE.md, "Deviations from the paper").

#include <cstdio>

#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main() {
  core::LaBenchConfig config;
  std::printf("== Tables 4+5: datasets (scaled reproductions) ==\n");
  std::printf("%-22s %8s %8s %12s   %s\n", "dataset", "rows", "cols",
              "sparsity", "paper shape");
  for (const core::DatasetSpec& d : core::PaperDatasets(config)) {
    std::printf("%-22s %8lld %8lld %12.6f   %s\n", d.name.c_str(),
                static_cast<long long>(d.rows),
                static_cast<long long>(d.cols), d.sparsity,
                d.paper_shape.c_str());
  }

  Rng rng(42);
  engine::Workspace ws = core::MakeLaBenchWorkspace(rng, config);
  std::printf("\n== Table 6 bindings actually materialized ==\n");
  std::printf("%-6s %8s %8s %12s %10s\n", "name", "rows", "cols", "nnz",
              "storage");
  for (const auto& [name, m] : ws.data()) {
    std::printf("%-6s %8lld %8lld %12lld %10s\n", name.c_str(),
                static_cast<long long>(m->rows()),
                static_cast<long long>(m->cols()),
                static_cast<long long>(m->Nnz()),
                m->is_sparse() ? "CSR" : "dense");
  }
  return 0;
}
