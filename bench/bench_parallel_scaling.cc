// Sequential vs parallel execution: wall clock of a sequential baseline —
// the exec:: DAG engine at 1 thread with CSE and fusion off — against the
// DAG engine with its defaults at 1/2/4/8 threads, over fig5/fig9-style
// workloads. Emits the speedup table and verifies every parallel result
// against the sequential one (1e-9 relative tolerance; the kernels are in
// fact bit-identical).
//
// Speedup at 1 thread isolates the single-core wins of CSE and fusion;
// higher thread counts add DAG- and intra-operator parallelism on machines
// with the cores to back it (stats.parallel work/span column bounds what
// the plan can reach).
//
//   $ ./build/bench/bench_parallel_scaling

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/hadad.h"
#include "exec/executor.h"

using namespace hadad;  // NOLINT

namespace {

struct Workload {
  const char* id;
  const char* text;
  const char* note;
};

double TimeSequential(const exec::Executor& sequential,
                      const la::ExprPtr& expr,
                      const engine::Workspace& workspace, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    engine::ExecStats stats;
    auto out = sequential.Run(expr, workspace, &stats);
    HADAD_CHECK_MSG(out.ok(), out.status().ToString().c_str());
    best = std::min(best, stats.seconds);
  }
  return best;
}

}  // namespace

int main() {
  std::printf("== Parallel scaling: sequential DAG (1 thread, no CSE or "
              "fusion) vs exec:: DAG engine ==\n");
  std::printf("hardware_concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  Rng rng(1234);
  engine::Workspace workspace;
  // fig9-scale dense bindings (the Morpheus grid uses ~500-row cores; the
  // GEMM chains below are the dense hot path HADAD's rewrites leave behind).
  workspace.Put("X", matrix::RandomDense(rng, 500, 500));
  workspace.Put("Y", matrix::RandomDense(rng, 500, 500));
  workspace.Put("A", matrix::RandomDense(rng, 1200, 100));
  workspace.Put("B", matrix::RandomDense(rng, 100, 1200));
  // fig5-style sparse binding (AL3-like X of Table 4).
  workspace.Put("S", matrix::RandomSparse(rng, 4000, 500, 0.002));
  // Same-shape dense operands for the fused elementwise chain.
  workspace.Put("E1", matrix::RandomDense(rng, 1500, 1200));
  workspace.Put("E2", matrix::RandomDense(rng, 1500, 1200));
  workspace.Put("E3", matrix::RandomDense(rng, 1500, 1200));
  workspace.Put("E4", matrix::RandomDense(rng, 1500, 1200));

  const std::vector<Workload> workloads = {
      {"chain4", "((X %*% Y) %*% X) %*% Y", "pure dense GEMM chain"},
      {"cse2", "((X %*% Y) %*% (X %*% Y)) + ((X %*% Y) %*% (X %*% Y))",
       "repeated subtrees: CSE folds 6 GEMMs to 2"},
      {"gram", "t(A) %*% A", "transpose-fused Gram matrix"},
      {"wide", "(X %*% Y) %*% (Y %*% X)",
       "two independent products: DAG parallelism (see work/span)"},
      {"tall", "A %*% (B %*% (A %*% B))", "tall-skinny chain as stated"},
      {"spmm", "S %*% (X %*% Y)", "row-parallel CSR SpMM feeding GEMM"},
      {"elemchain", "E1 + E2 * E3 - E4",
       "elementwise chain: 4 ops fused to one pass"},
      {"aggpush", "colSums(A %*% B)",
       "colSums pushed into the GEMM: product never materialized"},
  };
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  constexpr int kRepeats = 3;

  std::printf("%-7s %10s |", "id", "seq[ms]");
  for (int t : thread_counts) std::printf("   t=%d[ms] speedup |", t);
  std::printf(" work/span\n");

  const exec::Executor sequential(engine::ExecOptions{
      .threads = 1, .enable_cse = false, .enable_fusion = false});
  bool all_match = true;
  std::vector<double> total_par(thread_counts.size(), 0.0);
  double total_seq = 0.0;
  for (const Workload& w : workloads) {
    auto parsed = la::ParseExpression(w.text);
    HADAD_CHECK_MSG(parsed.ok(), parsed.status().ToString().c_str());
    const la::ExprPtr& expr = *parsed;

    auto reference = sequential.Run(expr, workspace);
    HADAD_CHECK_MSG(reference.ok(), reference.status().ToString().c_str());
    const double seq_s =
        TimeSequential(sequential, expr, workspace, kRepeats);
    total_seq += seq_s;
    std::printf("%-7s %10.2f |", w.id, seq_s * 1e3);

    double work_over_span = 0.0;
    for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
      exec::Executor executor(
          engine::ExecOptions{.threads = thread_counts[ti]});
      double best = 1e300;
      engine::ExecStats stats;
      for (int r = 0; r < kRepeats; ++r) {
        stats = engine::ExecStats();
        auto out = executor.Run(expr, workspace, &stats);
        HADAD_CHECK_MSG(out.ok(), out.status().ToString().c_str());
        best = std::min(best, stats.seconds);
        if (!reference->ApproxEquals(*out, 1e-9)) all_match = false;
      }
      total_par[ti] += best;
      std::printf(" %9.2f %6.2fx |", best * 1e3, seq_s / best);
      if (stats.critical_path_seconds > 0.0) {
        work_over_span =
            stats.total_operator_seconds / stats.critical_path_seconds;
      }
    }
    std::printf(" %8.2fx  %s\n", work_over_span, w.note);
  }

  std::printf("%-7s %10.2f |", "total", total_seq * 1e3);
  for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
    std::printf(" %9.2f %6.2fx |", total_par[ti] * 1e3,
                total_seq / total_par[ti]);
  }

  // Operator fusion isolated: the same DAG engine at 1 thread with the
  // fusion pass on vs off, so the speedup is purely the eliminated
  // intermediates (no CSE/kernel/thread differences in the comparison).
  std::printf("\n\n== Operator fusion at 1 thread: fused vs unfused DAG ==\n");
  std::printf("%-9s %12s %12s %8s %6s %6s\n", "id", "unfused[ms]",
              "fused[ms]", "speedup", "nodes", "elim");
  const std::vector<Workload> fusion_workloads = {
      {"elemchain", "E1 + E2 * E3 - E4", ""},
      {"aggpush", "colSums(A %*% B)", ""},
      {"aggsum", "sum(A %*% B)", ""},
  };
  for (const Workload& w : fusion_workloads) {
    auto parsed = la::ParseExpression(w.text);
    HADAD_CHECK_MSG(parsed.ok(), parsed.status().ToString().c_str());
    const la::ExprPtr& expr = *parsed;
    exec::Executor unfused(engine::ExecOptions{
        .threads = 1, .enable_fusion = false});
    exec::Executor fused(engine::ExecOptions{.threads = 1});
    double best_unfused = 1e300, best_fused = 1e300;
    engine::ExecStats stats;
    Result<matrix::Matrix> reference = unfused.Run(expr, workspace);
    HADAD_CHECK_MSG(reference.ok(), reference.status().ToString().c_str());
    for (int r = 0; r < kRepeats; ++r) {
      engine::ExecStats u, f;
      auto out_u = unfused.Run(expr, workspace, &u);
      HADAD_CHECK_MSG(out_u.ok(), out_u.status().ToString().c_str());
      auto out_f = fused.Run(expr, workspace, &f);
      HADAD_CHECK_MSG(out_f.ok(), out_f.status().ToString().c_str());
      if (!reference->ApproxEquals(*out_f, 1e-9)) all_match = false;
      best_unfused = std::min(best_unfused, u.seconds);
      best_fused = std::min(best_fused, f.seconds);
      stats = f;
    }
    std::printf("%-9s %12.2f %12.2f %7.2fx %6lld %6lld\n", w.id,
                best_unfused * 1e3, best_fused * 1e3,
                best_unfused / best_fused,
                static_cast<long long>(stats.fused_nodes),
                static_cast<long long>(stats.fused_ops_eliminated));
  }

  std::printf("\nresults %s sequential baseline (1e-9 relative)\n",
              all_match ? "match" : "DIVERGE FROM");
  return all_match ? 0 : 1;
}
