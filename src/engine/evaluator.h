#ifndef HADAD_ENGINE_EVALUATOR_H_
#define HADAD_ENGINE_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "la/expr.h"
#include "matrix/matrix.h"

namespace hadad::engine {

// Aggregated wall-clock per operator kind, accumulated by the exec:: DAG
// runtime.
struct OpTiming {
  std::string op;        // la::OpName of the operator kind.
  int64_t count = 0;     // Physical nodes executed with this kind.
  double seconds = 0.0;  // Summed kernel wall-clock.
};

// Measured execution of one physical plan node. The vector in ExecStats is
// index-aligned with exec::CompiledPlan::nodes, so consumers (EXPLAIN
// ANALYZE, the trace exporter) can join measured time back onto the plan
// shape without a side channel. Loads and the root report nnz = 0 (they
// are not intermediates under the paper's γ measure).
struct NodeTiming {
  double seconds = 0.0;  // Kernel wall-clock of this node.
  double nnz = 0.0;      // Actual non-zeros of the node's output.
};

struct ExecStats {
  // Wall-clock seconds for the evaluation.
  double seconds = 0.0;
  // Actual total non-zeros across all intermediate results (every internal
  // node except the root) — the ground truth of the paper's cost measure γ.
  // Under the DAG engine a CSE-shared intermediate counts once.
  double intermediate_nnz = 0.0;
  // Number of operator applications executed.
  int64_t operators = 0;

  // --- DAG-engine breakdown ------------------------------------------------
  // Expression-tree nodes folded into already-compiled DAG nodes by
  // common-subexpression elimination.
  int64_t cse_hits = 0;
  // Physical plan nodes (leaves included) in the executed DAG.
  int64_t plan_nodes = 0;
  // Operator-fusion outcome: physical nodes that fuse several logical
  // operators (elementwise chains collapsed to one single-pass kernel,
  // aggregations pushed into their producing GEMM), and how many operator
  // nodes — one materialized intermediate each — fusion eliminated.
  int64_t fused_nodes = 0;
  int64_t fused_ops_eliminated = 0;
  // Degree of parallelism the run was scheduled with.
  int threads = 1;
  // SIMD kernel tier the dispatched matrix kernels ran on ("scalar",
  // "avx2", "avx512"). All tiers are bit-identical — this records speed,
  // not semantics.
  std::string kernel_tier;
  // Total kernel wall-clock summed over nodes ("work") and the longest
  // dependency chain of kernel times ("span"). work / span bounds the
  // achievable parallel speedup of the plan, so `parallel_speedup` is ready
  // to be read off as total_operator_seconds / critical_path_seconds.
  double total_operator_seconds = 0.0;
  double critical_path_seconds = 0.0;
  // Per-operator-kind timing, sorted by descending total seconds.
  std::vector<OpTiming> op_timings;
  // Per-physical-node timing, index-aligned with CompiledPlan::nodes.
  // Filled by the DAG scheduler when stats are requested.
  std::vector<NodeTiming> node_timings;
};

// Options for the parallel DAG engine (src/exec/): how many threads to
// schedule on and whether to hash-cons repeated subexpressions.
struct ExecOptions {
  // Degree of parallelism; 0 resolves to hardware_concurrency(), 1 runs the
  // DAG sequentially (still with CSE and blocked kernels).
  int threads = 0;
  // Fold structurally identical subtrees into one plan node.
  bool enable_cse = true;
  // Outputs with fewer cells than this run on the generic sequential
  // kernels; at or above it the compiler picks blocked/partitioned ones.
  // Tier-aware default (see cost::DefaultParallelCellThreshold).
  int64_t parallel_cell_threshold = cost::DefaultParallelCellThreshold();
  // Collapse elementwise chains into single-pass kernels and push
  // sum/rowSums/colSums into their producing GEMM (bit-identical results;
  // see exec::CompileOptions::enable_fusion).
  bool enable_fusion = true;
};

// Applies a single operator to already-evaluated inputs — the generic
// per-node kernel of the exec:: DAG runtime. `e` supplies the operator kind
// only; inputs.size() must equal its arity. `runner` reaches the kernels
// that can split their work (inverse and exp); their results do not depend
// on it.
Result<matrix::Matrix> ApplyOp(const la::Expr& e,
                               const std::vector<const matrix::Matrix*>& inputs,
                               const matrix::RangeRunner& runner = nullptr);

}  // namespace hadad::engine

#endif  // HADAD_ENGINE_EVALUATOR_H_
