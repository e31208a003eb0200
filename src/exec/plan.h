#ifndef HADAD_EXEC_PLAN_H_
#define HADAD_EXEC_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "cost/estimator.h"
#include "engine/workspace.h"
#include "la/expr.h"
#include "matrix/blocked_kernels.h"
#include "morpheus/engine.h"

namespace hadad::exec {

// Physical kernel chosen per node at compile time from operand shapes, nnz
// estimates, and representations (cost::Estimator stats over the same VREM
// relations the optimizer costs with). The scheduler re-checks the actual
// runtime representation and falls back to kGeneric on a mismatch — an
// estimate can never make a result wrong, only slower.
enum class KernelKind {
  kLoad,         // Leaf: borrow the named matrix from the workspace.
  kScalarConst,  // Leaf: materialize a 1x1 constant.
  kGemmBlocked,  // Dense x dense product: cache-blocked, row-partitioned.
  kGemmFusedTranspose,  // t(A) x B on dense A, B without materializing t(A).
  kSpmm,         // Sparse (CSR) x dense product, row-parallel; covers SpMV.
  kSpGemm,       // Sparse x sparse product, row-parallel Gustavson.
  // A maximal elementwise chain (add / hadamard / scalar-multiply over one
  // shape) collapsed into one row-parallel single-pass stack program — no
  // per-operator intermediates. The node's `program` indexes
  // CompiledPlan::programs.
  kFusedElementwise,
  // sum / rowSums / colSums / mean / colMeans pushed into the producing
  // dense GEMM: the node takes the product's operands directly and reduces
  // on the fly without materializing the product. The mean variants divide
  // the finished sums once, exactly as the unfused aggregate does.
  kGemmSumReduce,
  kGemmRowSumsReduce,
  kGemmColSumsReduce,
  kGemmMeanReduce,
  kGemmColMeansReduce,
  // Factorized pushdowns over a normalized matrix M (morpheus::
  // NormalizedMatrix, Morpheus's rewrite rules), each running the
  // normalized-matrix kernel of the same name on the pool's range runner:
  // colSums / rowSums / sum of M or t(M), M %*% X and X %*% t(M) (right
  // multiply), X %*% M and t(M) %*% X (left multiply). kNmMaterialize is
  // the leaf for every other use of M: it builds the denormalized [T | K U].
  kNmColSums,
  kNmRowSums,
  kNmSum,
  kNmRightMultiply,
  kNmLeftMultiply,
  kNmMaterialize,
  // engine::ApplyOp (everything else). It gets the pool's range runner, on
  // which inv splits its triangular solves by column and exp its products
  // by row; every other operator runs sequentially.
  kGeneric,
};

const char* KernelName(KernelKind kind);

// One physical operator of the compiled DAG. `inputs`/`consumers` index
// into CompiledPlan::nodes; nodes are stored in a topological order
// (inputs strictly before their consumers).
struct PlanNode {
  la::OpKind op = la::OpKind::kMatrixRef;
  const la::Expr* expr = nullptr;  // Borrowed; CompiledPlan keeps the root.
  KernelKind kernel = KernelKind::kGeneric;
  std::vector<int32_t> inputs;
  std::vector<int32_t> consumers;
  cost::ClassMeta meta;  // Estimated shape + nnz of this node's output.
  // kFusedElementwise: index into CompiledPlan::programs; -1 otherwise.
  int32_t program = -1;
  // nm_* kernels: the normalized matrix (borrowed from the registry the plan
  // was compiled against), and whether the pattern reads t(M) — the kernel
  // then transposes its input (if any) and its output, as in
  // t(M) %*% X = t(t(X) %*% M) and colSums(t(M)) = t(rowSums(M)).
  const morpheus::NormalizedMatrix* normalized = nullptr;
  bool transposed = false;
};

struct CompiledPlan {
  la::ExprPtr root_expr;  // Owns every Expr the nodes borrow.
  std::vector<PlanNode> nodes;
  int32_t root = -1;
  // Expression-tree nodes folded into existing DAG nodes by hash-consing on
  // the canonical (la::ToString) form — the plan cache's key, reused here.
  int64_t cse_hits = 0;
  // Every workspace name the plan loads (sorted, unique) — the compiled
  // plan's dependency set, exposed for tooling and tests. api::Session
  // stamps workspace epochs at the expression level before compiling (the
  // compiler introduces no loads beyond the expression's refs, so the two
  // sets agree); a kernel chosen for stale shapes never runs on mutated
  // data because stale plans re-derive before execution.
  std::vector<std::string> leaf_names;
  // Stack programs of the kFusedElementwise nodes (PlanNode::program). The
  // semantic form keeps la::OpKind for the non-dense runtime fallback; the
  // kernel form (same indices) is the dense-path lowering, translated once
  // here so executions — cached-plan hits included — pay no per-run setup.
  std::vector<la::ElemProgram> programs;
  std::vector<matrix::FusedElementwiseProgram> kernel_programs;
  // Fusion-pass outcome: physical nodes that fuse several logical operators
  // (elementwise chains + reducing GEMMs), and the operator nodes — one
  // materialized intermediate each — the pass eliminated.
  int64_t fused_nodes = 0;
  int64_t fused_ops_eliminated = 0;

  std::string ToString() const;  // One node per line, for tests/debugging.
};

struct CompileOptions {
  bool enable_cse = true;
  // Products whose output has fewer cells than this stay on kGeneric.
  // Tier-aware default: lower on vector tiers, where the blocked kernels'
  // SIMD microkernels beat the scalar generic path at smaller outputs.
  int64_t parallel_cell_threshold = cost::DefaultParallelCellThreshold();
  // Estimated density at or above which an operand is treated as dense when
  // choosing between kGemmBlocked and kSpmm.
  double dense_sparsity_threshold = 0.5;
  // Run the operator-fusion pass after CSE: collapse elementwise chains
  // into kFusedElementwise nodes and push sum/rowSums/colSums into their
  // producing dense GEMM. Fused plans are bit-identical to unfused plans at
  // every thread count; disable to compare or debug. Elementwise-chain
  // fusion additionally requires enable_cse (the pass relies on the CSE
  // memo to prove an interior node is not shared).
  bool enable_fusion = true;
  // Registry of normalized matrices: names it holds compile to nm_*
  // kernels instead of workspace loads. Borrowed and immutable; may be null.
  const morpheus::MorpheusEngine* normalized = nullptr;
};

// Lowers `expr` into a physical DAG: hash-consing CSE over canonical
// subexpression text, estimator-driven kernel selection, transpose fusion
// for t(A) %*% B, factorized pushdowns over the names in
// CompileOptions::normalized (nm_* kernels, matched before any other
// lowering), then the operator-fusion pass (elementwise chains and
// aggregation pushdown — see CompileOptions::enable_fusion). A leaf's rows,
// cols and nnz come from `leaf_meta` as it answers them; only a name it
// does not know (or every name, when it is null) is read from the
// workspace, with its nnz counted. api::Session passes
// pacb::Optimizer::LeafResolver(), so a leaf version is counted once, and
// the workspace answers only for its staged refresh deltas. Unknown names
// and shape mismatches surface as Status. Safe to call concurrently when
// `leaf_meta` is.
// `workspace` may be a live Workspace (implicitly converted) or a pinned
// engine::Snapshot — compilation against a snapshot sees the pinned
// versions only, and must pass no resolver that reads live state.
Result<CompiledPlan> Compile(const la::ExprPtr& expr,
                             engine::WorkspaceView workspace,
                             const cost::LeafMetaFn* leaf_meta,
                             const CompileOptions& options);

}  // namespace hadad::exec

#endif  // HADAD_EXEC_PLAN_H_
