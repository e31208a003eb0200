#ifndef HADAD_COST_COST_MODEL_H_
#define HADAD_COST_COST_MODEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "cost/estimator.h"
#include "la/expr.h"
#include "matrix/matrix.h"

namespace hadad::cost {

// Actual matrix data by name; optional, used by the MNC estimator to build
// exact base histograms (the paper computes these offline, §7.2.2). Values
// are shared immutable versions: engine::Workspace multi-versions its
// entries, and this catalog mirrors each name's current version.
using DataCatalog =
    std::map<std::string, std::shared_ptr<const matrix::Matrix>>;

struct ExprEstimate {
  // γ(E), §7.1: the sum of estimated intermediate-result sizes (in
  // non-zeros) when E is evaluated exactly as stated. Leaf scans and the
  // root's own output are free.
  double cost = 0.0;
  // Estimated metadata of E's output.
  ClassMeta output;
};

// The base metadata of the leaf matrix `name`, or NotFound. The optimizer
// answers from its memoized per-version leaf statistics.
using LeafMetaFn = std::function<Result<ClassMeta>(const std::string& name)>;

// Estimates `expr` under `estimator`, taking leaf metadata from
// `leaf_meta`. Fails on shape errors or unknown matrix names.
Result<ExprEstimate> EstimateExpression(const la::Expr& expr,
                                        const SparsityEstimator& estimator,
                                        const LeafMetaFn& leaf_meta);

// As above, with leaves from `catalog` and, when `data` binds them, the
// estimator's statistics of their data (SparsityEstimator::MakeBase).
Result<ExprEstimate> EstimateExpression(const la::Expr& expr,
                                        const la::MetaCatalog& catalog,
                                        const SparsityEstimator& estimator,
                                        const DataCatalog* data = nullptr);

// The VREM relation that encodes `e`'s top operator given its children's
// scalar-ness, plus the input order convention. Shared by the encoder-side
// cost model and the decoder. `swap_args` is set when the relation expects
// the scalar first but the expression has it second (multiMS).
struct OpRelation {
  std::string relation;
  int output_index = 0;  // For qr/lu factor selection.
  bool swap_args = false;
};
Result<OpRelation> RelationFor(const la::Expr& e, bool lhs_scalar,
                               bool rhs_scalar);

// ---------------------------------------------------------------------------
// Shape/nnz gates shared by the exec plan compiler (kernel selection, the
// operator-fusion pass, and aggregation pushdown). Centralized here so the
// compiler and the cost model agree on what "dense" and "heavy" mean.
// ---------------------------------------------------------------------------

// Estimated density at or above `dense_threshold` — the operand should be
// treated as dense when choosing between blocked-dense and sparse kernels.
// Unknown nnz counts as fully dense.
bool TreatAsDense(const ClassMeta& m, double dense_threshold);

// Output is large enough (>= `cell_threshold` estimated cells) to justify a
// partitioned/blocked kernel over the sequential generic one.
bool HeavyEnoughForParallel(const ClassMeta& out, int64_t cell_threshold);

// Default `cell_threshold` for the gate above (CompileOptions /
// ExecOptions::parallel_cell_threshold), tuned to the active SIMD kernel
// tier: the blocked kernels dispatch to vector microkernels while the
// generic path stays scalar, so on a vector tier the blocked path wins at
// ~4x smaller outputs and the gate drops accordingly. Callers that pin an
// explicit threshold are unaffected.
int64_t DefaultParallelCellThreshold();

// True when sum/rowSums/colSums over the product `a` x `b` should compile
// to a reducing GEMM kernel that never materializes the product: both
// operands estimated dense, neither a scalar, shapes conformable, and the
// product heavy enough that the saved materialization matters. Mirrors the
// conditions under which the product itself would pick the blocked dense
// GEMM, so pushdown never changes which multiply kernel semantics apply.
bool ReducingGemmProfitable(const ClassMeta& a, const ClassMeta& b,
                            const ClassMeta& product, double dense_threshold,
                            int64_t cell_threshold);

}  // namespace hadad::cost

#endif  // HADAD_COST_COST_MODEL_H_
