#include "exec/plan.h"

#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "cost/cost_model.h"

namespace hadad::exec {

namespace {

using la::Expr;
using la::ExprPtr;
using la::OpKind;

bool IsScalarMeta(const cost::ClassMeta& m) {
  return m.shape.rows == 1 && m.shape.cols == 1;
}

// Lowers the semantic stack program to the matrix layer's dense-path form:
// hadamard and the scalar-path multiply are both per-element products.
matrix::FusedElementwiseProgram LowerProgram(const la::ElemProgram& program) {
  matrix::FusedElementwiseProgram lowered;
  lowered.max_stack = program.max_stack;
  lowered.steps.reserve(program.steps.size());
  for (const la::ElemStep& step : program.steps) {
    matrix::FusedStep fs;
    switch (step.kind) {
      case la::ElemStep::Kind::kPushInput:
        fs.code = matrix::FusedStep::Code::kPushInput;
        fs.input = step.input;
        break;
      case la::ElemStep::Kind::kPushConst:
        fs.code = matrix::FusedStep::Code::kPushConst;
        fs.value = step.value;
        break;
      case la::ElemStep::Kind::kApply:
        fs.code = step.op == la::OpKind::kAdd
                      ? matrix::FusedStep::Code::kAdd
                      : matrix::FusedStep::Code::kMul;
        break;
    }
    lowered.steps.push_back(fs);
  }
  return lowered;
}

// Estimated density in [0, 1]; unknown nnz counts as fully dense.
double EstimatedDensity(const cost::ClassMeta& m) {
  return m.shape.Sparsity();
}

class Compiler {
 public:
  Compiler(engine::WorkspaceView workspace, const cost::LeafMetaFn* leaf_meta,
           const CompileOptions& options)
      : workspace_(workspace), leaf_meta_(leaf_meta), options_(options) {}

  Result<CompiledPlan> Run(const ExprPtr& expr) {
    plan_.root_expr = expr;
    HADAD_ASSIGN_OR_RETURN(int32_t root, Lower(expr));
    plan_.root = root;
    RebuildEdges();
    if (options_.enable_fusion) {
      FuseElementwiseChains();
      PushDownAggregations();
      EliminateDeadNodes();
    }
    return std::move(plan_);
  }

 private:
  // Lowers one expression tree node, returning its DAG node id. Children
  // are lowered first, so node order is topological by construction.
  Result<int32_t> Lower(const ExprPtr& e) {
    std::string key;
    if (options_.enable_cse) {
      key = la::ToString(e);
      auto it = memo_.find(key);
      if (it != memo_.end()) {
        ++plan_.cse_hits;
        // Duplicate tree objects resolve to the memoized node, so the
        // fusion pass can map any expr in the tree without re-stringifying.
        expr_node_.emplace(e.get(), it->second);
        return it->second;
      }
    }

    PlanNode node;
    node.op = e->kind();
    node.expr = e.get();

    switch (e->kind()) {
      case OpKind::kMatrixRef: {
        bool transposed = false;
        if (const morpheus::NormalizedMatrix* nm =
                MatchNormalized(*e, &transposed)) {
          node.kernel = KernelKind::kNmMaterialize;
          node.normalized = nm;
          HADAD_ASSIGN_OR_RETURN(node.meta, NormalizedOperandMeta(*e, *nm));
          break;
        }
        node.kernel = KernelKind::kLoad;
        HADAD_ASSIGN_OR_RETURN(node.meta, LeafMeta(e->name()));
        break;
      }
      case OpKind::kScalarConst: {
        node.kernel = KernelKind::kScalarConst;
        node.meta.shape.rows = 1;
        node.meta.shape.cols = 1;
        node.meta.shape.nnz = e->scalar_value() == 0.0 ? 0.0 : 1.0;
        break;
      }
      default: {
        HADAD_ASSIGN_OR_RETURN(bool pushed, LowerPushdown(e, &node));
        if (pushed) break;
        // Transpose fusion: lower t(A) %*% B as one fused node over A and B
        // when both operands look dense and the product is heavy enough for
        // the blocked kernels. The transpose node itself is only created if
        // fusion declines or some other consumer references it.
        if (e->kind() == OpKind::kMultiply &&
            e->child(0)->kind() == OpKind::kTranspose) {
          return LowerTransposedMultiply(e, std::move(key));
        }
        std::vector<cost::ClassMeta> in_meta;
        for (const ExprPtr& c : e->children()) {
          HADAD_ASSIGN_OR_RETURN(int32_t id, Lower(c));
          node.inputs.push_back(id);
          in_meta.push_back(plan_.nodes[static_cast<size_t>(id)].meta);
        }
        HADAD_ASSIGN_OR_RETURN(node.meta, PropagateMeta(*e, in_meta));
        node.kernel = SelectKernel(*e, in_meta, node.meta);
        break;
      }
    }

    return Emit(std::move(node), std::move(key));
  }

  // The normalized matrix behind `e` when it is M or t(M) for a registered
  // normalized M (setting `transposed` for the latter); null otherwise.
  const morpheus::NormalizedMatrix* MatchNormalized(const Expr& e,
                                                    bool* transposed) const {
    *transposed = e.kind() == OpKind::kTranspose;
    const Expr& ref = *transposed ? *e.child(0) : e;
    if (options_.normalized == nullptr || ref.kind() != OpKind::kMatrixRef) {
      return nullptr;
    }
    return options_.normalized->Lookup(ref.name());
  }

  // Metadata of `operand`, which is M or t(M) for the normalized `nm`.
  Result<cost::ClassMeta> NormalizedOperandMeta(
      const Expr& operand, const morpheus::NormalizedMatrix& nm) {
    la::MatrixMeta meta;
    meta.rows = nm.rows();
    meta.cols = nm.cols();
    meta.nnz = static_cast<double>(nm.rows()) * static_cast<double>(nm.cols());
    const cost::ClassMeta m = estimator_.MakeBase(meta, nullptr);
    if (operand.kind() != OpKind::kTranspose) return m;
    return PropagateMeta(operand, {m});
  }

  // Morpheus's pushdown patterns, with its shape checks: colSums / rowSums /
  // sum of M or t(M), and M or t(M) multiplied with a non-scalar X whose
  // inner dimension lines up. Fills `node` and returns true when `e` is a
  // pattern; a product whose shapes do not line up still fills `node`, as
  // a generic multiply over the materialized operand (only the left
  // operand is tried when it is normalized, as in Morpheus). Any other
  // expression returns false.
  Result<bool> LowerPushdown(const ExprPtr& e, PlanNode* node) {
    bool transposed = false;
    if (e->kind() == OpKind::kColSums || e->kind() == OpKind::kRowSums ||
        e->kind() == OpKind::kSum) {
      const morpheus::NormalizedMatrix* nm =
          MatchNormalized(*e->child(0), &transposed);
      if (nm == nullptr) return false;
      HADAD_ASSIGN_OR_RETURN(cost::ClassMeta operand,
                             NormalizedOperandMeta(*e->child(0), *nm));
      HADAD_ASSIGN_OR_RETURN(node->meta, PropagateMeta(*e, {operand}));
      node->normalized = nm;
      if (e->kind() == OpKind::kSum) {
        node->kernel = KernelKind::kNmSum;  // sum(t(M)) = sum(M).
        return true;
      }
      // colSums(t(M)) = t(rowSums(M)); rowSums(t(M)) = t(colSums(M)).
      node->kernel = (e->kind() == OpKind::kColSums) != transposed
                         ? KernelKind::kNmColSums
                         : KernelKind::kNmRowSums;
      node->transposed = transposed;
      return true;
    }
    if (e->kind() != OpKind::kMultiply) return false;
    int side = 0;
    const morpheus::NormalizedMatrix* nm =
        MatchNormalized(*e->child(0), &transposed);
    if (nm == nullptr) {
      side = 1;
      nm = MatchNormalized(*e->child(1), &transposed);
    }
    if (nm == nullptr) return false;
    HADAD_ASSIGN_OR_RETURN(int32_t other, Lower(e->child(1 - side)));
    const cost::ClassMeta x = Meta(other);
    // M %*% X and X %*% t(M) = t(M %*% t(X)) right-multiply M; X %*% M and
    // t(M) %*% X = t(t(X) %*% M) left-multiply it.
    const bool right = (side == 0) != transposed;
    const int64_t inner = side == 0 ? x.shape.rows : x.shape.cols;
    if (!IsScalarMeta(x) && inner == (right ? nm->cols() : nm->rows())) {
      HADAD_ASSIGN_OR_RETURN(cost::ClassMeta operand,
                             NormalizedOperandMeta(*e->child(side), *nm));
      std::vector<cost::ClassMeta> in_meta = {operand, x};
      if (side == 1) std::swap(in_meta[0], in_meta[1]);
      HADAD_ASSIGN_OR_RETURN(node->meta, PropagateMeta(*e, in_meta));
      node->kernel =
          right ? KernelKind::kNmRightMultiply : KernelKind::kNmLeftMultiply;
      node->normalized = nm;
      node->transposed = transposed;
      node->inputs = {other};
      return true;
    }
    HADAD_ASSIGN_OR_RETURN(int32_t operand, Lower(e->child(side)));
    node->inputs = side == 0 ? std::vector<int32_t>{operand, other}
                             : std::vector<int32_t>{other, operand};
    const std::vector<cost::ClassMeta> in_meta = {Meta(node->inputs[0]),
                                                  Meta(node->inputs[1])};
    HADAD_ASSIGN_OR_RETURN(node->meta, PropagateMeta(*e, in_meta));
    node->kernel = SelectKernel(*e, in_meta, node->meta);
    return true;
  }

  // Lowers (t(inner)) %*% rhs. Children are lowered once; the fused kernel
  // is chosen when the operands qualify, otherwise an explicit transpose
  // node feeds a generically-selected multiply.
  Result<int32_t> LowerTransposedMultiply(const ExprPtr& e, std::string key) {
    const ExprPtr& transpose = e->child(0);
    const ExprPtr& inner = transpose->child(0);
    const ExprPtr& rhs = e->child(1);
    HADAD_ASSIGN_OR_RETURN(int32_t inner_id, Lower(inner));
    HADAD_ASSIGN_OR_RETURN(int32_t rhs_id, Lower(rhs));
    const cost::ClassMeta am = plan_.nodes[static_cast<size_t>(inner_id)].meta;
    const cost::ClassMeta bm = plan_.nodes[static_cast<size_t>(rhs_id)].meta;

    const double cells = static_cast<double>(am.shape.cols) *
                         static_cast<double>(bm.shape.cols);
    const bool fusible =
        !IsScalarMeta(am) && !IsScalarMeta(bm) &&
        am.shape.rows == bm.shape.rows &&
        EstimatedDensity(am) >= options_.dense_sparsity_threshold &&
        EstimatedDensity(bm) >= options_.dense_sparsity_threshold &&
        cells >= static_cast<double>(options_.parallel_cell_threshold);
    if (fusible) {
      PlanNode node;
      node.op = OpKind::kMultiply;
      node.expr = e.get();
      node.kernel = KernelKind::kGemmFusedTranspose;
      node.inputs = {inner_id, rhs_id};
      node.meta.shape.rows = am.shape.cols;
      node.meta.shape.cols = bm.shape.cols;
      node.meta.shape.nnz = -1.0;  // Dense product: treat as full.
      return Emit(std::move(node), std::move(key));
    }

    // No fusion: materialize the transpose, then multiply generically.
    int32_t t_id;
    std::string t_key;
    if (options_.enable_cse) {
      t_key = la::ToString(transpose);
      auto it = memo_.find(t_key);
      if (it != memo_.end()) {
        ++plan_.cse_hits;
        t_id = it->second;
        expr_node_.emplace(transpose.get(), t_id);
      } else {
        HADAD_ASSIGN_OR_RETURN(t_id, EmitTranspose(transpose, inner_id, am,
                                                   std::move(t_key)));
      }
    } else {
      HADAD_ASSIGN_OR_RETURN(t_id,
                             EmitTranspose(transpose, inner_id, am, ""));
    }

    PlanNode node;
    node.op = e->kind();
    node.expr = e.get();
    node.inputs = {t_id, rhs_id};
    const std::vector<cost::ClassMeta> in_meta = {
        plan_.nodes[static_cast<size_t>(t_id)].meta, bm};
    HADAD_ASSIGN_OR_RETURN(node.meta, PropagateMeta(*e, in_meta));
    node.kernel = SelectKernel(*e, in_meta, node.meta);
    return Emit(std::move(node), std::move(key));
  }

  Result<int32_t> EmitTranspose(const ExprPtr& transpose, int32_t inner_id,
                                const cost::ClassMeta& inner_meta,
                                std::string key) {
    PlanNode node;
    node.op = OpKind::kTranspose;
    node.expr = transpose.get();
    node.kernel = KernelKind::kGeneric;
    node.inputs = {inner_id};
    HADAD_ASSIGN_OR_RETURN(node.meta,
                           PropagateMeta(*transpose, {inner_meta}));
    return Emit(std::move(node), std::move(key));
  }

  int32_t Emit(PlanNode node, std::string key) {
    const int32_t id = static_cast<int32_t>(plan_.nodes.size());
    expr_node_.emplace(node.expr, id);
    plan_.nodes.push_back(std::move(node));
    if (options_.enable_cse) memo_.emplace(std::move(key), id);
    return id;
  }

  Result<cost::ClassMeta> LeafMeta(const std::string& name) {
    if (leaf_meta_ != nullptr) {
      Result<cost::ClassMeta> resolved = (*leaf_meta_)(name);
      if (resolved.ok()) {
        la::MatrixMeta meta;  // All the naive estimator below reads.
        meta.rows = resolved->shape.rows;
        meta.cols = resolved->shape.cols;
        meta.nnz = resolved->shape.nnz;
        return estimator_.MakeBase(meta, nullptr);
      }
    }
    const matrix::Matrix* m = workspace_.Find(name);
    if (m == nullptr) {
      return Status::NotFound("no matrix named '" + name + "' in workspace");
    }
    la::MatrixMeta meta;  // MakeBase counts the exact nnz from `m`.
    meta.rows = m->rows();
    meta.cols = m->cols();
    return estimator_.MakeBase(meta, m);
  }

  // Shape + nnz propagation through the same VREM relations the cost model
  // estimates γ with.
  Result<cost::ClassMeta> PropagateMeta(
      const Expr& e, const std::vector<cost::ClassMeta>& in_meta) {
    const bool lhs_scalar = !in_meta.empty() && IsScalarMeta(in_meta[0]);
    const bool rhs_scalar = in_meta.size() > 1 && IsScalarMeta(in_meta[1]);
    HADAD_ASSIGN_OR_RETURN(cost::OpRelation rel,
                           cost::RelationFor(e, lhs_scalar, rhs_scalar));
    std::vector<cost::ClassMeta> inputs = in_meta;
    if (rel.swap_args && inputs.size() == 2) {
      std::swap(inputs[0], inputs[1]);
    }
    auto meta = estimator_.Propagate(rel.relation, inputs, rel.output_index);
    if (!meta.has_value()) {
      return Status::DimensionMismatch("cannot compile " + la::ToString(e) +
                                       ": incompatible operand shapes");
    }
    return *meta;
  }

  KernelKind SelectKernel(const Expr& e,
                          const std::vector<cost::ClassMeta>& in_meta,
                          const cost::ClassMeta& out_meta) const {
    if (e.kind() != OpKind::kMultiply || in_meta.size() != 2) {
      return KernelKind::kGeneric;
    }
    const cost::ClassMeta& a = in_meta[0];
    const cost::ClassMeta& b = in_meta[1];
    if (IsScalarMeta(a) || IsScalarMeta(b)) return KernelKind::kGeneric;
    if (a.shape.cols != b.shape.rows) return KernelKind::kGeneric;
    // A matrix-vector product: the blocked kernels' per-row axpy degenerates
    // to one call per element, so the sequential kernel is faster.
    if (b.shape.cols == 1) return KernelKind::kGeneric;
    if (!cost::HeavyEnoughForParallel(out_meta,
                                      options_.parallel_cell_threshold)) {
      return KernelKind::kGeneric;
    }
    const bool a_dense =
        cost::TreatAsDense(a, options_.dense_sparsity_threshold);
    const bool b_dense =
        cost::TreatAsDense(b, options_.dense_sparsity_threshold);
    if (!b_dense) {
      // Sparse rhs: row-parallel Gustavson when the lhs is sparse too;
      // dense x sparse stays on the sequential generic kernel.
      return a_dense ? KernelKind::kGeneric : KernelKind::kSpGemm;
    }
    return a_dense ? KernelKind::kGemmBlocked : KernelKind::kSpmm;
  }

  // --- Operator-fusion pass (runs after lowering + CSE) -------------------

  const cost::ClassMeta& Meta(int32_t id) const {
    return plan_.nodes[static_cast<size_t>(id)].meta;
  }

  static bool SameShape(const cost::ClassMeta& x, const cost::ClassMeta& y) {
    return x.shape.rows == y.shape.rows && x.shape.cols == y.shape.cols;
  }

  // Recomputes consumer edges and the leaf dependency set from `inputs`.
  void RebuildEdges() {
    for (PlanNode& node : plan_.nodes) node.consumers.clear();
    std::set<std::string> leaves;
    for (int32_t id = 0; id < static_cast<int32_t>(plan_.nodes.size()); ++id) {
      const PlanNode& node = plan_.nodes[static_cast<size_t>(id)];
      for (int32_t in : node.inputs) {
        plan_.nodes[static_cast<size_t>(in)].consumers.push_back(id);
      }
      if (node.kernel == KernelKind::kLoad) leaves.insert(node.expr->name());
    }
    plan_.leaf_names.assign(leaves.begin(), leaves.end());
  }

  // Whether `node` computes an elementwise operator the fused interpreter
  // reproduces exactly: same-shape add, hadamard (with scalar broadcast),
  // or kMultiply in the form where matrix::Multiply takes the scalar path.
  bool ElementwiseFusable(const PlanNode& node) const {
    if (node.kernel != KernelKind::kGeneric) return false;
    if (!la::IsElementwiseFusableKind(node.op)) return false;
    if (node.inputs.size() != 2) return false;
    if (IsScalarMeta(node.meta)) return false;  // Scalar chains: not worth it.
    // Sparse chains keep their per-operator sparse kernels: the fused
    // interpreter's single pass only wins on dense rows (a wrong estimate
    // still executes correctly through the scheduler's matrix-level
    // fallback — this gate is purely about not pessimizing).
    if (!cost::TreatAsDense(node.meta, options_.dense_sparsity_threshold)) {
      return false;
    }
    const cost::ClassMeta& a = Meta(node.inputs[0]);
    const cost::ClassMeta& b = Meta(node.inputs[1]);
    switch (node.op) {
      case OpKind::kAdd:
        return SameShape(a, node.meta) && SameShape(b, node.meta);
      case OpKind::kHadamard:
        return (IsScalarMeta(a) || SameShape(a, node.meta)) &&
               (IsScalarMeta(b) || SameShape(b, node.meta));
      case OpKind::kMultiply:
        // Elementwise only as scalar-times-matrix — and only when
        // matrix::Multiply would actually take the scalar path (operand
        // inner dimensions mismatch): a 1x1 times a 1xC row vector is a
        // true matrix product with different zero semantics.
        if (IsScalarMeta(a) && !IsScalarMeta(b)) {
          return b.shape.rows > 1 && SameShape(b, node.meta);
        }
        if (IsScalarMeta(b) && !IsScalarMeta(a)) {
          return a.shape.cols > 1 && SameShape(a, node.meta);
        }
        return false;
      default:
        return false;
    }
  }

  // The DAG node computing `e`. Every expr object the fusion pass can
  // reach was seen by Lower() and recorded in expr_node_; the memo lookup
  // is a defensive fallback.
  int32_t ResolveNode(const Expr& e) const {
    auto it = expr_node_.find(&e);
    if (it != expr_node_.end()) return it->second;
    auto memo_it = memo_.find(la::ToString(e));
    HADAD_CHECK_MSG(memo_it != memo_.end(),
                    "fusion: subexpression missing from the CSE memo");
    return memo_it->second;
  }

  // Collapses maximal same-shape elementwise subtrees into single
  // kFusedElementwise nodes. An interior node joins its consumer's chain
  // only when that consumer is its ONLY consumer (so CSE-shared
  // subexpressions stay materialized — sharing still pays once). Interior
  // nodes become dead and are swept by EliminateDeadNodes.
  void FuseElementwiseChains() {
    // The pass proves "not shared" through consumer counts of the
    // hash-consed DAG; without CSE two tree occurrences of one
    // subexpression are distinct nodes and the memo is empty.
    if (!options_.enable_cse) return;
    const size_t n = plan_.nodes.size();
    std::vector<bool> fusable(n, false), absorbable(n, false);
    for (size_t i = 0; i < n; ++i) fusable[i] = ElementwiseFusable(plan_.nodes[i]);
    for (size_t i = 0; i < n; ++i) {
      const PlanNode& node = plan_.nodes[i];
      if (!fusable[i] || node.consumers.size() != 1) continue;
      const size_t consumer = static_cast<size_t>(node.consumers[0]);
      absorbable[i] = fusable[consumer] &&
                      SameShape(node.meta, plan_.nodes[consumer].meta);
    }
    for (size_t i = 0; i < n; ++i) {
      if (!fusable[i] || absorbable[i]) continue;  // Chain roots only.
      // Members: the root plus transitively absorbable children (each has
      // exactly one consumer, which is its parent in the chain).
      std::set<int32_t> members;
      std::vector<int32_t> frontier = {static_cast<int32_t>(i)};
      while (!frontier.empty()) {
        const int32_t id = frontier.back();
        frontier.pop_back();
        members.insert(id);
        for (int32_t in : plan_.nodes[static_cast<size_t>(id)].inputs) {
          if (absorbable[static_cast<size_t>(in)]) frontier.push_back(in);
        }
      }
      if (members.size() < 2) continue;  // Nothing to eliminate.

      std::unordered_map<int32_t, int32_t> slot_of;
      std::vector<int32_t> slot_nodes;
      const auto classify = [&](const Expr& e) -> int32_t {
        const int32_t id = ResolveNode(e);
        if (members.count(id) > 0) return -1;
        auto [it, inserted] =
            slot_of.try_emplace(id, static_cast<int32_t>(slot_nodes.size()));
        if (inserted) slot_nodes.push_back(id);
        return it->second;
      };
      PlanNode& root = plan_.nodes[i];
      la::ElemProgram program = la::FlattenElementwise(*root.expr, classify);
      root.kernel = KernelKind::kFusedElementwise;
      root.program = static_cast<int32_t>(plan_.programs.size());
      root.inputs = std::move(slot_nodes);
      plan_.kernel_programs.push_back(LowerProgram(program));
      plan_.programs.push_back(std::move(program));
      ++plan_.fused_nodes;
      plan_.fused_ops_eliminated +=
          static_cast<int64_t>(members.size()) - 1;
    }
  }

  // Rewrites sum/rowSums/colSums/mean/colMeans over a blocked dense GEMM
  // into a reducing GEMM node that takes the product's operands directly —
  // the product is never materialized. Requires the product to have no
  // other consumer. (rowMeans has no kernel
  // yet: it would need the row count threaded per row — cheap but untested;
  // it stays on the generic path.)
  void PushDownAggregations() {
    for (PlanNode& node : plan_.nodes) {
      if (node.op != OpKind::kSum && node.op != OpKind::kRowSums &&
          node.op != OpKind::kColSums && node.op != OpKind::kMean &&
          node.op != OpKind::kColMeans) {
        continue;
      }
      if (node.kernel != KernelKind::kGeneric || node.inputs.size() != 1) {
        continue;
      }
      const PlanNode& product =
          plan_.nodes[static_cast<size_t>(node.inputs[0])];
      if (product.op != OpKind::kMultiply ||
          product.kernel != KernelKind::kGemmBlocked ||
          product.consumers.size() != 1 || product.inputs.size() != 2) {
        continue;
      }
      if (!cost::ReducingGemmProfitable(
              Meta(product.inputs[0]), Meta(product.inputs[1]), product.meta,
              options_.dense_sparsity_threshold,
              options_.parallel_cell_threshold)) {
        continue;
      }
      switch (node.op) {
        case OpKind::kSum: node.kernel = KernelKind::kGemmSumReduce; break;
        case OpKind::kRowSums:
          node.kernel = KernelKind::kGemmRowSumsReduce;
          break;
        case OpKind::kColSums:
          node.kernel = KernelKind::kGemmColSumsReduce;
          break;
        case OpKind::kMean: node.kernel = KernelKind::kGemmMeanReduce; break;
        default: node.kernel = KernelKind::kGemmColMeansReduce; break;
      }
      node.inputs = product.inputs;
      ++plan_.fused_nodes;
      ++plan_.fused_ops_eliminated;  // The materialized product.
    }
  }

  // Drops nodes no longer reachable from the root (interior chain members,
  // folded products, orphaned constants), preserving topological order, and
  // recomputes edges and leaf names.
  void EliminateDeadNodes() {
    const size_t n = plan_.nodes.size();
    std::vector<bool> live(n, false);
    std::vector<int32_t> stack = {plan_.root};
    live[static_cast<size_t>(plan_.root)] = true;
    while (!stack.empty()) {
      const int32_t id = stack.back();
      stack.pop_back();
      for (int32_t in : plan_.nodes[static_cast<size_t>(id)].inputs) {
        if (!live[static_cast<size_t>(in)]) {
          live[static_cast<size_t>(in)] = true;
          stack.push_back(in);
        }
      }
    }
    std::vector<int32_t> newid(n, -1);
    std::vector<PlanNode> kept;
    kept.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      newid[i] = static_cast<int32_t>(kept.size());
      kept.push_back(std::move(plan_.nodes[i]));
    }
    for (PlanNode& node : kept) {
      for (int32_t& in : node.inputs) in = newid[static_cast<size_t>(in)];
    }
    plan_.nodes = std::move(kept);
    plan_.root = newid[static_cast<size_t>(plan_.root)];
    RebuildEdges();
  }

  engine::WorkspaceView workspace_;
  const cost::LeafMetaFn* leaf_meta_;
  const CompileOptions& options_;
  cost::NaiveMetadataEstimator estimator_;
  CompiledPlan plan_;
  std::unordered_map<std::string, int32_t> memo_;
  // Fusion-pass lookup, filled during lowering: expression object -> node
  // id (CSE duplicates map to the memoized node). It goes stale at
  // EliminateDeadNodes, which runs after every use.
  std::unordered_map<const Expr*, int32_t> expr_node_;
};

}  // namespace

const char* KernelName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kLoad: return "load";
    case KernelKind::kScalarConst: return "const";
    case KernelKind::kGemmBlocked: return "gemm_blocked";
    case KernelKind::kGemmFusedTranspose: return "gemm_tn_fused";
    case KernelKind::kSpmm: return "spmm_row_parallel";
    case KernelKind::kSpGemm: return "spgemm_row_parallel";
    case KernelKind::kFusedElementwise: return "fused_elementwise";
    case KernelKind::kGemmSumReduce: return "gemm_sum_reduce";
    case KernelKind::kGemmRowSumsReduce: return "gemm_rowsums_reduce";
    case KernelKind::kGemmColSumsReduce: return "gemm_colsums_reduce";
    case KernelKind::kGemmMeanReduce: return "gemm_mean_reduce";
    case KernelKind::kGemmColMeansReduce: return "gemm_colmeans_reduce";
    case KernelKind::kNmColSums: return "nm_colsums";
    case KernelKind::kNmRowSums: return "nm_rowsums";
    case KernelKind::kNmSum: return "nm_sum";
    case KernelKind::kNmRightMultiply: return "nm_right_multiply";
    case KernelKind::kNmLeftMultiply: return "nm_left_multiply";
    case KernelKind::kNmMaterialize: return "nm_materialize";
    case KernelKind::kGeneric: return "generic";
  }
  return "unknown";
}

std::string CompiledPlan::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    out << "#" << i << " " << la::OpName(n.op) << " [" << KernelName(n.kernel)
        << "] " << n.meta.shape.rows << "x" << n.meta.shape.cols << " <-";
    for (int32_t in : n.inputs) out << " #" << in;
    if (n.op == la::OpKind::kMatrixRef) out << " '" << n.expr->name() << "'";
    if (n.program >= 0) {
      out << " prog(" << programs[static_cast<size_t>(n.program)].fused_ops
          << " ops)";
    }
    out << "\n";
  }
  out << "root #" << root << ", cse_hits " << cse_hits << ", fused_nodes "
      << fused_nodes << ", fused_ops_eliminated " << fused_ops_eliminated
      << "\n";
  return out.str();
}

Result<CompiledPlan> Compile(const ExprPtr& expr,
                             engine::WorkspaceView workspace,
                             const cost::LeafMetaFn* leaf_meta,
                             const CompileOptions& options) {
  Compiler compiler(workspace, leaf_meta, options);
  return compiler.Run(expr);
}

}  // namespace hadad::exec
