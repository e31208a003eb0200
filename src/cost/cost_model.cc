#include "cost/cost_model.h"

#include "la/vrem.h"
#include "matrix/simd.h"

namespace hadad::cost {

namespace {

namespace vrem = la::vrem;
using la::Expr;
using la::OpKind;

struct NodeEstimate {
  double inner_cost = 0.0;  // Intermediates strictly below this node.
  ClassMeta meta;
  bool is_leaf = false;
};

class Estimator {
 public:
  Estimator(const SparsityEstimator& estimator, const LeafMetaFn& leaf_meta)
      : estimator_(estimator), leaf_meta_(leaf_meta) {}

  Result<NodeEstimate> Visit(const Expr& e) {
    NodeEstimate out;
    switch (e.kind()) {
      case OpKind::kMatrixRef: {
        HADAD_ASSIGN_OR_RETURN(out.meta, leaf_meta_(e.name()));
        out.is_leaf = true;
        return out;
      }
      case OpKind::kScalarConst: {
        out.meta.shape.rows = 1;
        out.meta.shape.cols = 1;
        out.meta.shape.nnz = e.scalar_value() == 0.0 ? 0.0 : 1.0;
        out.is_leaf = true;
        return out;
      }
      default:
        break;
    }
    std::vector<NodeEstimate> kids;
    kids.reserve(e.children().size());
    for (const la::ExprPtr& c : e.children()) {
      HADAD_ASSIGN_OR_RETURN(NodeEstimate k, Visit(*c));
      kids.push_back(std::move(k));
    }
    const bool lhs_scalar = kids[0].meta.shape.rows == 1 &&
                            kids[0].meta.shape.cols == 1;
    const bool rhs_scalar = kids.size() > 1 &&
                            kids[1].meta.shape.rows == 1 &&
                            kids[1].meta.shape.cols == 1;
    HADAD_ASSIGN_OR_RETURN(OpRelation rel,
                           RelationFor(e, lhs_scalar, rhs_scalar));
    std::vector<ClassMeta> inputs;
    if (rel.swap_args) {
      inputs = {kids[1].meta, kids[0].meta};
    } else {
      for (const NodeEstimate& k : kids) inputs.push_back(k.meta);
    }
    auto meta = estimator_.Propagate(rel.relation, inputs, rel.output_index);
    if (!meta.has_value()) {
      return Status::DimensionMismatch("cannot estimate " + ToString(e));
    }
    out.meta = *meta;
    // γ accumulates each child's subtree cost plus the child's own output
    // when the child is itself computed (not a leaf scan).
    for (const NodeEstimate& k : kids) {
      out.inner_cost += k.inner_cost;
      if (!k.is_leaf) out.inner_cost += k.meta.SizeEstimate();
    }
    return out;
  }

 private:
  const SparsityEstimator& estimator_;
  const LeafMetaFn& leaf_meta_;
};

}  // namespace

Result<OpRelation> RelationFor(const la::Expr& e, bool lhs_scalar,
                               bool rhs_scalar) {
  OpRelation out;
  switch (e.kind()) {
    case OpKind::kTranspose: out.relation = vrem::kTr; return out;
    case OpKind::kInverse: out.relation = vrem::kInvM; return out;
    case OpKind::kDet: out.relation = vrem::kDet; return out;
    case OpKind::kTrace: out.relation = vrem::kTrace; return out;
    case OpKind::kDiag: out.relation = vrem::kDiag; return out;
    case OpKind::kExp: out.relation = vrem::kExp; return out;
    case OpKind::kAdjoint: out.relation = vrem::kAdj; return out;
    case OpKind::kRev: out.relation = vrem::kRev; return out;
    case OpKind::kSum: out.relation = vrem::kSum; return out;
    case OpKind::kRowSums: out.relation = vrem::kRowSums; return out;
    case OpKind::kColSums: out.relation = vrem::kColSums; return out;
    case OpKind::kMin: out.relation = vrem::kMin; return out;
    case OpKind::kMax: out.relation = vrem::kMax; return out;
    case OpKind::kMean: out.relation = vrem::kMean; return out;
    case OpKind::kVar: out.relation = vrem::kVar; return out;
    case OpKind::kRowMins: out.relation = vrem::kRowMin; return out;
    case OpKind::kRowMaxs: out.relation = vrem::kRowMax; return out;
    case OpKind::kRowMeans: out.relation = vrem::kRowMean; return out;
    case OpKind::kRowVars: out.relation = vrem::kRowVar; return out;
    case OpKind::kColMins: out.relation = vrem::kColMin; return out;
    case OpKind::kColMaxs: out.relation = vrem::kColMax; return out;
    case OpKind::kColMeans: out.relation = vrem::kColMean; return out;
    case OpKind::kColVars: out.relation = vrem::kColVar; return out;
    case OpKind::kCholesky: out.relation = vrem::kCho; return out;
    case OpKind::kQrQ:
      out.relation = vrem::kQr;
      out.output_index = 0;
      return out;
    case OpKind::kQrR:
      out.relation = vrem::kQr;
      out.output_index = 1;
      return out;
    case OpKind::kLuL:
      out.relation = vrem::kLu;
      out.output_index = 0;
      return out;
    case OpKind::kLuU:
      out.relation = vrem::kLu;
      out.output_index = 1;
      return out;
    case OpKind::kPluL:
      out.relation = vrem::kLup;
      out.output_index = 0;
      return out;
    case OpKind::kPluU:
      out.relation = vrem::kLup;
      out.output_index = 1;
      return out;
    case OpKind::kPluP:
      out.relation = vrem::kLup;
      out.output_index = 2;
      return out;
    case OpKind::kMultiply:
    case OpKind::kHadamard:
      if (lhs_scalar && rhs_scalar) {
        out.relation = vrem::kMultiS;
      } else if (lhs_scalar) {
        out.relation = vrem::kMultiMS;
      } else if (rhs_scalar) {
        out.relation = vrem::kMultiMS;
        out.swap_args = true;
      } else if (e.kind() == OpKind::kMultiply) {
        out.relation = vrem::kMultiM;
      } else {
        out.relation = vrem::kMultiE;
      }
      return out;
    case OpKind::kAdd:
      out.relation = (lhs_scalar && rhs_scalar) ? vrem::kAddS : vrem::kAddM;
      return out;
    case OpKind::kDivide:
      if (lhs_scalar && rhs_scalar) {
        out.relation = vrem::kDivS;
      } else if (rhs_scalar) {
        out.relation = vrem::kDivMS;
      } else {
        out.relation = vrem::kDivM;
      }
      return out;
    case OpKind::kDirectSum: out.relation = vrem::kSumD; return out;
    case OpKind::kKronecker: out.relation = vrem::kProductD; return out;
    case OpKind::kCbind: out.relation = vrem::kCbind; return out;
    case OpKind::kMatrixRef:
    case OpKind::kScalarConst:
      break;
  }
  return Status::InvalidArgument("leaf has no operator relation");
}

Result<ExprEstimate> EstimateExpression(const la::Expr& expr,
                                        const SparsityEstimator& estimator,
                                        const LeafMetaFn& leaf_meta) {
  Estimator walker(estimator, leaf_meta);
  HADAD_ASSIGN_OR_RETURN(NodeEstimate root, walker.Visit(expr));
  ExprEstimate out;
  out.cost = root.inner_cost;
  out.output = root.meta;
  return out;
}

Result<ExprEstimate> EstimateExpression(const la::Expr& expr,
                                        const la::MetaCatalog& catalog,
                                        const SparsityEstimator& estimator,
                                        const DataCatalog* data) {
  const LeafMetaFn leaf_meta =
      [&](const std::string& name) -> Result<ClassMeta> {
    auto it = catalog.find(name);
    if (it == catalog.end()) {
      return Status::NotFound("unknown matrix '" + name + "'");
    }
    const matrix::Matrix* m = nullptr;
    if (data != nullptr) {
      auto dit = data->find(name);
      if (dit != data->end()) m = dit->second.get();
    }
    return estimator.MakeBase(it->second, m);
  };
  return EstimateExpression(expr, estimator, leaf_meta);
}

bool TreatAsDense(const ClassMeta& m, double dense_threshold) {
  return m.shape.Sparsity() >= dense_threshold;
}

bool HeavyEnoughForParallel(const ClassMeta& out, int64_t cell_threshold) {
  return out.shape.Cells() >= static_cast<double>(cell_threshold);
}

int64_t DefaultParallelCellThreshold() {
  return matrix::ActiveTier() == matrix::SimdTier::kScalar ? 4096 : 1024;
}

bool ReducingGemmProfitable(const ClassMeta& a, const ClassMeta& b,
                            const ClassMeta& product, double dense_threshold,
                            int64_t cell_threshold) {
  const bool a_scalar = a.shape.rows == 1 && a.shape.cols == 1;
  const bool b_scalar = b.shape.rows == 1 && b.shape.cols == 1;
  if (a_scalar || b_scalar) return false;
  if (a.shape.cols != b.shape.rows) return false;
  return TreatAsDense(a, dense_threshold) && TreatAsDense(b, dense_threshold) &&
         HeavyEnoughForParallel(product, cell_threshold);
}

}  // namespace hadad::cost
