#include "views/maintenance.h"

namespace hadad::views {

namespace {

using la::Expr;
using la::ExprPtr;
using la::OpKind;

bool IsScalarLit(const ExprPtr& e) {
  return e->kind() == OpKind::kScalarConst;
}

// Row-partitioned substitution: returns `e` with leaf→delta when the rows
// of `e` track the rows of the leaf (e([A; Δ]) = [e(A); e(Δ)]); nullopt
// otherwise. The base case is the leaf itself, so an A-free expression is
// never row-partitioned (its rows do not grow with the append).
std::optional<ExprPtr> RowPartitionedSub(const ExprPtr& e,
                                         const std::string& leaf,
                                         const std::string& delta_name) {
  switch (e->kind()) {
    case OpKind::kMatrixRef:
      if (e->name() == leaf) return Expr::MatrixRef(delta_name);
      return std::nullopt;
    case OpKind::kMultiply: {
      const ExprPtr& lhs = e->child(0);
      const ExprPtr& rhs = e->child(1);
      // s %*% R: scalar multiply scales every row in place.
      if (IsScalarLit(lhs)) {
        auto sub = RowPartitionedSub(rhs, leaf, delta_name);
        if (sub.has_value()) return Expr::Binary(OpKind::kMultiply, lhs, *sub);
        return std::nullopt;
      }
      // R %*% C: row i of the product depends on row i of R only; C must
      // not reference the leaf (its value is constant under the append).
      if (!la::ReferencesMatrix(*rhs, leaf)) {
        auto sub = RowPartitionedSub(lhs, leaf, delta_name);
        if (sub.has_value()) return Expr::Binary(OpKind::kMultiply, *sub, rhs);
      }
      return std::nullopt;
    }
    case OpKind::kHadamard:
    case OpKind::kDivide: {
      // Element-wise scale by a scalar literal keeps rows in place.
      const ExprPtr& lhs = e->child(0);
      const ExprPtr& rhs = e->child(1);
      if (IsScalarLit(rhs)) {
        auto sub = RowPartitionedSub(lhs, leaf, delta_name);
        if (sub.has_value()) return Expr::Binary(e->kind(), *sub, rhs);
      }
      if (e->kind() == OpKind::kHadamard && IsScalarLit(lhs)) {
        auto sub = RowPartitionedSub(rhs, leaf, delta_name);
        if (sub.has_value()) return Expr::Binary(e->kind(), lhs, *sub);
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

std::optional<la::ExprPtr> BuildAppendDelta(const la::ExprPtr& definition,
                                            const std::string& leaf,
                                            const std::string& delta_name) {
  if (definition == nullptr || !la::ReferencesMatrix(*definition, leaf)) {
    return std::nullopt;
  }
  switch (definition->kind()) {
    case OpKind::kColSums:
    case OpKind::kSum: {
      auto sub = RowPartitionedSub(definition->child(0), leaf, delta_name);
      if (sub.has_value()) return Expr::Unary(definition->kind(), *sub);
      return std::nullopt;
    }
    case OpKind::kMultiply: {
      const ExprPtr& lhs = definition->child(0);
      const ExprPtr& rhs = definition->child(1);
      // t(R1) %*% R2: t([X1; D1]) %*% [X2; D2] = t(X1) X2 + t(D1) D2.
      if (lhs->kind() == OpKind::kTranspose) {
        auto s1 = RowPartitionedSub(lhs->child(0), leaf, delta_name);
        auto s2 = RowPartitionedSub(rhs, leaf, delta_name);
        if (s1.has_value() && s2.has_value()) {
          return Expr::Binary(OpKind::kMultiply,
                              Expr::Unary(OpKind::kTranspose, *s1), *s2);
        }
        return std::nullopt;
      }
      // s %*% f: the scale distributes over the delta.
      if (IsScalarLit(lhs)) {
        auto delta = BuildAppendDelta(rhs, leaf, delta_name);
        if (delta.has_value()) {
          return Expr::Binary(OpKind::kMultiply, lhs, *delta);
        }
      }
      return std::nullopt;
    }
    case OpKind::kAdd: {
      // Each addend either carries a delta or is A-free (contributes none);
      // at least one must carry (ReferencesMatrix above guarantees it).
      const ExprPtr& lhs = definition->child(0);
      const ExprPtr& rhs = definition->child(1);
      std::optional<ExprPtr> dl, dr;
      if (la::ReferencesMatrix(*lhs, leaf)) {
        dl = BuildAppendDelta(lhs, leaf, delta_name);
        if (!dl.has_value()) return std::nullopt;
      }
      if (la::ReferencesMatrix(*rhs, leaf)) {
        dr = BuildAppendDelta(rhs, leaf, delta_name);
        if (!dr.has_value()) return std::nullopt;
      }
      if (dl.has_value() && dr.has_value()) {
        return Expr::Binary(OpKind::kAdd, *dl, *dr);
      }
      return dl.has_value() ? dl : dr;
    }
    default:
      return std::nullopt;
  }
}

RefreshPlan PlanRefresh(const la::ExprPtr& definition,
                        const DataChange& change,
                        const std::string& delta_prefix) {
  std::set<std::string> leaves;
  la::CollectMatrixRefs(*definition, &leaves);
  RefreshPlan plan;
  int appended_leaves = 0;
  for (const std::string& leaf : leaves) {
    if (change.changed.contains(leaf)) {
      plan.mode = RefreshMode::kFull;
      return plan;
    }
    if (change.appended.contains(leaf)) {
      plan.leaf = leaf;
      ++appended_leaves;
    }
  }
  if (appended_leaves == 0) return plan;
  plan.mode = RefreshMode::kFull;
  if (appended_leaves > 1) return plan;
  const std::string delta_name = delta_prefix + plan.leaf;
  std::optional<ExprPtr> delta =
      BuildAppendDelta(definition, plan.leaf, delta_name);
  if (delta.has_value()) {
    plan.mode = RefreshMode::kDelta;
    plan.delta_name = delta_name;
    plan.delta = *delta;
  }
  return plan;
}

}  // namespace hadad::views
