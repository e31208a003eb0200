#include "engine/profiles.h"

#include <functional>
#include <limits>
#include <vector>

#include "common/check.h"

namespace hadad::engine {

namespace {

using la::Expr;
using la::ExprPtr;
using la::MatrixMeta;
using la::MetaCatalog;
using la::OpKind;

bool IsScalarShaped(const ExprPtr& e, const MetaCatalog& catalog) {
  auto shape = la::InferShape(*e, catalog);
  return shape.ok() && shape->rows == 1 && shape->cols == 1;
}

// Flattens a pure matrix-multiplication chain (no scalar-shaped factors).
void FlattenChain(const ExprPtr& e, const MetaCatalog& catalog,
                  std::vector<ExprPtr>& factors) {
  if (e->kind() == OpKind::kMultiply && !IsScalarShaped(e->child(0), catalog) &&
      !IsScalarShaped(e->child(1), catalog)) {
    FlattenChain(e->child(0), catalog, factors);
    FlattenChain(e->child(1), catalog, factors);
    return;
  }
  factors.push_back(e);
}

// Optimal matrix-chain multiplication order (the SystemML `mmchain`
// optimization): minimizes the total size of produced intermediates.
Result<ExprPtr> ReorderChain(const std::vector<ExprPtr>& factors,
                             const MetaCatalog& catalog) {
  const size_t n = factors.size();
  std::vector<int64_t> dims(n + 1);
  for (size_t i = 0; i < n; ++i) {
    HADAD_ASSIGN_OR_RETURN(MatrixMeta m, la::InferShape(*factors[i], catalog));
    if (i == 0) dims[0] = m.rows;
    dims[i + 1] = m.cols;
  }
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<size_t>> split(n, std::vector<size_t>(n, 0));
  for (size_t len = 2; len <= n; ++len) {
    for (size_t i = 0; i + len <= n; ++i) {
      size_t j = i + len - 1;
      cost[i][j] = std::numeric_limits<double>::infinity();
      for (size_t k = i; k < j; ++k) {
        double c = cost[i][k] + cost[k + 1][j] +
                   static_cast<double>(dims[i]) *
                       static_cast<double>(dims[j + 1]);
        if (c < cost[i][j]) {
          cost[i][j] = c;
          split[i][j] = k;
        }
      }
    }
  }
  std::function<ExprPtr(size_t, size_t)> build = [&](size_t i,
                                                     size_t j) -> ExprPtr {
    if (i == j) return factors[i];
    size_t k = split[i][j];
    return Expr::Binary(OpKind::kMultiply, build(i, k), build(k + 1, j));
  };
  return build(0, n - 1);
}

// One bottom-up pass of the kSmart profile's rewrites. Mirrors a subset of
// SystemML's *static* simplification rules — deliberately not the full
// MMC_StatAgg family, and with no cross-rule semantic reasoning (that is
// HADAD's value-add, §6.2.6).
Result<ExprPtr> SmartPass(const ExprPtr& e, const MetaCatalog& catalog,
                          bool* changed) {
  if (e->is_leaf()) return e;
  std::vector<ExprPtr> kids;
  kids.reserve(e->children().size());
  for (const ExprPtr& c : e->children()) {
    HADAD_ASSIGN_OR_RETURN(ExprPtr k, SmartPass(c, catalog, changed));
    kids.push_back(std::move(k));
  }
  ExprPtr node = e;
  if (la::Arity(e->kind()) == 1) {
    node = Expr::Unary(e->kind(), kids[0]);
  } else {
    node = Expr::Binary(e->kind(), kids[0], kids[1]);
  }

  const ExprPtr& a = node->children().empty() ? node : node->child(0);
  switch (node->kind()) {
    case OpKind::kTranspose:
      // t(t(X)) -> X.
      if (a->kind() == OpKind::kTranspose) {
        *changed = true;
        return a->child(0);
      }
      break;
    case OpKind::kSum:
      // sum(t(X)) / sum(rev(X)) / sum(rowSums(X)) / sum(colSums(X)) -> sum(X).
      if (a->kind() == OpKind::kTranspose || a->kind() == OpKind::kRev ||
          a->kind() == OpKind::kRowSums || a->kind() == OpKind::kColSums) {
        *changed = true;
        return Expr::Unary(OpKind::kSum, a->child(0));
      }
      break;
    case OpKind::kTrace:
      if (a->kind() == OpKind::kTranspose) {
        *changed = true;
        return Expr::Unary(OpKind::kTrace, a->child(0));
      }
      break;
    case OpKind::kRowSums:
      // rowSums(t(X)) -> t(colSums(X)).
      if (a->kind() == OpKind::kTranspose) {
        *changed = true;
        return Expr::Unary(
            OpKind::kTranspose,
            Expr::Unary(OpKind::kColSums, a->child(0)));
      }
      break;
    case OpKind::kColSums:
      if (a->kind() == OpKind::kTranspose) {
        *changed = true;
        return Expr::Unary(
            OpKind::kTranspose,
            Expr::Unary(OpKind::kRowSums, a->child(0)));
      }
      break;
    case OpKind::kMultiply: {
      std::vector<ExprPtr> factors;
      FlattenChain(node, catalog, factors);
      if (factors.size() >= 3) {
        HADAD_ASSIGN_OR_RETURN(ExprPtr reordered,
                               ReorderChain(factors, catalog));
        if (!reordered->Equals(*node)) {
          *changed = true;
          return reordered;
        }
      }
      break;
    }
    default:
      break;
  }
  return node;
}

}  // namespace

Result<ExprPtr> ApplySmartRewrites(const ExprPtr& expr,
                                   const MetaCatalog& catalog) {
  ExprPtr current = expr;
  for (int pass = 0; pass < 8; ++pass) {
    bool changed = false;
    HADAD_ASSIGN_OR_RETURN(current, SmartPass(current, catalog, &changed));
    if (!changed) break;
  }
  return current;
}

}  // namespace hadad::engine
