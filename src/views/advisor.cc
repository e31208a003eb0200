#include "views/advisor.h"

#include <algorithm>
#include <utility>

namespace hadad::views {

namespace {

bool ReferencesAnyMatrix(const la::Expr& e) {
  if (e.kind() == la::OpKind::kMatrixRef) return true;
  for (const la::ExprPtr& child : e.children()) {
    if (ReferencesAnyMatrix(*child)) return true;
  }
  return false;
}

}  // namespace

double EstimateBytes(const cost::ClassMeta& meta) {
  const double cells = meta.shape.Cells();
  const double nnz = meta.shape.NnzOrDense();
  const double dense_bytes = cells * 8.0;
  // CSR: value + column index per non-zero, plus the row-pointer array.
  const double sparse_bytes =
      nnz * 16.0 + (static_cast<double>(meta.shape.rows) + 1.0) * 8.0;
  return (cells > 0 && nnz / cells < 0.5) ? sparse_bytes : dense_bytes;
}

std::vector<Recommendation> Recommend(
    const std::vector<SubexprStat>& observed,
    const pacb::Optimizer& optimizer, const AdvisorOptions& options,
    const std::function<bool(const SubexprStat&)>& skip) {
  std::vector<Recommendation> recs;
  for (const SubexprStat& stat : observed) {
    if (stat.hits < options.min_hits) continue;
    if (stat.expr == nullptr || stat.expr->is_leaf()) continue;
    // A view of pure scalar arithmetic saves nothing worth storing.
    if (!ReferencesAnyMatrix(*stat.expr)) continue;
    if (skip != nullptr && skip(stat)) continue;

    auto est = optimizer.Estimate(*stat.expr);
    if (!est.ok()) continue;  // Shape moved under us; not a candidate.

    Recommendation rec;
    rec.canonical = stat.canonical;
    rec.definition = stat.expr;
    rec.hits = stat.hits;
    // Recompute estimate: intermediates (γ) plus producing the output
    // itself — reading a materialized view pays neither.
    rec.est_recompute_cost = est->cost + est->output.SizeEstimate();
    rec.est_bytes = EstimateBytes(est->output);
    if (options.max_bytes > 0 &&
        rec.est_bytes > static_cast<double>(options.max_bytes)) {
      continue;
    }
    // Every candidate is scored in γ units, so one sweep compares like
    // with like.
    rec.score = static_cast<double>(stat.hits) * rec.est_recompute_cost /
                std::max(1.0, rec.est_bytes);
    recs.push_back(std::move(rec));
  }
  std::sort(recs.begin(), recs.end(),
            [](const Recommendation& a, const Recommendation& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.canonical < b.canonical;
            });
  if (recs.size() > options.max_recommendations) {
    recs.resize(options.max_recommendations);
  }
  return recs;
}

}  // namespace hadad::views
