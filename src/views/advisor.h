#ifndef HADAD_VIEWS_ADVISOR_H_
#define HADAD_VIEWS_ADVISOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cost/estimator.h"
#include "la/expr.h"
#include "pacb/optimizer.h"
#include "views/workload_monitor.h"

namespace hadad::views {

struct AdvisorOptions {
  // A subexpression must have been executed at least this often to qualify.
  int64_t min_hits = 3;
  // Ranked recommendations returned per call.
  size_t max_recommendations = 4;
  // Candidates whose estimated materialized size exceeds this are skipped
  // outright (<= 0 disables the check).
  int64_t max_bytes = 0;
};

// One advisor-ranked materialization candidate.
struct Recommendation {
  std::string canonical;   // Canonical definition text (plan-cache form).
  la::ExprPtr definition;
  int64_t hits = 0;
  // γ-based recomputation estimate (intermediates + output, in estimated
  // non-zeros) from the optimizer's estimator and leaf metadata.
  double est_recompute_cost = 0.0;
  // Estimated materialized size, from the estimator's output ClassMeta.
  double est_bytes = 0.0;
  // Ranking key: hits x est_recompute_cost / est_bytes.
  double score = 0.0;
};

// The view advisor: scores WorkloadMonitor statistics into a ranked
// recommendation set. Benefit is γ alone, the cost measure the optimizer
// ranks rewritings by (§7.1): a candidate scores hits x its γ
// recomputation estimate per estimated materialized byte, so the ranking
// does not depend on which kernels (or fusion) the engine picked.
// Candidates are estimated with
// `optimizer.Estimate()`, so the caller must hold what keeps its leaf
// resolver valid (a session's state lock). `skip` filters candidates the
// caller already materialized or queued — return true to drop the
// candidate. Ranking is deterministic for identical inputs: ties fall to
// canonical text.
std::vector<Recommendation> Recommend(
    const std::vector<SubexprStat>& observed,
    const pacb::Optimizer& optimizer, const AdvisorOptions& options,
    const std::function<bool(const SubexprStat&)>& skip = nullptr);

// Estimated resident bytes of a matrix with metadata `meta` (CSR when the
// estimated density is below 0.5, dense otherwise) — the admission-control
// counterpart of matrix::ApproxBytes.
double EstimateBytes(const cost::ClassMeta& meta);

}  // namespace hadad::views

#endif  // HADAD_VIEWS_ADVISOR_H_
