#ifndef HADAD_ENGINE_PROFILES_H_
#define HADAD_ENGINE_PROFILES_H_

#include "common/status.h"
#include "la/expr.h"

namespace hadad::engine {

// Execution profiles standing in for the systems of §9's evaluation (see
// docs/ARCHITECTURE.md, "Deviations from the paper"). api::Session plans
// every query with its profile before compiling it for the exec:: DAG:
//  - kNaive: R/NumPy-like — runs the pipeline exactly as stated.
//  - kSmart: SystemML-like — applies its own *internal* static rewrites
//    first (ApplySmartRewrites: matrix-chain reordering, a subset of
//    algebraic simplifications) but, like SystemML, cannot exploit the
//    cross-rule interplay or views that HADAD finds (§6.2.6, Example 6.3).
enum class Profile { kNaive, kSmart };

// The kSmart profile's internal rewriter: reorders %*% chains optimally
// (dims from `catalog`) and applies local static simplifications
// (sum(t(M)) -> sum(M), t(t(M)) -> M, sum(rowSums(M)) -> sum(M), ...).
Result<la::ExprPtr> ApplySmartRewrites(const la::ExprPtr& expr,
                                       const la::MetaCatalog& catalog);

}  // namespace hadad::engine

#endif  // HADAD_ENGINE_PROFILES_H_
