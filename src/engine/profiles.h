#ifndef HADAD_ENGINE_PROFILES_H_
#define HADAD_ENGINE_PROFILES_H_

#include "common/status.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/expr.h"

namespace hadad::engine {

// Execution-engine profiles standing in for the systems of §9's evaluation
// (see docs/ARCHITECTURE.md, "Deviations from the paper"):
//  - kNaive: R/NumPy-like — runs the pipeline exactly as stated.
//  - kSmart: SystemML-like — applies its own *internal* static rewrites
//    first (matrix-chain reordering, a subset of algebraic simplifications)
//    but, like SystemML, cannot exploit the cross-rule interplay or views
//    that HADAD finds (§6.2.6, Example 6.3).
enum class Profile { kNaive, kSmart };

class Engine {
 public:
  Engine(Profile profile, const Workspace* workspace)
      : profile_(profile), workspace_(workspace) {}

  Profile profile() const { return profile_; }

  // The plan the engine would actually run (identity for kNaive; internal
  // rewrites applied for kSmart). kSmart reads operand shapes from
  // `catalog` when non-null (api::Session passes its leaf catalog, which
  // also covers normalized matrices), else from the workspace.
  Result<la::ExprPtr> Plan(const la::ExprPtr& expr,
                           const la::MetaCatalog* catalog = nullptr) const;

  // Plans then executes.
  Result<matrix::Matrix> Run(const la::ExprPtr& expr,
                             ExecStats* stats = nullptr) const;

 private:
  Profile profile_;
  const Workspace* workspace_;
};

// The kSmart profile's internal rewriter, exposed for testing: reorders
// %*% chains optimally (dims from `catalog`) and applies local static
// simplifications (sum(t(M)) -> sum(M), t(t(M)) -> M, sum(rowSums(M)) ->
// sum(M), ...).
Result<la::ExprPtr> ApplySmartRewrites(const la::ExprPtr& expr,
                                       const la::MetaCatalog& catalog);

}  // namespace hadad::engine

#endif  // HADAD_ENGINE_PROFILES_H_
