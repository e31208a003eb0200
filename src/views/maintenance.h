#ifndef HADAD_VIEWS_MAINTENANCE_H_
#define HADAD_VIEWS_MAINTENANCE_H_

#include <map>
#include <optional>
#include <set>
#include <string>

#include "la/expr.h"
#include "matrix/matrix.h"

namespace hadad::views {

// View-maintenance policy under base-data mutation (ROADMAP: "view
// maintenance under data updates").
//
// Arbitrary mutation of a leaf invalidates every view whose definition
// references it — there is no general incremental story. Row *appends* are
// different: when rows Δ are appended to leaf A ([A; Δ]), a definition f
// that is *append-additive* in A satisfies
//
//     f([A; Δ]) = f(A) + f(Δ)
//
// so the stored value refreshes with one O(|Δ|)-input evaluation plus an
// element-wise add, instead of a full recomputation over [A; Δ].
//
// The additive family is derived compositionally. Row-partitioned forms R
// (the rows of R track the rows of A: R([A; Δ]) = [R(A); R(Δ)]):
//
//     R ::= A | R %*% C | s %*% R | R * s | R / s | s * R
//
// with C any A-free expression (a constant matrix under this mutation) and
// s a scalar literal. Append-additive forms f:
//
//     f ::= colSums(R) | sum(R) | t(R1) %*% R2 | f + f | f + C | C + f
//         | s %*% f
//
// t(R1) %*% R2 covers the Gram-style subexpressions (t(A) %*% A,
// t(A %*% W) %*% (A %*% W)) that dominate the paper's ML pipelines. Every
// additive form collapses the appended dimension, so a view's shape is
// stable across appends — reinstalling one never changes catalog shapes.

// Returns the delta expression f(Δ) — `definition` with every occurrence of
// `leaf` substituted by `delta_name` — when `definition` is append-additive
// in `leaf`; nullopt when it is not (the caller falls back to invalidation
// or full recomputation). The delta references `delta_name` plus the
// definition's A-free leaves only, never `leaf` itself.
std::optional<la::ExprPtr> BuildAppendDelta(const la::ExprPtr& definition,
                                            const std::string& leaf,
                                            const std::string& delta_name);

// What one mutation batch did to the data, as view maintenance sees it. A
// name whose only entry in the batch is one row append is *appended* and
// maps to its rows (borrowed from the batch). Every other name whose value
// moved is *changed*: updated, put, removed, mutated by several entries,
// or a view the batch refreshed.
struct DataChange {
  std::set<std::string> changed;
  std::map<std::string, const matrix::Matrix*> appended;
};

enum class RefreshMode {
  kUntouched,  // Reads no changed or appended name: the value still holds.
  kDelta,      // V ← V + f(Δ) over one appended leaf.
  kFull,       // Recomputed (user views) or invalidated (adaptive views).
};

struct RefreshPlan {
  RefreshMode mode = RefreshMode::kUntouched;
  // kDelta only: the appended leaf, the reserved workspace name its rows
  // must be staged under (`delta_prefix + leaf`), and f(Δ) reading them.
  std::string leaf;
  std::string delta_name;
  la::ExprPtr delta;
};

// The one maintenance rule, shared by the session's user views and the
// adaptive view store: a view that reads no changed name and exactly one
// appended name refreshes by delta when its definition is append-additive
// in that name; any other view reading a changed or appended name is kFull.
RefreshPlan PlanRefresh(const la::ExprPtr& definition,
                        const DataChange& change,
                        const std::string& delta_prefix);

}  // namespace hadad::views

#endif  // HADAD_VIEWS_MAINTENANCE_H_
