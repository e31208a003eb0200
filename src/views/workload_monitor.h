#ifndef HADAD_VIEWS_WORKLOAD_MONITOR_H_
#define HADAD_VIEWS_WORKLOAD_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "la/expr.h"

namespace hadad::views {

// One canonical subexpression observed across the session's executed plans.
struct SubexprStat {
  // The plan-cache canonical form (la::ToString) — the same key the exec
  // compiler hash-conses DAG nodes on, so a subexpression shared by many
  // pipelines accumulates into one entry.
  std::string canonical;
  la::ExprPtr expr;  // A representative tree for this canonical form.
  // Executions that computed this subexpression (counted once per run, the
  // hash-consed-DAG view of a plan: `A + A` hits `A` once).
  int64_t hits = 0;
};

// Records the canonical subexpressions of every executed plan with hit
// counts — the workload signal views::Recommend scores (frequency times the
// γ recomputation estimate; no timings are read). Thread-safe: concurrent
// Observe()/Snapshot() calls are serialized on an internal mutex (Observe
// is off the execution critical path).
class WorkloadMonitor {
 public:
  // Distinct canonical forms kept at most. At capacity a new form replaces
  // a single-hit entry (one-off forms churn, repeated ones stay); if every
  // entry repeats, new forms are dropped.
  static constexpr size_t kMaxTracked = 1024;

  // Records every non-leaf subexpression of `executed` (each counted once
  // per call).
  void Observe(const la::ExprPtr& executed);

  // Stable-ordered copy of the accumulated statistics (sorted by canonical
  // text, for deterministic advisor input).
  std::vector<SubexprStat> Snapshot() const;

  // Drops the statistics of `root` and every subtree of it. Called when a
  // view over `root` materializes: pipelines rewritten onto the view stop
  // recomputing these, so their accumulated benefit is no longer evidence
  // (a subexpression still computed elsewhere re-accumulates from later
  // observations).
  void Forget(const la::ExprPtr& root);

  int64_t observed_runs() const;
  // Distinct canonical forms currently tracked (<= kMaxTracked).
  int64_t tracked_count() const;

 private:
  mutable common::Mutex mu_;
  std::unordered_map<std::string, SubexprStat> stats_ HADAD_GUARDED_BY(mu_);
  int64_t runs_ HADAD_GUARDED_BY(mu_) = 0;
};

}  // namespace hadad::views

#endif  // HADAD_VIEWS_WORKLOAD_MONITOR_H_
