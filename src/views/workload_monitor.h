#ifndef HADAD_VIEWS_WORKLOAD_MONITOR_H_
#define HADAD_VIEWS_WORKLOAD_MONITOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/evaluator.h"
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
  // hash-consed-DAG view of a plan: `A + A` hits `A` once). Raw lifetime
  // count, never decayed — kept for reporting.
  int64_t hits = 0;
  // Decayed hit mass: each observed run before this one multiplies by
  // 2^(-runs_since / half_life) before the new hit adds 1. Equal to `hits`
  // when decay is off. The advisor thresholds and scores on this, so a
  // workload that stopped running stops outranking the current mix.
  double weight = 0.0;
  // Summed wall-clock attributed to recomputing this subtree, derived from
  // ExecStats::op_timings (per-operator-kind average seconds mapped over
  // the subtree's operators). Zero when a run carries no op_timings; the
  // advisor then falls back to γ estimates.
  // Decays alongside `weight` so seconds-per-weighted-hit stays meaningful.
  double measured_seconds = 0.0;
  // Run index (monitor-local) of the last observation; drives lazy decay.
  int64_t last_run = 0;
};

// Records the canonical subexpressions of every executed plan with hit
// counts and measured costs — the workload signal views::Recommend scores.
// Thread-safe: concurrent Observe()/Snapshot() calls are serialized on an
// internal mutex (Observe is off the execution critical path).
class WorkloadMonitor {
 public:
  // `max_tracked` caps the number of distinct canonical forms kept. At
  // capacity a new form replaces a single-hit entry (one-off forms churn,
  // repeated ones stay); if every entry repeats, new forms are dropped.
  // `half_life_runs` > 0 halves every entry's decayed weight (and measured
  // seconds) per that many observed runs of inactivity — long-lived
  // sessions then rank by the current mix, not by week-old workloads.
  // 0 disables decay (weight == hits).
  explicit WorkloadMonitor(size_t max_tracked = 1024,
                           double half_life_runs = 0.0)
      : max_tracked_(max_tracked), half_life_runs_(half_life_runs) {}

  // Records every non-leaf subexpression of `executed` (each counted once
  // per call). `stats`, when it carries op_timings, supplies the measured
  // per-node cost attribution.
  void Observe(const la::ExprPtr& executed, const engine::ExecStats* stats);

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
  // Distinct canonical forms currently tracked (<= max_tracked).
  int64_t tracked_count() const;
  void Clear();

 private:
  // 2^(-(runs_ - last_run) / half_life); 1 when decay is off. Caller holds
  // mu_ (reads runs_).
  double DecaySince(int64_t last_run) const HADAD_REQUIRES(mu_);

  const size_t max_tracked_;
  const double half_life_runs_;
  mutable common::Mutex mu_;
  std::unordered_map<std::string, SubexprStat> stats_ HADAD_GUARDED_BY(mu_);
  int64_t runs_ HADAD_GUARDED_BY(mu_) = 0;
};

}  // namespace hadad::views

#endif  // HADAD_VIEWS_WORKLOAD_MONITOR_H_
