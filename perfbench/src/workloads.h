// The repository benchmark's workloads. Each drives the hadad library only
// through its public API (api::Session, server::Server, pacb results,
// engine::ExecStats, la::ParseExpression) and records what perfbench/run.py
// needs: per-request latencies of the untraced phase, correctness tallies,
// and — in a traced run — one span per public call plus the per-layer
// counters the library hands back (RewriteResult, ExecStats, metrics).

#ifndef HADAD_PERFBENCH_WORKLOADS_H_
#define HADAD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chase/engine.h"
#include "common/status.h"
#include "engine/evaluator.h"
#include "record.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: a short untraced phase (for trace.overhead_ratio and the
  // server queue-wait histogram), then the traced phase.
  bool trace = false;
};

// Attempted/failed operations behind the result's correctness fields.
// Thread-safe.
class Tally {
 public:
  void Record(bool ok, const std::string& what);
  int64_t attempted() const;
  int64_t failed() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;  // The first few, for the log.
};

// One request of the traced phase: which plan served it and what the
// library reported about deriving and executing it.
struct TracedRequest {
  int64_t request = 0;
  std::string pipeline;
  bool opt_class = false;      // P_Opt (already optimal) pipeline.
  std::string estimator;       // "naive" or "mnc".
  std::string route;           // "dag", "morpheus" or "tree".
  bool hit = false;            // Prepare answered from the plan cache.
  double rwfind_seconds = 0.0; // RewriteResult::optimize_seconds on a miss.
  bool improved = false;
  double gamma_ratio = 1.0;    // original_cost / best_cost.
  hadad::chase::ChaseStats chase;
  hadad::engine::ExecStats exec;
};

// Everything one run reports; main.cc writes it as the raw run document.
struct RunRecord {
  std::vector<double> setup_seconds;  // One entry per set-up repetition.
  std::vector<double> latencies;      // Untraced phase, seconds per read.
  std::vector<double> latency_ends;   // Completion time of each, from start.
  std::vector<std::pair<std::string, double>> writes;  // Kind, seconds.
  // Peak resident set of the untraced timed phase (of the whole process
  // when the high-water mark could not be reset at its start).
  int64_t peak_rss_kib = 0;
  bool peak_rss_timed = false;
  // Traced run only.
  std::vector<double> traced_latencies;
  std::vector<TracedRequest> requests;
  std::vector<Span> spans;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p90_ms = 0.0;
  std::vector<double> mnc_sketch_seconds;
  int64_t versions_peak = 0;
  int64_t pinned_peak = 0;
  int64_t retired_total = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  std::vector<double> morpheus_speedups;
  std::vector<double> morpheus_rwfind_seconds;
  std::vector<double> morpheus_exec_seconds;
};

const std::vector<std::string>& WorkloadNames();

// Runs `options.workload`. A non-OK status means the run could not be set
// up at all; wrong or failed operations land in `tally` instead.
hadad::Status RunWorkload(const Options& options, Tally* tally,
                          RunRecord* record);

}  // namespace perfbench

#endif  // HADAD_PERFBENCH_WORKLOADS_H_
