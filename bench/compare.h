// The paper figures' comparison of a pipeline as stated against HADAD's
// rewriting, in §9.1.1's vocabulary, both executed by one api::Session on
// its exec:: DAG:
//   Q_exec   = PreparedQuery::ExecuteOriginal (the pipeline as stated,
//              planned by the session's engine::Profile);
//   RW_exec  = PreparedQuery::Execute (HADAD's rewriting);
//   RW_find  = the optimizer's time,
//              PreparedQuery::rewrite().optimize_seconds;
//   overhead = RW_find / (Q_exec + RW_find) (§9.1.3).
// Each form runs once to warm up; then the two alternate (Q_exec, RW_exec,
// Q_exec, ...) until each has run at least kMinRuns times and summed at
// least kMinSeconds of ExecStats::seconds, or has run kMaxRuns times. Each
// side reports its median, so a row whose two sides execute the same plan
// reads near 1x however the host's load drifts. The two results must agree
// within kAgreeTolerance (rewriting reorders floating-point operations).
//
// FigureReport prints the fixed-width table the figure benches share and,
// with `--json=PATH` (bench_json.h), records one row per pipeline:
// `seconds` = RW_exec, `speedup` = Q_exec / RW_exec, `verified_tolerance` =
// kAgreeTolerance. Its exit status is 1 when a comparison failed or
// disagreed.

#ifndef HADAD_BENCH_COMPARE_H_
#define HADAD_BENCH_COMPARE_H_

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/hadad.h"

namespace hadad::bench {

inline constexpr double kAgreeTolerance = 1e-5;
inline constexpr size_t kMinRuns = 5;
inline constexpr double kMinSeconds = 0.020;
inline constexpr size_t kMaxRuns = 200;

struct ComparisonRow {
  std::string id;
  std::string rewrite;
  double q_exec_seconds = 0.0;
  double rw_exec_seconds = 0.0;
  double rw_find_seconds = 0.0;
  double speedup = 1.0;
  double overhead_pct = 0.0;
  bool values_agree = true;
};

// A 1-thread session over the matrices of `data` with `views` materialized,
// the given estimator and profile. Aborts with the builder's error when the
// session cannot be built.
inline std::shared_ptr<api::Session> LaSession(
    const engine::Workspace& data, pacb::EstimatorKind estimator,
    engine::Profile profile = engine::Profile::kNaive,
    const std::vector<core::ViewSpec>& views = {}) {
  api::SessionBuilder builder;
  for (const auto& [name, m] : data.data()) builder.Put(name, *m);
  for (const core::ViewSpec& v : views) builder.AddView(v.name, v.definition);
  auto session = builder.SetEstimator(estimator).SetProfile(profile).Build();
  HADAD_CHECK_MSG(session.ok(), session.status().ToString().c_str());
  return std::move(session).value();
}

class FigureReport {
 public:
  FigureReport(std::string benchmark, int argc, char** argv)
      : json_(std::move(benchmark), argc, argv) {}

  // Prints a table header; `tag` prefixes the JSON workload names of the
  // rows that follow ("<tag>/<pipeline id>").
  void Table(const std::string& title, std::string tag) {
    tag_ = std::move(tag);
    std::printf("\n== %s ==\n", title.c_str());
    std::printf("%-7s %12s %12s %12s %9s %9s %-6s %s\n", "id", "Qexec[ms]",
                "RWexec[ms]", "RWfind[ms]", "speedup", "ovhd[%]", "agree",
                "rewriting");
  }

  // Compares one pipeline on `session`, prints its row and records it.
  // nullopt (after printing why) when the comparison failed.
  std::optional<ComparisonRow> Compare(const api::Session& session,
                                       const core::Pipeline& pipeline) {
    Result<ComparisonRow> row = Measure(session, pipeline);
    if (!row.ok()) {
      std::printf("%-7s failed: %s\n", pipeline.id.c_str(),
                  row.status().ToString().c_str());
      failed_ = true;
      return std::nullopt;
    }
    std::printf("%-7s %12.3f %12.3f %12.3f %8.2fx %9.2f %-6s %s\n",
                row->id.c_str(), row->q_exec_seconds * 1e3,
                row->rw_exec_seconds * 1e3, row->rw_find_seconds * 1e3,
                row->speedup, row->overhead_pct,
                row->values_agree ? "yes" : "NO", row->rewrite.c_str());
    failed_ = failed_ || !row->values_agree;
    json_.Add(tag_ + "/" + row->id, row->rw_exec_seconds, row->speedup,
              session.executor()->threads(), kAgreeTolerance);
    return std::move(row).value();
  }

  // Compare() by pipeline id.
  std::optional<ComparisonRow> Compare(const api::Session& session,
                                       const std::string& id) {
    return Compare(session, *core::FindPipeline(id));
  }

  JsonWriter& json() { return json_; }

  // Writes the JSON document; the process exit status: 1 when a
  // comparison failed or disagreed, or the write failed.
  int Finish() const { return json_.Write() && !failed_ ? 0 : 1; }

 private:
  // Median of a non-empty sample.
  static double Median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  }

  // Prepares `pipeline` on `session` and times both forms, alternating.
  static Result<ComparisonRow> Measure(const api::Session& session,
                                       const core::Pipeline& pipeline) {
    HADAD_ASSIGN_OR_RETURN(api::PreparedQuery query,
                           session.Prepare(pipeline.text));
    ComparisonRow row;
    row.id = pipeline.id;
    row.rewrite = la::ToString(query.plan());
    row.rw_find_seconds = query.rewrite().optimize_seconds;
    // Index 0 is the pipeline as stated (Q_exec), 1 the rewriting (RW_exec).
    matrix::Matrix values[2];
    std::vector<double> seconds[2];
    double summed[2] = {0.0, 0.0};
    const auto run = [&](int side, bool timed) -> Status {
      engine::ExecStats stats;
      HADAD_ASSIGN_OR_RETURN(values[side], side == 0
                                               ? query.ExecuteOriginal(&stats)
                                               : query.Execute(&stats));
      if (timed) {
        seconds[side].push_back(stats.seconds);
        summed[side] += stats.seconds;
      }
      return Status::OK();
    };
    const auto done = [&](int side) {
      const size_t runs = seconds[side].size();
      return runs >= kMaxRuns ||
             (runs >= kMinRuns && summed[side] >= kMinSeconds);
    };
    for (int side : {0, 1}) HADAD_RETURN_IF_ERROR(run(side, /*timed=*/false));
    while (!done(0) || !done(1)) {
      for (int side : {0, 1}) {
        if (!done(side)) HADAD_RETURN_IF_ERROR(run(side, /*timed=*/true));
      }
    }
    row.q_exec_seconds = Median(seconds[0]);
    row.rw_exec_seconds = Median(seconds[1]);
    row.values_agree = values[0].ApproxEquals(values[1], kAgreeTolerance);
    row.speedup = row.rw_exec_seconds > 0
                      ? row.q_exec_seconds / row.rw_exec_seconds
                      : 1.0;
    const double total = row.q_exec_seconds + row.rw_find_seconds;
    row.overhead_pct = total > 0 ? 100.0 * row.rw_find_seconds / total : 0.0;
    return row;
  }

  JsonWriter json_;
  std::string tag_;
  bool failed_ = false;
};

}  // namespace hadad::bench

#endif  // HADAD_BENCH_COMPARE_H_
