// The paper figures' comparison of a pipeline as stated against HADAD's
// rewriting, in §9.1.1's vocabulary, both executed by one api::Session on
// its exec:: DAG:
//   Q_exec   = PreparedQuery::ExecuteOriginal (the pipeline as stated,
//              planned by the session's engine::Profile);
//   RW_exec  = PreparedQuery::Execute (HADAD's rewriting);
//   RW_find  = the optimizer's time,
//              PreparedQuery::rewrite().optimize_seconds;
//   overhead = RW_find / (Q_exec + RW_find) (§9.1.3).
// Each form runs `repeats` times and keeps its best execution time; the two
// results must agree within kAgreeTolerance (rewriting reorders
// floating-point operations).
//
// FigureReport prints the fixed-width table the figure benches share and,
// with `--json=PATH` (bench_json.h), records one row per pipeline:
// `seconds` = RW_exec, `speedup` = Q_exec / RW_exec, `verified_tolerance` =
// kAgreeTolerance. Its exit status is 1 when a comparison failed or
// disagreed.

#ifndef HADAD_BENCH_COMPARE_H_
#define HADAD_BENCH_COMPARE_H_

#include <algorithm>
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
                                       const core::Pipeline& pipeline,
                                       int repeats = 3) {
    Result<ComparisonRow> row = Measure(session, pipeline, repeats);
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
                                       const std::string& id,
                                       int repeats = 3) {
    return Compare(session, *core::FindPipeline(id), repeats);
  }

  JsonWriter& json() { return json_; }

  // Writes the JSON document; the process exit status: 1 when a
  // comparison failed or disagreed, or the write failed.
  int Finish() const { return json_.Write() && !failed_ ? 0 : 1; }

 private:
  // Prepares `pipeline` on `session` and times both forms.
  static Result<ComparisonRow> Measure(const api::Session& session,
                                       const core::Pipeline& pipeline,
                                       int repeats) {
    HADAD_ASSIGN_OR_RETURN(api::PreparedQuery query,
                           session.Prepare(pipeline.text));
    ComparisonRow row;
    row.id = pipeline.id;
    row.rewrite = la::ToString(query.plan());
    row.rw_find_seconds = query.rewrite().optimize_seconds;
    const auto time = [&](bool as_stated,
                          matrix::Matrix* value) -> Result<double> {
      double best = 1e300;
      for (int i = 0; i < repeats; ++i) {
        engine::ExecStats stats;
        HADAD_ASSIGN_OR_RETURN(*value, as_stated
                                           ? query.ExecuteOriginal(&stats)
                                           : query.Execute(&stats));
        best = std::min(best, stats.seconds);
      }
      return best;
    };
    matrix::Matrix original_value;
    HADAD_ASSIGN_OR_RETURN(row.q_exec_seconds, time(true, &original_value));
    matrix::Matrix rewrite_value;
    HADAD_ASSIGN_OR_RETURN(row.rw_exec_seconds,
                           time(false, &rewrite_value));
    row.values_agree =
        original_value.ApproxEquals(rewrite_value, kAgreeTolerance);
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
