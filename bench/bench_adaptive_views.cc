// Adaptive materialized views: repeated-workload sweep. Three serving
// configurations run the same query mix — pipelines sharing the expensive
// subexpression t(X) %*% X:
//
//   cold    plain session: every Run() recomputes the pipeline (the plan
//           cache only spares RW_find);
//   warmed  AdaptiveViews session after the advisor observed the workload,
//           materialized the hot subexpressions in the background, and the
//           rewrites landed on them;
//   oracle  a human pre-materialized the shared subexpression as a view at
//           build time (the paper's hand-tuned V_exp setup).
//
// After a warm-up, the three configurations run in interleaved blocks of
// kRoundsPerBlock passes over the mix; each row reports its configuration's
// median block, in seconds per Run, so one preempted block cannot move it.
// Results of every configuration are verified against the cold path at
// 1e-9; the driver exits non-zero on a mismatch or if the warmed path is
// not at least 1.5x faster than cold.
//
// A second workload, sweep_overhead, prices the advisor sweep that follows
// every execution while nothing is pending: a warm pipeline over two
// 20000x100 dense leaves runs on a plain session and on an AdaptiveViews
// session whose byte budget admits no candidate, so every Run pays a full
// sweep (each qualifying subexpression re-estimated) and nothing ever
// materializes. Speedup = plain / adaptive seconds per Run; results are
// verified against the plain session at 1e-9.
//
//   $ ./build/bench/bench_adaptive_views [--json=PATH]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "bench_json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "matrix/generate.h"

using namespace hadad;  // NOLINT

namespace {

constexpr int kQueries = 3;
constexpr int kBlocks = 10;
constexpr int kRoundsPerBlock = 3;
constexpr double kTolerance = 1e-9;

// sweep_overhead: leaf shape (2M dense cells each), warm-up runs (past the
// advisor's min_hits, so every sweep scores candidates), and timed blocks
// of runs per session, interleaved; the median block is reported.
constexpr int64_t kSweepRows = 20000;
constexpr int64_t kSweepCols = 100;
constexpr int kSweepWarmRuns = 5;
constexpr int kSweepBlocks = 5;
constexpr int kSweepRunsPerBlock = 10;
constexpr char kSweepPipeline[] =
    "colSums(t(A) %*% B) + colSums(t(B) %*% A)";

std::vector<std::string> QueryMix() {
  std::vector<std::string> queries;
  for (int k = 0; k < kQueries; ++k) {
    queries.push_back("(t(X) %*% X) + R" + std::to_string(k));
  }
  return queries;
}

api::SessionBuilder MakeBuilder() {
  Rng rng(42);
  api::SessionBuilder builder;
  builder.Put("X", matrix::RandomDense(rng, 1000, 50));
  for (int k = 0; k < kQueries; ++k) {
    builder.Put("R" + std::to_string(k), matrix::RandomDense(rng, 50, 50));
  }
  return builder;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Runs the full mix kRoundsPerBlock times; returns seconds per Run, or a
// negative value on failure/mismatch.
double TimedBlock(api::Session& session,
                  const std::vector<std::string>& queries,
                  const std::vector<matrix::Matrix>& expected) {
  Timer timer;
  for (int round = 0; round < kRoundsPerBlock; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = session.Run(queries[q]);
      if (!result.ok()) {
        std::printf("run failed: %s\n", result.status().ToString().c_str());
        return -1.0;
      }
      if (!result->ApproxEquals(expected[q], kTolerance)) {
        std::printf("VERIFICATION FAILED for %s\n", queries[q].c_str());
        return -1.0;
      }
    }
  }
  return timer.ElapsedSeconds() / (kRoundsPerBlock * kQueries);
}

// Median seconds per Run of kSweepPipeline on each session, timed in
// interleaved blocks after kSweepWarmRuns; false on a failed run or a
// result that differs from the plain session's beyond kTolerance.
bool SweepOverhead(double* plain_s, double* adaptive_s) {
  Rng rng(7);
  const matrix::Matrix a = matrix::RandomDense(rng, kSweepRows, kSweepCols);
  const matrix::Matrix b = matrix::RandomDense(rng, kSweepRows, kSweepCols);
  auto build = [&](bool adaptive) {
    api::SessionBuilder builder;
    builder.Put("A", a).Put("B", b);
    if (adaptive) {
      // A 1-byte budget admits no candidate: nothing pends.
      builder.AdaptiveViews(/*budget_bytes=*/1, /*min_hits=*/3);
    }
    return builder.Build().value();
  };
  auto plain = build(false);
  auto adaptive = build(true);
  auto expected = plain->Run(kSweepPipeline);
  if (!expected.ok()) {
    std::printf("sweep baseline failed: %s\n",
                expected.status().ToString().c_str());
    return false;
  }
  auto run = [&](api::Session& session, int runs) {
    for (int i = 0; i < runs; ++i) {
      auto result = session.Run(kSweepPipeline);
      if (!result.ok() || !result->ApproxEquals(*expected, kTolerance)) {
        std::printf("SWEEP VERIFICATION FAILED\n");
        return false;
      }
    }
    return true;
  };
  if (!run(*plain, kSweepWarmRuns) || !run(*adaptive, kSweepWarmRuns)) {
    return false;
  }
  std::vector<double> plain_blocks;
  std::vector<double> adaptive_blocks;
  for (int block = 0; block < kSweepBlocks; ++block) {
    for (auto [session, blocks] :
         {std::pair{plain.get(), &plain_blocks},
          std::pair{adaptive.get(), &adaptive_blocks}}) {
      Timer timer;
      if (!run(*session, kSweepRunsPerBlock)) return false;
      blocks->push_back(timer.ElapsedSeconds() / kSweepRunsPerBlock);
    }
  }
  if (adaptive->stats().adaptive_views_created != 0) {
    std::printf("SWEEP FAILED: a view was admitted under a 1-byte budget\n");
    return false;
  }
  *plain_s = Median(plain_blocks);
  *adaptive_s = Median(adaptive_blocks);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("bench_adaptive_views", argc, argv);
  const std::vector<std::string> queries = QueryMix();

  // Cold configuration doubles as the ground truth.
  auto cold_session = MakeBuilder().Build().value();
  std::vector<matrix::Matrix> expected;
  for (const std::string& q : queries) {
    auto r = cold_session->Run(q);
    if (!r.ok()) {
      std::printf("baseline failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    expected.push_back(*r);
  }

  // Warmed adaptive configuration: observe, materialize, re-serve.
  auto adaptive_session = MakeBuilder()
                              .AdaptiveViews(/*budget_bytes=*/int64_t{64} << 20,
                                             /*min_hits=*/2)
                              .Build()
                              .value();
  for (int warm = 0; warm < 3; ++warm) {
    for (const std::string& q : queries) {
      if (!adaptive_session->Run(q).ok()) {
        std::printf("warmup failed\n");
        return 1;
      }
    }
    // Let queued materializations land so the advisor reaches steady state
    // before timing (background installs race warmup runs otherwise).
    adaptive_session->WaitForAdaptiveViews();
  }

  // Oracle configuration: the shared subexpression pre-materialized by hand.
  // One pass fills its plan cache, as the others' warm-up did.
  auto oracle_session =
      MakeBuilder().AddView("G", "t(X) %*% X").Build().value();
  for (const std::string& q : queries) {
    if (!oracle_session->Run(q).ok()) {
      std::printf("warmup failed\n");
      return 1;
    }
  }

  std::vector<double> cold_blocks;
  std::vector<double> warmed_blocks;
  std::vector<double> oracle_blocks;
  for (int block = 0; block < kBlocks; ++block) {
    for (auto [session, blocks] :
         {std::pair{cold_session.get(), &cold_blocks},
          std::pair{adaptive_session.get(), &warmed_blocks},
          std::pair{oracle_session.get(), &oracle_blocks}}) {
      const double seconds = TimedBlock(*session, queries, expected);
      if (seconds < 0) return 1;
      blocks->push_back(seconds);
    }
  }
  const double cold_s = Median(cold_blocks);
  const double warmed_s = Median(warmed_blocks);
  const double oracle_s = Median(oracle_blocks);

  std::printf("== adaptive views: repeated-workload sweep (%d queries, "
              "median of %d interleaved blocks of %d rounds, verified at "
              "1e-9) ==\n",
              kQueries, kBlocks, kRoundsPerBlock);
  std::printf("%-22s %14s %10s\n", "configuration", "per-run[us]",
              "speedup");
  auto row = [&](const char* name, double seconds) {
    std::printf("%-22s %14.1f %9.2fx\n", name, seconds * 1e6,
                seconds > 0 ? cold_s / seconds : 0.0);
  };
  row("cold (no views)", cold_s);
  row("warmed (adaptive)", warmed_s);
  row("oracle (hand views)", oracle_s);
  json.Add("cold", cold_s, /*speedup=*/-1.0, /*threads=*/1, kTolerance);
  json.Add("warmed", warmed_s, cold_s / warmed_s, /*threads=*/1, kTolerance);
  json.Add("oracle", oracle_s, cold_s / oracle_s, /*threads=*/1, kTolerance);

  api::SessionStats stats = adaptive_session->stats();
  std::printf("\nadaptive store: %lld views created, %lld evicted, "
              "%lld view-hit runs, %lld / %lld budget bytes\n",
              static_cast<long long>(stats.adaptive_views_created),
              static_cast<long long>(stats.adaptive_views_evicted),
              static_cast<long long>(stats.adaptive_view_hit_runs),
              static_cast<long long>(stats.adaptive_bytes_in_use),
              static_cast<long long>(stats.adaptive_budget_bytes));

  double plain_run_s = 0.0;
  double adaptive_run_s = 0.0;
  if (!SweepOverhead(&plain_run_s, &adaptive_run_s)) return 1;
  std::printf("\n== advisor sweep overhead: %s over %lldx%lld dense leaves "
              "(verified at 1e-9) ==\n",
              kSweepPipeline, static_cast<long long>(kSweepRows),
              static_cast<long long>(kSweepCols));
  std::printf("%-22s %14s %10s\n", "configuration", "per-run[ms]",
              "speedup");
  std::printf("%-22s %14.3f\n", "plain session", plain_run_s * 1e3);
  std::printf("%-22s %14.3f %9.2fx\n", "adaptive, no admits",
              adaptive_run_s * 1e3, plain_run_s / adaptive_run_s);
  json.Add("sweep_overhead", adaptive_run_s, plain_run_s / adaptive_run_s,
           /*threads=*/1, kTolerance);

  const double speedup = warmed_s > 0 ? cold_s / warmed_s : 0.0;
  if (speedup < 1.5) {
    std::printf("FAILED: warmed speedup %.2fx < 1.5x\n", speedup);
    return 1;
  }
  std::printf("warmed-path speedup %.2fx (>= 1.5x required)\n", speedup);
  return json.Write() ? 0 : 1;
}
