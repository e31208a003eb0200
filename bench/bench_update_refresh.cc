// Mutable-data-layer benchmark: what mutation costs a long-lived serving
// session, and what the incremental machinery buys back.
//
//  (1) Append-heavy view maintenance: a Gram view t(A) %*% A over a growing
//      A. Incremental delta refresh (V ← V + t(Δ)Δ, O(|Δ|) work) against
//      full recomputation (O(|A|) work) per append batch on a 1-thread
//      exec::Executor, the engine a session's full refresh runs on,
//      verified at 1e-9.
//  (2) Warmed-latency recovery: a session serving a cached pipeline takes
//      one Update(); the next Run() pays a single re-derive and the cache
//      is warm again — compared against the cold-restart alternative
//      (building a fresh session and re-paying RW_find).
//
//   $ ./build/bench/bench_update_refresh [--json=PATH]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/hadad.h"
#include "exec/executor.h"

using namespace hadad;  // NOLINT

namespace {

constexpr int64_t kBaseRows = 20000;
constexpr int64_t kCols = 64;
constexpr int64_t kBatchRows = 200;
constexpr int kBatches = 20;

void BenchAppendRefresh(bench::JsonWriter& json) {
  std::printf("-- append-heavy view maintenance --\n");
  std::printf("   A: %lld x %lld base rows, %d append batches of %lld rows\n",
              static_cast<long long>(kBaseRows),
              static_cast<long long>(kCols), kBatches,
              static_cast<long long>(kBatchRows));

  Rng rng(42);
  matrix::Matrix a0 = matrix::RandomDense(rng, kBaseRows, kCols);
  std::vector<matrix::Matrix> batches;
  for (int i = 0; i < kBatches; ++i) {
    batches.push_back(matrix::RandomDense(rng, kBatchRows, kCols));
  }

  // Incremental: the session's user view delta-refreshes on every append.
  auto incremental = api::SessionBuilder()
                         .Put("A", a0)
                         .AddView("G", "t(A) %*% A")
                         .Build()
                         .value();
  Timer inc_timer;
  for (const matrix::Matrix& batch : batches) {
    if (!incremental->Append("A", batch).ok()) {
      std::printf("append failed\n");
      return;
    }
  }
  const double inc_seconds = inc_timer.ElapsedSeconds();

  // Full recomputation baseline: the same appends with the view recomputed
  // from scratch each time (what a frozen-workspace design has to do).
  engine::Workspace ws;
  ws.Put("A", a0);
  auto def = la::ParseExpression("t(A) %*% A").value();
  const exec::Executor executor(engine::ExecOptions{.threads = 1});
  Timer full_timer;
  matrix::Matrix full_view;
  for (const matrix::Matrix& batch : batches) {
    if (!ws.Append("A", batch).ok()) return;
    auto v = executor.Run(def, ws);
    if (!v.ok()) return;
    full_view = std::move(v).value();
  }
  const double full_seconds = full_timer.ElapsedSeconds();

  const matrix::Matrix* inc_view = incremental->workspace().Find("G");
  const bool equal =
      inc_view != nullptr && inc_view->ApproxEquals(full_view, 1e-9);
  std::printf("   incremental (V <- V + f(dA)):  %8.1f ms total\n",
              inc_seconds * 1e3);
  std::printf("   full recompute per batch:      %8.1f ms total\n",
              full_seconds * 1e3);
  std::printf("   speedup %.1fx, results %s at 1e-9\n\n",
              full_seconds / inc_seconds, equal ? "MATCH" : "MISMATCH");
  json.Add("append_incremental_refresh", inc_seconds,
           full_seconds / inc_seconds, /*threads=*/1,
           /*verified_tolerance=*/1e-9);
  json.Add("append_full_recompute", full_seconds, /*speedup=*/-1.0,
           /*threads=*/1, /*verified_tolerance=*/1e-9);
  if (!equal) std::exit(1);
}

void BenchWarmedLatencyRecovery(bench::JsonWriter& json) {
  std::printf("-- warmed-query latency across an update --\n");
  Rng rng(7);
  matrix::Matrix m = matrix::RandomDense(rng, 2000, 64);
  matrix::Matrix n = matrix::RandomDense(rng, 64, 2000);
  matrix::Matrix m2 = matrix::RandomDense(rng, 2000, 64);
  const std::string query = "colSums((M %*% N) %*% M)";

  auto session =
      api::SessionBuilder().Put("M", m).Put("N", n).Build().value();
  Timer cold;
  if (!session->Run(query).ok()) return;
  const double cold_ms = cold.ElapsedSeconds() * 1e3;

  auto warm_ms = [&]() {
    double best = 1e300;
    for (int i = 0; i < 3; ++i) {
      Timer t;
      if (!session->Run(query).ok()) return -1.0;
      best = std::min(best, t.ElapsedSeconds());
    }
    return best * 1e3;
  };
  const double warm_before = warm_ms();

  Timer update;
  if (!session->Update("M", m2).ok()) return;
  const double update_ms = update.ElapsedSeconds() * 1e3;
  Timer rederive;
  if (!session->Run(query).ok()) return;
  const double rederive_ms = rederive.ElapsedSeconds() * 1e3;
  const double warm_after = warm_ms();

  // The frozen-workspace alternative: rebuild the whole session.
  Timer restart;
  auto fresh =
      api::SessionBuilder().Put("M", m2).Put("N", n).Build().value();
  if (!fresh->Run(query).ok()) return;
  const double restart_ms = restart.ElapsedSeconds() * 1e3;

  std::printf("   cold first run:                 %8.2f ms\n", cold_ms);
  std::printf("   warmed run (pre-update):        %8.2f ms\n", warm_before);
  std::printf("   Update(M):                      %8.2f ms\n", update_ms);
  std::printf("   first run after update:         %8.2f ms (one re-derive)\n",
              rederive_ms);
  std::printf("   warmed run (post-update):       %8.2f ms\n", warm_after);
  std::printf("   cold restart alternative:       %8.2f ms (rebuild + run)\n",
              restart_ms);
  std::printf("   recovery vs restart: %.1fx\n\n",
              restart_ms / rederive_ms);
  json.Add("update_then_rederive", rederive_ms / 1e3,
           restart_ms / rederive_ms, /*threads=*/1,
           /*verified_tolerance=*/-1.0);
  json.Add("cold_restart_baseline", restart_ms / 1e3, /*speedup=*/-1.0,
           /*threads=*/1, /*verified_tolerance=*/-1.0);
  json.Add("warmed_run_post_update", warm_after / 1e3, /*speedup=*/-1.0,
           /*threads=*/1, /*verified_tolerance=*/-1.0);
  // Latency distribution across every Run() of this scenario (cold, warm,
  // post-update re-derive), from the session's hadad_run_seconds histogram.
  const obs::Histogram* run_seconds =
      session->metrics().FindHistogram("hadad_run_seconds");
  if (run_seconds != nullptr && run_seconds->Count() > 0) {
    json.AddRunPercentiles("update_recovery_runs",
                           obs::HistogramQuantile(*run_seconds, 0.50),
                           obs::HistogramQuantile(*run_seconds, 0.95),
                           obs::HistogramQuantile(*run_seconds, 0.99));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("bench_update_refresh", argc, argv);
  std::printf("=== mutable data layer: update & refresh ===\n\n");
  BenchAppendRefresh(json);
  BenchWarmedLatencyRecovery(json);
  return json.Write() ? 0 : 1;
}
