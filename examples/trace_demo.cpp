// End-to-end observability demo: a traced session runs a small analytics
// workload, then dumps (1) the EXPLAIN ANALYZE report for one pipeline,
// (2) the Prometheus-format metrics snapshot, and (3) the full Chrome
// trace-event JSON — load it at https://ui.perfetto.dev or
// chrome://tracing to see the span hierarchy (docs/OBSERVABILITY.md).
//
// Usage: trace_demo [trace-output.json]   (default: hadad_trace.json)
//
// CI runs this binary and validates the emitted trace with
// scripts/check_trace.py (one span per layer: session, cache, plan,
// compile, kernel, views).

#include <cstdio>
#include <string>

#include "core/hadad.h"

using namespace hadad;  // NOLINT

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "hadad_trace.json";

  Rng rng(42);
  auto built = api::SessionBuilder()
                   .Put("M", matrix::RandomDense(rng, 200, 200))
                   .Put("N", matrix::RandomDense(rng, 200, 200))
                   .Put("v", matrix::RandomDense(rng, 200, 1))
                   .AddView("Mt", "t(M)")
                   .Threads(2)
                   .AdaptiveViews(/*budget_bytes=*/int64_t{256} << 20,
                                  /*min_hits=*/2)
                   .Tracing()
                   .Build();
  if (!built.ok()) {
    std::printf("session failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<api::Session> session = *built;

  // A small workload: one pipeline repeated (plan-cache hits + enough
  // observations for the adaptive advisor), a second pipeline sharing a
  // subexpression, and one mutation (view refresh + propagation spans).
  // Adaptive views materialize on the session's background worker; the
  // waits let them land before the mutation and before the trace dump.
  const std::string pipeline = "t(N) %*% (M %*% N) %*% v";
  for (int i = 0; i < 4; ++i) {
    auto result = session->Run(pipeline);
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    auto shared = session->Run("rowSums(M %*% N)");
    if (!shared.ok()) {
      std::printf("run failed: %s\n", shared.status().ToString().c_str());
      return 1;
    }
  }
  session->WaitForAdaptiveViews();
  Status mutated = session->Update("M", matrix::RandomDense(rng, 200, 200));
  if (!mutated.ok()) {
    std::printf("update failed: %s\n", mutated.ToString().c_str());
    return 1;
  }
  if (!session->Run(pipeline).ok()) return 1;

  // --- EXPLAIN ANALYZE: the executed physical DAG with measured time ------
  auto prepared = session->Prepare(pipeline);
  if (!prepared.ok()) {
    std::printf("prepare failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  auto report = prepared->ExplainAnalyze();
  if (!report.ok()) {
    std::printf("explain failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->c_str());

  // --- Metrics snapshot (Prometheus text format) --------------------------
  std::printf("%s\n", session->MetricsText().c_str());

  // --- Chrome trace-event export ------------------------------------------
  session->WaitForAdaptiveViews();
  Status dumped = session->DumpTrace(trace_path);
  if (!dumped.ok()) {
    std::printf("trace dump failed: %s\n", dumped.ToString().c_str());
    return 1;
  }
  std::printf("trace: %lld spans (%lld dropped) -> %s\n",
              static_cast<long long>(session->trace()->span_count()),
              static_cast<long long>(session->trace()->dropped()),
              trace_path.c_str());
  return 0;
}
