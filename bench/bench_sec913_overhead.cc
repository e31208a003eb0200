// §9.1.3: rewriting performance and overhead. Uses google-benchmark to
// measure RW_find (the optimizer's wall time) for representative pipelines
// under both sparsity estimators, then prints the paper-style summary:
// RW_find distribution across P¬Opt and the overhead percentage
// RW_find / (Q_exec + RW_find) on the already-optimal P_Opt set, with
// Q_exec timed by the MNC session's ExecuteOriginal (compare.h).
// Paper: most RW_find under 25ms (naive) / slightly higher with MNC;
// overhead <1% for expensive P_Opt pipelines, up to ~10% for cheap ones.
//
// With --json=PATH (bench_json.h) it also records, per estimator, RW_find's
// median, p90 and max over P¬Opt (seconds; no speedup), and the median and
// max over P_Opt of RW_find's share RW_find / (Q_exec + RW_find) under MNC
// (rwfind_share_median/mnc, rwfind_share_max/mnc: the `seconds` field holds
// the unitless share), plus compare.h's row per P_Opt pipeline
// (p_opt/<id>). `scripts/ci.sh bench` runs only the summary:
// --benchmark_filter='^$'. Exits 1 when a P_Opt comparison fails or
// disagrees.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compare.h"
#include "core/hadad.h"

using namespace hadad;  // NOLINT

namespace {

// One session per estimator over the LA benchmark bindings.
struct Env {
  std::shared_ptr<api::Session> naive;
  std::shared_ptr<api::Session> mnc;
};

Env* GetEnv() {
  static Env* env = [] {
    auto* e = new Env();
    Rng rng(42);
    const engine::Workspace data = core::MakeLaBenchWorkspace(rng);
    e->naive = bench::LaSession(data, pacb::EstimatorKind::kNaive);
    e->mnc = bench::LaSession(data, pacb::EstimatorKind::kMnc);
    return e;
  }();
  return env;
}

// RW_find alone: the session's optimizer, bypassing its plan cache.
const pacb::Optimizer& OptimizerFor(bool mnc) {
  Env* env = GetEnv();
  return (mnc ? env->mnc : env->naive)->optimizer();
}

void BM_RwFind(benchmark::State& state, const std::string& pipeline_id,
               bool mnc) {
  const core::Pipeline* p = core::FindPipeline(pipeline_id);
  const pacb::Optimizer& optimizer = OptimizerFor(mnc);
  la::ExprPtr expr = la::ParseExpression(p->text).value();
  for (auto _ : state) {
    auto r = optimizer.Optimize(expr);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}

void RegisterAll() {
  for (const char* id :
       {"P1.1", "P1.4", "P1.13", "P1.15", "P2.10", "P2.21", "P1.29"}) {
    benchmark::RegisterBenchmark(
        (std::string("RW_find/") + id + "/naive").c_str(),
        [id](benchmark::State& s) { BM_RwFind(s, id, false); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("RW_find/") + id + "/mnc").c_str(),
        [id](benchmark::State& s) { BM_RwFind(s, id, true); })
        ->Unit(benchmark::kMillisecond);
  }
}

void PrintSummary(bench::FigureReport* report) {
  bench::JsonWriter* json = &report->json();
  std::printf("\n== §9.1.3 summary: RW_find distribution over P¬Opt ==\n");
  for (bool mnc : {false, true}) {
    const pacb::Optimizer& optimizer = OptimizerFor(mnc);
    std::vector<double> times_ms;
    for (const core::Pipeline& p : core::LaBenchmark()) {
      if (p.cls != core::PipelineClass::kNotOpt) continue;
      auto r = optimizer.OptimizeText(p.text);
      if (!r.ok()) continue;
      times_ms.push_back(r->optimize_seconds * 1e3);
    }
    std::sort(times_ms.begin(), times_ms.end());
    const double median = times_ms[times_ms.size() / 2];
    const double p90 = times_ms[times_ms.size() * 9 / 10];
    std::printf("  %-5s estimator: n=%zu median=%.2fms p90=%.2fms "
                "max=%.2fms\n",
                mnc ? "MNC" : "naive", times_ms.size(), median, p90,
                times_ms.back());
    const std::string suffix = mnc ? "/mnc" : "/naive";
    for (const auto& [stat, ms] :
         {std::pair<const char*, double>{"rwfind_median", median},
          {"rwfind_p90", p90},
          {"rwfind_max", times_ms.back()}}) {
      json->Add(stat + suffix, ms / 1e3, /*speedup=*/-1.0, /*threads=*/1,
                /*verified_tolerance=*/-1.0);
    }
  }
  std::printf("  Paper: 64%% under 25ms (naive); MNC slightly slower; "
              "longest ~200-300ms.\n");

  report->Table("§9.1.3 summary: overhead % on P_Opt (already optimal), "
                "MNC session",
                "p_opt");
  std::vector<double> shares;
  for (const core::Pipeline& p : core::LaBenchmark()) {
    if (p.cls != core::PipelineClass::kOpt) continue;
    auto row = report->Compare(*GetEnv()->mnc, p);
    if (!row.has_value()) continue;
    shares.push_back(row->overhead_pct / 100.0);
  }
  std::sort(shares.begin(), shares.end());
  const double median_share = shares[shares.size() / 2];
  std::printf("  n=%zu median=%.2f%% max=%.2f%%\n", shares.size(),
              median_share * 100.0, shares.back() * 100.0);
  for (const auto& [stat, share] :
       {std::pair<const char*, double>{"rwfind_share_median/mnc",
                                       median_share},
        {"rwfind_share_max/mnc", shares.back()}}) {
    json->Add(stat, share, /*speedup=*/-1.0, /*threads=*/1,
              /*verified_tolerance=*/-1.0);
  }
  std::printf("  Paper: <1%% for inverse/determinant-heavy pipelines, up to "
              "~10%% for cheap multiplication chains.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::FigureReport report("bench_sec913_overhead", argc, argv);
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintSummary(&report);
  return report.Finish();
}
