// §9.1.3: rewriting performance and overhead. Uses google-benchmark to
// measure RW_find (the optimizer's wall time) for representative pipelines
// under both sparsity estimators, then prints the paper-style summary:
// RW_find distribution across P¬Opt and the overhead percentage
// RW_find / (Q_exec + RW_find) on the already-optimal P_Opt set.
// Paper: most RW_find under 25ms (naive) / slightly higher with MNC;
// overhead <1% for expensive P_Opt pipelines, up to ~10% for cheap ones.
//
// With --json=PATH (bench_json.h) it also records, per estimator, RW_find's
// median, p90 and max over P¬Opt (seconds; no speedup). `scripts/ci.sh
// bench` runs only the summary: --benchmark_filter='^$'.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/hadad.h"

using namespace hadad;  // NOLINT

namespace {

struct Env {
  engine::Workspace workspace;
  std::unique_ptr<pacb::Optimizer> naive_optimizer;
  std::unique_ptr<pacb::Optimizer> mnc_optimizer;
};

Env* GetEnv() {
  static Env* env = [] {
    auto* e = new Env();
    Rng rng(42);
    core::LaBenchConfig config;
    e->workspace = core::MakeLaBenchWorkspace(rng, config);
    la::MetaCatalog catalog = e->workspace.BuildMetaCatalog();
    pacb::OptimizerOptions naive_options;
    e->naive_optimizer =
        std::make_unique<pacb::Optimizer>(catalog, naive_options);
    e->naive_optimizer->SetData(&e->workspace.data());
    pacb::OptimizerOptions mnc_options;
    mnc_options.estimator = pacb::EstimatorKind::kMnc;
    e->mnc_optimizer = std::make_unique<pacb::Optimizer>(catalog, mnc_options);
    e->mnc_optimizer->SetData(&e->workspace.data());
    return e;
  }();
  return env;
}

void BM_RwFind(benchmark::State& state, const std::string& pipeline_id,
               bool mnc) {
  Env* env = GetEnv();
  const core::Pipeline* p = core::FindPipeline(pipeline_id);
  const pacb::Optimizer& optimizer =
      mnc ? *env->mnc_optimizer : *env->naive_optimizer;
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

void PrintSummary(bench::JsonWriter* json) {
  Env* env = GetEnv();
  engine::Engine naive_engine(engine::Profile::kNaive, &env->workspace);
  std::printf("\n== §9.1.3 summary: RW_find distribution over P¬Opt ==\n");
  for (bool mnc : {false, true}) {
    const pacb::Optimizer& optimizer =
        mnc ? *env->mnc_optimizer : *env->naive_optimizer;
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

  std::printf("\n== §9.1.3 summary: overhead %% on P_Opt (already optimal) "
              "==\n");
  std::printf("%-7s %12s %12s %9s\n", "id", "Qexec[ms]", "RWfind[ms]",
              "ovhd[%]");
  for (const core::Pipeline& p : core::LaBenchmark()) {
    if (p.cls != core::PipelineClass::kOpt) continue;
    auto row = core::ComparePipeline(p.id, p.text, *env->mnc_optimizer,
                                     naive_engine, /*repeats=*/2);
    if (!row.ok()) continue;
    std::printf("%-7s %12.3f %12.3f %9.2f\n", row->id.c_str(),
                row->q_exec_seconds * 1e3, row->rw_find_seconds * 1e3,
                row->overhead_pct);
  }
  std::printf("  Paper: <1%% for inverse/determinant-heavy pipelines, up to "
              "~10%% for cheap multiplication chains.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("bench_sec913_overhead", argc, argv);
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintSummary(&json);
  return json.Write() ? 0 : 1;
}
