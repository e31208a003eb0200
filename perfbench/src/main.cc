// The repository benchmark's workload runner. Runs one named workload and
// writes the raw run document (run header, latencies, correctness tally and,
// for a traced run, spans and per-layer counters) as JSON; perfbench/run.py
// builds this binary, runs it and turns the document into metrics.
//
//   hadad_perfbench --workload mixed_rw --seed 7 --seconds 10
//                   --trace 0 --out run.json [--commit <id>]

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "matrix/simd.h"
#include "record.h"
#include "workloads.h"

namespace {

using perfbench::JsonWriter;

void Usage() {
  std::fprintf(stderr,
               "usage: hadad_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <file> [--commit <id>]\n"
               "workloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool Optimized() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

void WriteHeader(const perfbench::Options& options, const std::string& commit,
                 bool peak_rss_timed, JsonWriter* json) {
  json->Key("header").BeginObject();
  json->Key("workload").String(options.workload);
  json->Key("seed").Int(static_cast<int64_t>(options.seed));
  json->Key("seconds").Number(options.seconds);
  json->Key("trace").Bool(options.trace);
  json->Key("nproc").Int(std::thread::hardware_concurrency());
  json->Key("simd_tier")
      .String(hadad::matrix::TierName(hadad::matrix::ActiveTier()));
  json->Key("build_type").String(PERFBENCH_BUILD_TYPE);
  json->Key("optimized").Bool(Optimized());
  json->Key("compiler").String(Compiler());
  json->Key("commit").String(commit);
  json->Key("peak_rss_scope")
      .String(peak_rss_timed ? "timed phase" : "process");
  json->EndObject();
}

void WriteTraced(const perfbench::RunRecord& r, JsonWriter* json) {
  json->Key("traced_latencies").Numbers(r.traced_latencies);
  json->Key("spans").BeginArray();
  for (const perfbench::Span& s : r.spans) {
    json->BeginArray()
        .Int(s.request)
        .String(s.name)
        .Int(s.parent)
        .Number(s.start)
        .Number(s.end)
        .EndArray();
  }
  json->EndArray();
  json->Key("requests").BeginArray();
  for (const perfbench::TracedRequest& q : r.requests) {
    json->BeginObject();
    json->Key("request").Int(q.request);
    json->Key("pipeline").String(q.pipeline);
    json->Key("opt_class").Bool(q.opt_class);
    json->Key("estimator").String(q.estimator);
    json->Key("route").String(q.route);
    json->Key("hit").Bool(q.hit);
    json->Key("rwfind_s").Number(q.rwfind_seconds);
    json->Key("improved").Bool(q.improved);
    json->Key("gamma_ratio").Number(q.gamma_ratio);
    json->Key("chase").BeginObject();
    json->Key("rounds").Int(q.chase.rounds);
    json->Key("tgd_applications").Int(q.chase.tgd_applications);
    json->Key("facts_added").Int(q.chase.facts_added);
    json->Key("merges").Int(q.chase.merges);
    json->Key("pruned_applications").Int(q.chase.pruned_applications);
    json->Key("budget_exhausted").Bool(q.chase.budget_exhausted);
    json->EndObject();
    const hadad::engine::ExecStats& e = q.exec;
    json->Key("exec").BeginObject();
    json->Key("seconds").Number(e.seconds);
    json->Key("operator_s").Number(e.total_operator_seconds);
    json->Key("critical_path_s").Number(e.critical_path_seconds);
    json->Key("plan_nodes").Int(e.plan_nodes);
    json->Key("cse_hits").Int(e.cse_hits);
    json->Key("fused_nodes").Int(e.fused_nodes);
    json->Key("fused_ops_eliminated").Int(e.fused_ops_eliminated);
    json->Key("intermediate_nnz").Number(e.intermediate_nnz);
    json->Key("ops").BeginObject();
    for (const hadad::engine::OpTiming& op : e.op_timings) {
      json->Key(op.op).Number(op.seconds);
    }
    json->EndObject();
    json->EndObject();
    json->EndObject();
  }
  json->EndArray();
  json->Key("queue_wait_ms").Numbers({r.queue_wait_p50_ms, r.queue_wait_p90_ms});
  json->Key("mnc_sketch_s").Numbers(r.mnc_sketch_seconds);
  json->Key("versions_peak").Int(r.versions_peak);
  json->Key("pinned_peak").Int(r.pinned_peak);
  json->Key("retired_total").Int(r.retired_total);
  json->Key("cache_hits").Int(r.cache_hits);
  json->Key("cache_misses").Int(r.cache_misses);
  json->Key("morpheus_speedups").Numbers(r.morpheus_speedups);
  json->Key("morpheus_rwfind_s").Numbers(r.morpheus_rwfind_seconds);
  json->Key("morpheus_exec_s").Numbers(r.morpheus_exec_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string out_path;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.workload.empty() || out_path.empty() || options.seconds <= 0) {
    Usage();
    return 2;
  }

  // Pin glibc's malloc thresholds. By default they adapt to the allocation
  // history, so whether a large intermediate is served from the heap or
  // from fresh, page-faulting mmap memory depends on the order of earlier
  // requests; that alone moved factorized latencies by 2x between runs.
  // Large blocks now come from the heap, which is never trimmed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Tally tally;
  perfbench::RunRecord record;
  const hadad::Status status =
      perfbench::RunWorkload(options, &tally, &record);
  if (!status.ok()) {
    std::fprintf(stderr, "hadad_perfbench: %s\n", status.ToString().c_str());
    return 1;
  }

  JsonWriter json;
  json.BeginObject();
  WriteHeader(options, commit, record.peak_rss_timed, &json);
  json.Key("setup_seconds").Numbers(record.setup_seconds);
  json.Key("latencies").Numbers(record.latencies);
  json.Key("latency_ends").Numbers(record.latency_ends);
  json.Key("writes").BeginArray();
  for (const auto& [kind, seconds] : record.writes) {
    json.BeginArray().String(kind).Number(seconds).EndArray();
  }
  json.EndArray();
  json.Key("attempted").Int(tally.attempted());
  json.Key("failed").Int(tally.failed());
  json.Key("failures").BeginArray();
  for (const std::string& f : tally.failures()) json.String(f);
  json.EndArray();
  json.Key("peak_rss_kib").Int(record.peak_rss_kib);
  if (options.trace) WriteTraced(record, &json);
  json.EndObject();

  std::ofstream out(out_path);
  out << json.text() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "hadad_perfbench: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}
