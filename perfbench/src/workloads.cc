#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/hadad.h"
#include "server/server.h"

namespace perfbench {
namespace {

namespace api = hadad::api;
namespace core = hadad::core;
namespace engine = hadad::engine;
namespace la = hadad::la;
namespace matrix = hadad::matrix;
namespace pacb = hadad::pacb;
using hadad::Result;
using hadad::Rng;
using hadad::Status;

// Every session executes on the DAG engine with two pool threads, so
// ExecStats carries the DAG breakdown and two clients fit a 4-core host.
constexpr int kSessionThreads = 2;
constexpr int kClients = 2;
// Set-up is repeated and its median reported, so one slow build on a busy
// host does not move setup_s.
constexpr int kSetupReps = 21;
// Rewritten plans change the order of floating-point operations; they must
// match the as-stated evaluation to this relative tolerance.
constexpr double kOracleTolerance = 1e-9;
constexpr double kFactorizedTolerance = 1e-6;
// mixed_rw: one write per this many completed reads, the pacing of the
// mixed read/write phase of bench/bench_server_concurrency.cc (its writer
// opens a gate every total_reads / (kWriterUpdates + 1) = 56 / 7 reads);
// and rows per append.
constexpr int64_t kReadsPerWrite = 8;
constexpr int64_t kAppendRows = 8;

// One pipeline the workload serves.
struct Query {
  std::string id;
  std::string text;
  bool opt_class = false;
};

std::vector<Query> LaQueries() {
  std::vector<Query> queries;
  for (const core::Pipeline& p : core::LaBenchmark()) {
    queries.push_back(
        {p.id, p.text, p.cls == core::PipelineClass::kOpt});
  }
  return queries;
}

// Fisher-Yates on the benchmark's own generator, so an order depends only
// on the seed.
template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng.NextBelow(i))]);
  }
}

// A DAG-engine session over the LA benchmark data, with `views`
// materialized.
Result<std::shared_ptr<api::Session>> BuildLaSession(
    const engine::Workspace& data, pacb::EstimatorKind estimator,
    const std::vector<core::ViewSpec>& views = {}) {
  api::SessionBuilder builder;
  for (const auto& [name, m] : data.data()) builder.Put(name, *m);
  for (const core::ViewSpec& v : views) builder.AddView(v.name, v.definition);
  return builder.SetEstimator(estimator).Threads(kSessionThreads).Build();
}

// The oracle: a tree-evaluator session without chase rounds (only
// ExecuteOriginal is used on it).
Result<std::shared_ptr<api::Session>> BuildOracle(
    const engine::Workspace& data) {
  api::SessionBuilder builder;
  for (const auto& [name, m] : data.data()) builder.Put(name, *m);
  pacb::OptimizerOptions options;
  options.chase.max_rounds = 0;
  return builder.SetOptimizerOptions(options).Build();
}

// The V_exp views whose definitions read any of `leaves`.
std::vector<core::ViewSpec> ViewsOver(const std::set<std::string>& leaves) {
  std::vector<core::ViewSpec> out;
  for (const core::ViewSpec& v : core::VexpViews()) {
    std::string token;
    bool reads = false;
    for (char c : v.definition + " ") {
      if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
        token += c;
      } else {
        reads = reads || leaves.count(token) > 0;
        token.clear();
      }
    }
    if (reads) out.push_back(v);
  }
  return out;
}

// cost::MncHistogram::FromMatrix over every matrix of the session's
// workspace, three times. Runs during set-up, while nothing mutates it.
std::vector<double> TimeMncSketches(const api::Session& session) {
  std::vector<double> seconds;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = Now();
    for (const auto& [name, m] : session.workspace().data()) {
      hadad::cost::MncHistogram::FromMatrix(*m);
    }
    seconds.push_back(Now() - start);
  }
  return seconds;
}

Result<matrix::Matrix> AsStated(const api::Session& session,
                                const std::string& text) {
  HADAD_ASSIGN_OR_RETURN(api::PreparedQuery q, session.Prepare(text));
  return q.ExecuteOriginal();
}

void CheckFingerprint(const Result<matrix::Matrix>& served, uint64_t ref,
                      const Query& query, Tally* tally) {
  const bool ok = served.ok() && Fingerprint(*served) == ref;
  tally->Record(ok, "serve " + query.id + ": " +
                        (served.ok() ? "result differs from its reference"
                                     : served.status().ToString()));
}

// One request split into the public calls of each layer, one span each:
// la::ParseExpression → Session::Prepare (with RW_find as a child span when
// the plan was derived) → PreparedQuery::Execute. On the DAG route Execute
// gets a `compile` child: the part of its wall time before the DAG run
// (ExecStats::seconds times only the run), where the session checks the
// plan's freshness, pins a snapshot and compiles the plan's DAG on its
// first execution or fetches the cached one afterwards.
Result<matrix::Matrix> TracedCall(const api::Session& session,
                                  const Query& query,
                                  const std::string& estimator,
                                  int64_t request, SpanLog* log,
                                  TracedRequest* out, double* latency) {
  out->request = request;
  out->pipeline = query.id;
  out->opt_class = query.opt_class;
  out->estimator = estimator;
  const int32_t root = log->Begin(request, "request");
  auto finish = [&](Result<matrix::Matrix> result) {
    log->End(root);
    const Span& span = log->spans()[static_cast<size_t>(root)];
    *latency = span.end - span.start;
    return result;
  };

  int32_t span = log->Begin(request, "parse", root);
  Result<la::ExprPtr> parsed = la::ParseExpression(query.text);
  log->End(span);
  if (!parsed.ok()) return finish(parsed.status());

  span = log->Begin(request, "prepare", root);
  Result<api::PreparedQuery> prepared = session.Prepare(query.text);
  log->End(span);
  if (!prepared.ok()) return finish(prepared.status());
  const api::PreparedQuery& q = *prepared;
  const hadad::pacb::RewriteResult& rewrite = q.rewrite();
  out->hit = q.from_cache();
  out->improved = rewrite.improved;
  out->gamma_ratio =
      rewrite.best_cost > 0 ? rewrite.original_cost / rewrite.best_cost : 1.0;
  if (!out->hit) {
    const Span prepare = log->spans()[static_cast<size_t>(span)];
    out->rwfind_seconds = rewrite.optimize_seconds;
    out->chase = rewrite.chase_stats;
    log->Add(request, "rwfind", span,
             std::max(prepare.start, prepare.end - rewrite.optimize_seconds),
             prepare.end);
  }

  const bool morpheus = session.morpheus() != nullptr &&
                        session.morpheus()->ReferencesNormalized(*q.plan());
  out->route = morpheus ? "morpheus"
               : session.executor() != nullptr ? "dag"
                                               : "tree";
  span = log->Begin(request, "execute", root);
  Result<matrix::Matrix> result = q.Execute(&out->exec);
  log->End(span);
  if (out->route == "dag" && result.ok()) {
    const Span execute = log->spans()[static_cast<size_t>(span)];
    const double before_run =
        std::max(0.0, execute.end - execute.start - out->exec.seconds);
    log->Add(request, "compile", span, execute.start,
             execute.start + before_run);
  }
  return finish(std::move(result));
}

// Per-client traced state, merged into the RunRecord after the threads end.
struct ClientTrace {
  SpanLog log;
  std::vector<TracedRequest> requests;
  std::vector<double> latencies;
};

void MergeTraces(std::vector<ClientTrace>* clients, RunRecord* record) {
  for (ClientTrace& c : *clients) {
    const int32_t base = static_cast<int32_t>(record->spans.size());
    for (Span s : c.log.spans()) {
      if (s.parent >= 0) s.parent += base;
      record->spans.push_back(s);
    }
    for (TracedRequest& r : c.requests) {
      record->requests.push_back(std::move(r));
    }
    record->traced_latencies.insert(record->traced_latencies.end(),
                                    c.latencies.begin(), c.latencies.end());
  }
}

// Samples the workspace version gauges (Session::MetricsText refreshes
// them) every 20 ms while alive, and the retired-version counter at both
// ends.
class GaugeSampler {
 public:
  explicit GaugeSampler(const api::Session& session) : session_(session) {
    retired_start_ = Retired();
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        Sample();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  ~GaugeSampler() { Stop(); }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    Sample();
  }
  void Report(RunRecord* record) {
    Stop();
    record->versions_peak = versions_peak_;
    record->pinned_peak = pinned_peak_;
    record->retired_total = Retired() - retired_start_;
  }

 private:
  void Sample() {
    session_.MetricsText();
    versions_peak_ = std::max(versions_peak_, Gauge("hadad_workspace_versions"));
    pinned_peak_ =
        std::max(pinned_peak_, Gauge("hadad_workspace_pinned_snapshots"));
  }
  int64_t Gauge(const char* name) const {
    const hadad::obs::Gauge* g = session_.metrics().FindGauge(name);
    return g != nullptr ? static_cast<int64_t>(g->Value()) : 0;
  }
  int64_t Retired() const {
    session_.MetricsText();
    const hadad::obs::Counter* c =
        session_.metrics().FindCounter("hadad_workspace_retired_total");
    return c != nullptr ? c->Value() : 0;
  }

  const api::Session& session_;
  int64_t versions_peak_ = 0;
  int64_t pinned_peak_ = 0;
  int64_t retired_start_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: starts after the members it reads.
};

// Closed loop: `clients` threads each issue their next request only after
// the previous one returned. Each client walks whole passes of `pass`
// requests and starts no new pass once `seconds` have passed, so every run
// weighs the pipelines of the mix equally.
void ClosedLoop(int clients, double seconds, size_t pass, Tally* tally,
                const std::function<void(int, int64_t)>& body) {
  const double deadline = Now() + seconds;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (int64_t i = 0; Now() < deadline || i % pass != 0; ++i) {
          body(c, i);
        }
      } catch (const std::exception& e) {
        tally->Record(false, std::string("client exception: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void RecordCacheStats(const std::vector<api::SessionStats>& before,
                      const std::vector<const api::Session*>& sessions,
                      RunRecord* record) {
  for (size_t i = 0; i < sessions.size(); ++i) {
    const api::SessionStats after = sessions[i]->stats();
    record->cache_hits += after.cache_hits - before[i].cache_hits;
    record->cache_misses += after.cache_misses - before[i].cache_misses;
  }
}

// --- cold_plan --------------------------------------------------------------
// Every request pays parse + RW_find + compile + execute: the plan cache is
// cleared (untimed) before each Session::Run.
Status ColdPlan(const Options& options, Tally* tally, RunRecord* record) {
  Rng rng(options.seed);
  const pacb::EstimatorKind kinds[2] = {pacb::EstimatorKind::kNaive,
                                        pacb::EstimatorKind::kMnc};
  const char* const names[2] = {"naive", "mnc"};
  std::shared_ptr<api::Session> sessions[2];
  // The oracle: every pipeline evaluated as stated by the tree evaluator.
  // The first serving of each (session, pipeline) item must match it within
  // kOracleTolerance and becomes the item's reference; every later serving
  // must reproduce that reference bit for bit. (Deriving the references
  // during set-up would cost one more full RW_find pass per run.)
  const std::vector<Query> queries = LaQueries();
  std::vector<Result<matrix::Matrix>> expected;
  {
    // The generated data lives only for set-up: the sessions hold their
    // own copies.
    const engine::Workspace data = core::MakeLaBenchWorkspace(rng);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      sessions[0].reset();
      sessions[1].reset();
      const double start = Now();
      for (int s = 0; s < 2; ++s) {
        HADAD_ASSIGN_OR_RETURN(sessions[s], BuildLaSession(data, kinds[s]));
      }
      record->setup_seconds.push_back(Now() - start);
    }
    HADAD_ASSIGN_OR_RETURN(std::shared_ptr<api::Session> oracle,
                           BuildOracle(data));
    for (const Query& q : queries) expected.push_back(AsStated(*oracle, q.text));
  }
  // Checks against expected[q] still to come; the entry is freed after the
  // last, so the oracle's results do not weigh on the run's memory.
  std::vector<int> unchecked(queries.size(), 2);
  struct Item {
    size_t query;
    int session;
    std::optional<uint64_t> reference;
  };
  std::vector<Item> items;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (int s = 0; s < 2; ++s) items.push_back({i, s, std::nullopt});
  }
  Shuffle(&items, rng);
  auto check = [&](const Result<matrix::Matrix>& served, Item* item) {
    const Query& q = queries[item->query];
    if (item->reference.has_value()) {
      CheckFingerprint(served, *item->reference, q, tally);
      return;
    }
    const Result<matrix::Matrix>& want = expected[item->query];
    tally->Record(served.ok() && want.ok() &&
                      RelativeError(*served, *want) <= kOracleTolerance,
                  std::string("oracle ") + names[item->session] + " " + q.id +
                      ": " +
                      (!served.ok() ? served.status().ToString()
                       : !want.ok() ? want.status().ToString()
                                    : "differs from the as-stated result"));
    item->reference = served.ok() ? Fingerprint(*served) : 0;
    if (--unchecked[item->query] == 0) {
      expected[item->query] = Status::Internal("checked");
    }
  };

  // Traced-run set-up happens before either phase, so both phases see the
  // same allocator state.
  if (options.trace) {
    record->mnc_sketch_seconds = TimeMncSketches(*sessions[0]);
  }
  record->peak_rss_timed = ResetPeakRss();
  // Whole passes only, so every run measures the same request mix. A pass
  // starts only if, at the previous pass's pace, it ends within 1.5 phases:
  // on a slow host one long pass replaces two.
  const double phase = options.trace ? options.seconds / 2 : options.seconds;
  auto another_pass = [&](double phase_start, double last_pass) {
    return Now() - phase_start + last_pass <= 1.5 * phase;
  };
  double start = Now();
  double pass_start = start;
  do {
    pass_start = Now();
    for (Item& item : items) {
      api::Session& session = *sessions[item.session];
      session.ClearPlanCache();
      const double t0 = Now();
      Result<matrix::Matrix> served = session.Run(queries[item.query].text);
      const double t1 = Now();
      record->latencies.push_back(t1 - t0);
      record->latency_ends.push_back(t1 - start);
      check(served, &item);
    }
  } while (another_pass(start, Now() - pass_start));
  record->peak_rss_kib = PeakRssKib();
  if (!options.trace) return Status::OK();

  const std::vector<api::SessionStats> before = {sessions[0]->stats(),
                                                 sessions[1]->stats()};
  GaugeSampler sampler(*sessions[0]);
  std::vector<ClientTrace> traces(1);
  ClientTrace& trace = traces[0];
  int64_t request = 0;
  start = Now();
  do {
    pass_start = Now();
    for (Item& item : items) {
      api::Session& session = *sessions[item.session];
      session.ClearPlanCache();
      TracedRequest traced;
      double latency = 0.0;
      Result<matrix::Matrix> served =
          TracedCall(session, queries[item.query], names[item.session],
                     request++, &trace.log, &traced, &latency);
      trace.latencies.push_back(latency);
      trace.requests.push_back(std::move(traced));
      check(served, &item);
    }
  } while (another_pass(start, Now() - pass_start));
  sampler.Report(record);
  RecordCacheStats(before, {sessions[0].get(), sessions[1].get()}, record);
  MergeTraces(&traces, record);
  return Status::OK();
}

// --- mixed_rw ---------------------------------------------------------------
// Two closed-loop clients over one served session with a warm plan cache,
// and one writer whose seeded mutation stream is paced by read progress.
Status MixedRw(const Options& options, Tally* tally, RunRecord* record) {
  Rng rng(options.seed);
  // The generated data lives only for set-up: the session holds its own
  // copy.
  std::optional<engine::Workspace> data(core::MakeLaBenchWorkspace(rng));
  const std::vector<core::ViewSpec> views = ViewsOver({"A", "B", "X", "v1"});
  std::shared_ptr<api::Session> session;
  std::shared_ptr<hadad::server::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    session.reset();
    const double start = Now();
    HADAD_ASSIGN_OR_RETURN(
        session, BuildLaSession(*data, pacb::EstimatorKind::kNaive, views));
    HADAD_ASSIGN_OR_RETURN(
        server, hadad::server::Server::Create(
                    session, {.max_in_flight = kClients, .max_queue = 64}));
    record->setup_seconds.push_back(Now() - start);
  }

  // The state moves under the readers, so results are checked in the
  // quiescent pass at the end; here the plans only get warmed.
  const std::vector<Query> queries = LaQueries();
  for (const Query& q : queries) {
    Result<matrix::Matrix> served = session->Run(q.text);
    tally->Record(served.ok(), "warm " + q.id + ": " +
                                   (served.ok() ? std::string()
                                                : served.status().ToString()));
  }
  std::vector<std::vector<size_t>> orders(kClients);
  for (std::vector<size_t>& order : orders) {
    for (size_t i = 0; i < queries.size(); ++i) order.push_back(i);
    Shuffle(&order, rng);
  }
  std::vector<std::shared_ptr<hadad::server::ClientSession>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(server->Connect("client-" + std::to_string(c)));
  }

  // Traced-run set-up happens before either phase (and before the writer
  // starts), so both phases see the same allocator state.
  if (options.trace) record->mnc_sketch_seconds = TimeMncSketches(*session);

  // The writer's inputs: two B and two X variants to alternate between
  // (kept row-compatible with B across appends), and its own generator.
  std::atomic<int64_t> reads_done{0};
  std::atomic<bool> stop_writer{false};
  std::vector<matrix::Matrix> b_variants;
  std::vector<matrix::Matrix> x_variants;
  std::thread writer;
  const matrix::Matrix& b = *data->Find("B");
  const matrix::Matrix& x = *data->Find("X");
  b_variants = {b, matrix::RandomDense(rng, b.rows(), b.cols())};
  x_variants = {x, matrix::RandomSparse(rng, x.rows(), x.cols(), 0.002)};
  const int64_t append_cap = data->Find("A")->rows() / 10;
  const int64_t width = b.cols();
  const int64_t v1_rows = data->Find("v1")->rows();
  const uint64_t writer_seed = rng.Next();
  writer = std::thread([&, append_cap, width, v1_rows, writer_seed] {
    try {
      Rng wrng(writer_seed);
      int64_t appended = 0;
      int64_t updates_b = 0;
      int64_t updates_x = 0;
      for (int64_t i = 0;; ++i) {
        while (!stop_writer.load() &&
               reads_done.load() < (i + 1) * kReadsPerWrite) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (stop_writer.load()) return;
        uint64_t kind = wrng.NextBelow(4);
        if (kind == 3 && appended + kAppendRows > append_cap) kind = 2;
        Status status;
        double seconds = 0.0;
        std::string label = "update";
        if (kind == 0) {
          matrix::Matrix value = b_variants[updates_b++ % 2];
          const double t0 = Now();
          status = session->Update("B", std::move(value));
          seconds = Now() - t0;
        } else if (kind == 1) {
          matrix::Matrix value = x_variants[updates_x++ % 2];
          const double t0 = Now();
          status = session->Update("X", std::move(value));
          seconds = Now() - t0;
        } else if (kind == 2) {
          matrix::Matrix value = matrix::RandomDense(wrng, v1_rows, 1);
          const double t0 = Now();
          status = session->Update("v1", std::move(value));
          seconds = Now() - t0;
        } else {
          label = "append_batch";
          matrix::Matrix rows_a =
              matrix::RandomDense(wrng, kAppendRows, width);
          matrix::Matrix rows_b =
              matrix::RandomDense(wrng, kAppendRows, width);
          std::vector<api::Mutation> batch = {
              api::Mutation::Append("A", rows_a),
              api::Mutation::Append("B", rows_b)};
          const double t0 = Now();
          status = session->Mutate(std::move(batch));
          seconds = Now() - t0;
          if (status.ok()) {
            appended += kAppendRows;
            for (matrix::Matrix& v : b_variants) {
              status = matrix::AppendRows(&v, rows_b);
              if (!status.ok()) break;
            }
          }
        }
        record->writes.emplace_back(label, seconds);
        tally->Record(status.ok(), "write " + label + ": " +
                                       status.ToString());
      }
    } catch (const std::exception& e) {
      tally->Record(false, std::string("writer exception: ") + e.what());
    }
  });
  // Stops and joins the writer on every path out of this function.
  struct WriterGuard {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~WriterGuard() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } writer_guard{stop_writer, writer};
  data.reset();
  record->peak_rss_timed = ResetPeakRss();

  // While writes move the state only errors are checked; the quiescent
  // pass at the end checks values.
  auto check_read = [&](const Result<matrix::Matrix>& served, size_t qi) {
    tally->Record(served.ok(), "read " + queries[qi].id + ": " +
                                   (served.ok() ? std::string()
                                                : served.status().ToString()));
    reads_done.fetch_add(1);
  };
  const double phase = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<std::vector<double>> ends(kClients);
  const double start = Now();
  ClosedLoop(kClients, phase, queries.size(), tally, [&](int c, int64_t i) {
    const size_t qi = orders[c][static_cast<size_t>(i) % queries.size()];
    const double t0 = Now();
    Result<matrix::Matrix> served = clients[c]->Run(queries[qi].text);
    const double t1 = Now();
    latencies[c].push_back(t1 - t0);
    ends[c].push_back(t1 - start);
    check_read(served, qi);
  });
  record->peak_rss_kib = PeakRssKib();
  for (int c = 0; c < kClients; ++c) {
    record->latencies.insert(record->latencies.end(), latencies[c].begin(),
                             latencies[c].end());
    record->latency_ends.insert(record->latency_ends.end(), ends[c].begin(),
                                ends[c].end());
  }

  if (options.trace) {
    const hadad::obs::Histogram* wait =
        session->metrics().FindHistogram("hadad_server_queue_wait_seconds");
    if (wait != nullptr) {
      record->queue_wait_p50_ms = hadad::obs::HistogramQuantile(*wait, 0.5) * 1e3;
      record->queue_wait_p90_ms = hadad::obs::HistogramQuantile(*wait, 0.9) * 1e3;
    }
    const std::vector<api::SessionStats> before = {session->stats()};
    GaugeSampler sampler(*session);
    std::vector<ClientTrace> traces(kClients);
    ClosedLoop(kClients, phase, queries.size(), tally, [&](int c, int64_t i) {
      const size_t qi = orders[c][static_cast<size_t>(i) % queries.size()];
      TracedRequest traced;
      double latency = 0.0;
      Result<matrix::Matrix> served =
          TracedCall(*session, queries[qi], "naive",
                     static_cast<int64_t>(c) * 1000000000 + i,
                     &traces[c].log, &traced, &latency);
      traces[c].latencies.push_back(latency);
      traces[c].requests.push_back(std::move(traced));
      check_read(served, qi);
    });
    sampler.Report(record);
    RecordCacheStats(before, {session.get()}, record);
    MergeTraces(&traces, record);
  }
  stop_writer.store(true);
  if (writer.joinable()) writer.join();

  // Quiescent pass: every pipeline, served from the final state, against the
  // as-stated evaluation of that same state.
  for (const Query& q : queries) {
    Result<matrix::Matrix> served = Status::Internal("not run");
    Result<matrix::Matrix> expected = Status::Internal("not run");
    Result<api::PreparedQuery> prepared = session->Prepare(q.text);
    if (prepared.ok()) {
      served = prepared->Execute();
      expected = prepared->ExecuteOriginal();
    }
    const bool ok = served.ok() && expected.ok() &&
                    RelativeError(*served, *expected) <= kOracleTolerance;
    tally->Record(ok, "final state " + q.id + ": " +
                          (!prepared.ok() ? prepared.status().ToString()
                           : !served.ok() ? served.status().ToString()
                                          : "mismatch or as-stated error"));
  }
  return Status::OK();
}

// --- factorized -------------------------------------------------------------
// One closed-loop client over a session whose M is a normalized (PK-FK)
// matrix, so every pipeline runs on the Morpheus engine (Figs. 9 and 12).
Status Factorized(const Options& options, Tally* tally, RunRecord* record) {
  Rng rng(options.seed);
  std::shared_ptr<api::Session> session;
  {
    // The generated data lives only for set-up: the session holds its own
    // copy.
    const hadad::morpheus::NormalizedMatrix nm = hadad::morpheus::GeneratePkFk(
        rng, {.n_r = 500, .d_s = 20, .tuple_ratio = 20, .feature_ratio = 5});
    const matrix::Matrix g = matrix::RandomDense(rng, nm.cols(), 100);
    const matrix::Matrix g2 = matrix::RandomDense(rng, 100, nm.rows());
    const matrix::Matrix g3 = matrix::RandomDense(rng, nm.rows(), nm.cols());
    for (int rep = 0; rep < kSetupReps; ++rep) {
      session.reset();
      const double start = Now();
      HADAD_ASSIGN_OR_RETURN(session, api::SessionBuilder()
                                          .AddNormalizedMatrix("M", nm)
                                          .Put("G", g)
                                          .Put("G2", g2)
                                          .Put("G3", g3)
                                          .Threads(kSessionThreads)
                                          .Build());
      record->setup_seconds.push_back(Now() - start);
    }
  }

  const std::vector<Query> queries = {
      {"P1.12", "colSums(M %*% G)"},  {"P2.10", "rowSums(G2 %*% M)"},
      {"P2.11", "sum(G3 + M)"},       {"P2.15", "sum(rowSums(M))"},
      {"P1.10", "rowSums(t(M))"},     {"P1.16", "sum(t(M))"},
      {"P1.18", "sum(colSums(M))"}};
  // References: ExecuteOriginal (Morpheus, as stated). The cold Prepare
  // here is each pipeline's RW_find (Fig. 12's overhead numerator).
  std::vector<matrix::Matrix> references(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<api::PreparedQuery> q = session->Prepare(queries[i].text);
    Result<matrix::Matrix> served = Status::Internal("not run");
    Result<matrix::Matrix> expected = Status::Internal("not run");
    if (q.ok()) {
      const double t0 = Now();
      served = q->Execute();
      record->morpheus_exec_seconds.push_back(Now() - t0);
      record->morpheus_rwfind_seconds.push_back(q->rewrite().optimize_seconds);
      expected = q->ExecuteOriginal();
    }
    const bool ok = served.ok() && expected.ok() &&
                    RelativeError(*served, *expected) <= kFactorizedTolerance;
    tally->Record(ok, "reference " + queries[i].id + ": " +
                          (q.ok() ? "mismatch or execution error"
                                  : q.status().ToString()));
    if (expected.ok()) references[i] = *expected;
  }
  auto check = [&](const Result<matrix::Matrix>& served, size_t i) {
    const bool ok = served.ok() && RelativeError(*served, references[i]) <=
                                       kFactorizedTolerance;
    tally->Record(ok, "serve " + queries[i].id + ": " +
                          (served.ok() ? "differs from ExecuteOriginal"
                                       : served.status().ToString()));
  };
  std::vector<size_t> order;
  for (size_t i = 0; i < queries.size(); ++i) order.push_back(i);
  Shuffle(&order, rng);

  // Traced-run set-up happens before either phase, so both phases see the
  // same allocator state.
  if (options.trace) {
    // Fig. 9: Morpheus with HADAD's rewriting vs Morpheus alone, medians of
    // three executions each.
    for (const Query& q : queries) {
      Result<api::PreparedQuery> prepared = session->Prepare(q.text);
      if (!prepared.ok()) continue;
      auto median_wall = [&](bool original) {
        std::vector<double> walls;
        for (int rep = 0; rep < 3; ++rep) {
          const double t0 = Now();
          Result<matrix::Matrix> r = original ? prepared->ExecuteOriginal()
                                              : prepared->Execute();
          walls.push_back(Now() - t0);
          if (!r.ok()) return 0.0;
        }
        std::sort(walls.begin(), walls.end());
        return walls[1];
      };
      const double rewritten = median_wall(false);
      const double original = median_wall(true);
      if (rewritten > 0 && original > 0) {
        record->morpheus_speedups.push_back(original / rewritten);
      }
    }
    record->mnc_sketch_seconds = TimeMncSketches(*session);
  }
  record->peak_rss_timed = ResetPeakRss();
  const double phase = options.trace ? options.seconds / 2 : options.seconds;
  const double start = Now();
  ClosedLoop(1, phase, order.size(), tally, [&](int, int64_t i) {
    const size_t qi = order[static_cast<size_t>(i) % order.size()];
    const double t0 = Now();
    Result<matrix::Matrix> served = session->Run(queries[qi].text);
    const double t1 = Now();
    record->latencies.push_back(t1 - t0);
    record->latency_ends.push_back(t1 - start);
    check(served, qi);
  });
  record->peak_rss_kib = PeakRssKib();
  if (!options.trace) return Status::OK();

  const std::vector<api::SessionStats> before = {session->stats()};
  GaugeSampler sampler(*session);
  std::vector<ClientTrace> traces(1);
  ClosedLoop(1, phase, order.size(), tally, [&](int, int64_t i) {
    const size_t qi = order[static_cast<size_t>(i) % order.size()];
    TracedRequest traced;
    double latency = 0.0;
    Result<matrix::Matrix> served =
        TracedCall(*session, queries[qi], "naive", i, &traces[0].log, &traced,
                   &latency);
    traces[0].latencies.push_back(latency);
    traces[0].requests.push_back(std::move(traced));
    check(served, qi);
  });
  sampler.Report(record);
  RecordCacheStats(before, {session.get()}, record);
  MergeTraces(&traces, record);
  return Status::OK();
}

}  // namespace

void Tally::Record(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

int64_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Tally::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold_plan", "mixed_rw",
                                                 "factorized"};
  return names;
}

Status RunWorkload(const Options& options, Tally* tally, RunRecord* record) {
  if (options.workload == "cold_plan") {
    return ColdPlan(options, tally, record);
  }
  if (options.workload == "mixed_rw") {
    return MixedRw(options, tally, record);
  }
  if (options.workload == "factorized") {
    return Factorized(options, tally, record);
  }
  return Status::InvalidArgument("unknown workload '" + options.workload +
                                 "'");
}

}  // namespace perfbench
