// Tests for the observability subsystem (src/obs/): the span recorder and
// its Chrome-trace export, the metrics registry, EXPLAIN ANALYZE rendering,
// and the end-to-end instrumentation threaded through api::Session.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hadad::obs {
namespace {

// ---------------------------------------------------------------------------
// Allocation counting for the disabled-mode zero-allocation test. The
// global operator new/delete overrides count every heap allocation made by
// this binary; tests snapshot the counter around the code under test.
// ---------------------------------------------------------------------------

std::atomic<int64_t> g_allocations{0};

}  // namespace
}  // namespace hadad::obs

void* operator new(std::size_t size) {
  hadad::obs::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hadad::obs {
namespace {

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RecordsHierarchy) {
  TraceRecorder rec;
  const SpanId root = rec.StartSpan("Run", "session");
  ASSERT_NE(root, kNoSpan);
  const SpanId child = rec.StartSpan("dag_compile", "compile", root);
  rec.Annotate(child, "plan_nodes", int64_t{7});
  rec.Annotate(child, "note", std::string("hello"));
  rec.Annotate(child, "seconds", 0.25);
  rec.EndSpan(child);
  rec.EndSpan(root);

  const std::vector<Span> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "Run");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_GE(spans[1].duration_us, 0);
  ASSERT_EQ(spans[1].attrs.size(), 3u);
  EXPECT_EQ(spans[1].attrs[0].first, "plan_nodes");
  EXPECT_EQ(spans[1].attrs[0].second, "7");
}

TEST(TraceRecorderTest, DisabledRecorderReturnsNoSpan) {
  TraceOptions off;
  off.enabled = false;
  TraceRecorder rec(off);
  EXPECT_EQ(rec.StartSpan("x", "session"), kNoSpan);
  rec.EndSpan(kNoSpan);  // Must tolerate the sentinel.
  EXPECT_EQ(rec.span_count(), 0);
}

TEST(TraceRecorderTest, MaxSpansCapCountsDropped) {
  TraceOptions opts;
  opts.max_spans = 2;
  TraceRecorder rec(opts);
  EXPECT_NE(rec.StartSpan("a", "session"), kNoSpan);
  EXPECT_NE(rec.StartSpan("b", "session"), kNoSpan);
  EXPECT_EQ(rec.StartSpan("c", "session"), kNoSpan);
  EXPECT_EQ(rec.span_count(), 2);
  EXPECT_EQ(rec.dropped(), 1);
}

TEST(TraceRecorderTest, RingModeRetainsNewestAndCountsEvictions) {
  TraceOptions opts;
  opts.ring_capacity = 4;
  TraceRecorder rec(opts);
  for (int i = 0; i < 10; ++i) {
    const SpanId id = rec.StartSpan("s" + std::to_string(i), "session");
    EXPECT_EQ(id, static_cast<SpanId>(i));  // Never refused, ids monotone.
    rec.EndSpan(id);
  }
  EXPECT_EQ(rec.span_count(), 4);
  EXPECT_EQ(rec.dropped(), 6);  // Evictions preserve the "lost" meaning.
  const std::vector<Span> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].id, static_cast<SpanId>(6 + i));  // Newest, id order.
    EXPECT_EQ(spans[i].name, "s" + std::to_string(6 + i));
    EXPECT_GE(spans[i].duration_us, 0);
  }
}

TEST(TraceRecorderTest, RingModeMutationOfEvictedSpanIsNoOp) {
  TraceOptions opts;
  opts.ring_capacity = 2;
  TraceRecorder rec(opts);
  const SpanId victim = rec.StartSpan("victim", "session");
  for (int i = 0; i < 4; ++i) {
    rec.EndSpan(rec.StartSpan("filler", "session"));
  }
  // `victim`'s slot now belongs to a newer generation; closing or
  // annotating it must not corrupt the occupant.
  rec.EndSpan(victim);
  rec.Annotate(victim, "key", std::string("value"));
  for (const Span& s : rec.Snapshot()) {
    EXPECT_EQ(s.name, "filler");
    EXPECT_TRUE(s.attrs.empty());
  }
  EXPECT_EQ(rec.dropped(), 3);  // 5 started, 2 retained.
}

TEST(TraceRecorderTest, RingModeChromeTraceExportsRetainedSpans) {
  TraceOptions opts;
  opts.ring_capacity = 3;
  TraceRecorder rec(opts);
  for (int i = 0; i < 8; ++i) {
    rec.EndSpan(rec.StartSpan("k" + std::to_string(i), "kernel"));
  }
  std::ostringstream out;
  rec.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("\"k0\""), std::string::npos);  // Evicted.
  EXPECT_NE(json.find("\"k7\""), std::string::npos);  // Newest retained.
}

// Concurrent span production from many threads: exercised under TSan by the
// dedicated CI job; the assertions check ids stay unique and dense.
TEST(TraceRecorderTest, ConcurrentSpanNesting) {
  TraceRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan outer(&rec, "outer", "session");
        ScopedSpan inner(&rec, "inner", "kernel", outer.id());
        inner.Annotate("i", static_cast<int64_t>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const std::vector<Span> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(),
            static_cast<size_t>(kThreads * kSpansPerThread * 2));
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, static_cast<SpanId>(i));  // Dense start-order ids.
    EXPECT_GE(spans[i].duration_us, 0) << "span left open";
    if (spans[i].name == "inner") {
      ASSERT_NE(spans[i].parent, kNoSpan);
      EXPECT_EQ(spans[spans[i].parent].name, "outer");
    }
  }
}

TEST(TraceRecorderTest, ChromeTraceJsonShape) {
  TraceRecorder rec;
  const SpanId root = rec.StartSpan("Run", "session");
  rec.Annotate(root, "query", std::string("M %*% N"));
  const SpanId child = rec.StartSpan("plan_derivation", "plan", root);
  rec.EndSpan(child);
  rec.EndSpan(root);

  std::ostringstream out;
  rec.WriteChromeTrace(out);
  const std::string json = out.str();

  // Structural checks; full JSON validation lives in scripts/check_trace.py.
  EXPECT_EQ(json.find("{\"displayTimeUnit\": \"ms\""), 0u);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"Run\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"query\": \"M %*% N\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  // Balanced braces/brackets (cheap well-formedness proxy).
  int64_t braces = 0;
  int64_t brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceRecorderTest, JsonEscapesControlAndQuoteCharacters) {
  TraceRecorder rec;
  const SpanId s = rec.StartSpan("has \"quotes\"\n", "session");
  rec.EndSpan(s);
  std::ostringstream out;
  rec.WriteChromeTrace(out);
  EXPECT_NE(out.str().find("has \\\"quotes\\\"\\n"), std::string::npos);
}

// The disabled path the Session compiles down to: a ScopedSpan over a null
// recorder must not allocate (or do anything else measurable).
TEST(TraceRecorderTest, NullRecorderScopedSpanDoesNotAllocate) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span(nullptr, "Run", "session");
    span.Annotate("query", std::string("q"));
    span.Annotate("n", int64_t{1});
    span.Annotate("t", 0.5);
    ASSERT_FALSE(span.active());
  }
  const int64_t after = g_allocations.load(std::memory_order_relaxed);
  // The std::string temporaries for Annotate land in SSO buffers; nothing
  // here may touch the heap.
  EXPECT_EQ(after - before, 0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("hadad_test_total", "Test counter. Unit: 1.");
  ASSERT_NE(c, nullptr);
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->Value(), 5);
  // Idempotent re-registration returns the same handle.
  EXPECT_EQ(reg.AddCounter("hadad_test_total", "dup"), c);
  // Same name, different type: rejected.
  EXPECT_EQ(reg.AddGauge("hadad_test_total", "clash"), nullptr);

  Gauge* g = reg.AddGauge("hadad_test_bytes", "Test gauge. Unit: bytes.");
  g->Set(123.0);
  EXPECT_EQ(g->Value(), 123.0);
  EXPECT_EQ(reg.FindCounter("hadad_test_total"), c);
  EXPECT_EQ(reg.FindGauge("hadad_test_total"), nullptr);
  EXPECT_EQ(reg.FindCounter("absent"), nullptr);
}

TEST(MetricsTest, HistogramBucketMath) {
  MetricsRegistry reg;
  Histogram* h = reg.AddHistogram("hadad_test_seconds",
                                  "Test histogram. Unit: seconds.",
                                  {0.001, 0.01, 0.1, 1.0});
  ASSERT_NE(h, nullptr);
  h->Observe(0.0005);  // bucket 0 (le 0.001)
  h->Observe(0.001);   // bucket 0 — upper edges are inclusive (le semantics)
  h->Observe(0.005);   // bucket 1
  h->Observe(0.1);     // bucket 2 — exact edge again
  h->Observe(0.5);     // bucket 3
  h->Observe(50.0);    // +Inf bucket
  EXPECT_EQ(h->BucketCount(0), 2);
  EXPECT_EQ(h->BucketCount(1), 1);
  EXPECT_EQ(h->BucketCount(2), 1);
  EXPECT_EQ(h->BucketCount(3), 1);
  EXPECT_EQ(h->BucketCount(4), 1);  // +Inf
  EXPECT_EQ(h->Count(), 6);
  EXPECT_NEAR(h->Sum(), 0.0005 + 0.001 + 0.005 + 0.1 + 0.5 + 50.0, 1e-12);
}

TEST(MetricsTest, HistogramQuantileInterpolatesWithinBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.AddHistogram("hadad_q_seconds", "q",
                                  {0.01, 0.1, 1.0});
  // 8 observations in (0.01, 0.1]: quantile ranks land in bucket 1 and
  // interpolate linearly across its width.
  for (int i = 0; i < 8; ++i) h->Observe(0.05);
  // p50 rank = 4 of 8, all in bucket 1 → 0.01 + (0.1-0.01) * 4/8.
  EXPECT_NEAR(HistogramQuantile(*h, 0.5), 0.055, 1e-9);
  // p100 → bucket 1's upper bound.
  EXPECT_NEAR(HistogramQuantile(*h, 1.0), 0.1, 1e-9);
  // p0 → bucket 1's lower bound (the first bucket with any mass).
  EXPECT_NEAR(HistogramQuantile(*h, 0.0), 0.01, 1e-9);
}

TEST(MetricsTest, HistogramQuantileSpansBucketsAndClampsInf) {
  MetricsRegistry reg;
  Histogram* h = reg.AddHistogram("hadad_q2_seconds", "q",
                                  {0.001, 0.01, 0.1, 1.0});
  for (int i = 0; i < 90; ++i) h->Observe(0.0005);  // bucket 0
  for (int i = 0; i < 9; ++i) h->Observe(0.05);     // bucket 2
  h->Observe(5.0);                                  // +Inf bucket
  // p50 rank = 50 of 100, inside bucket 0 → 0 + 0.001 * 50/90.
  EXPECT_NEAR(HistogramQuantile(*h, 0.5), 0.001 * 50.0 / 90.0, 1e-9);
  // p95 rank = 95, bucket 2 holds ranks 91..99 → interpolate 5/9 across.
  EXPECT_NEAR(HistogramQuantile(*h, 0.95), 0.01 + 0.09 * 5.0 / 9.0, 1e-9);
  // p99.9 lands in the +Inf bucket → clamp to the last finite bound.
  EXPECT_NEAR(HistogramQuantile(*h, 0.999), 1.0, 1e-9);
}

TEST(MetricsTest, HistogramQuantileEmptyHistogramIsZero) {
  MetricsRegistry reg;
  Histogram* h = reg.AddHistogram("hadad_q3_seconds", "q", {0.1, 1.0});
  EXPECT_EQ(HistogramQuantile(*h, 0.5), 0.0);
}

TEST(MetricsTest, ConcurrentObservations) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("hadad_conc_total", "c");
  Histogram* h = reg.AddHistogram("hadad_conc_seconds", "h", {1.0});
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c, h] {
      for (int i = 0; i < kIters; ++i) {
        c->Inc();
        h->Observe(0.5);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->Value(), kThreads * kIters);
  EXPECT_EQ(h->Count(), kThreads * kIters);
  EXPECT_EQ(h->BucketCount(0), kThreads * kIters);
  EXPECT_NEAR(h->Sum(), 0.5 * kThreads * kIters, 1e-6);
}

TEST(MetricsTest, PrometheusRendering) {
  MetricsRegistry reg;
  reg.AddCounter("hadad_runs_total", "Completed runs. Unit: 1.")->Inc(3);
  reg.AddGauge("hadad_cache_size", "Entries. Unit: 1.")->Set(2.0);
  Histogram* h =
      reg.AddHistogram("hadad_lat_seconds", "Latency. Unit: seconds.",
                       {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);

  const std::string text = reg.Render();
  EXPECT_NE(text.find("# HELP hadad_runs_total Completed runs. Unit: 1."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hadad_runs_total counter"), std::string::npos);
  EXPECT_NE(text.find("hadad_runs_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hadad_cache_size gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hadad_lat_seconds histogram"),
            std::string::npos);
  // Cumulative bucket counts: le="0.1" has 1, le="1" has 2, +Inf has 2.
  EXPECT_NE(text.find("hadad_lat_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("hadad_lat_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hadad_lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hadad_lat_seconds_count 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Session integration: tracing, metrics, EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

std::shared_ptr<api::Session> MakeTracedSession(int threads) {
  Rng rng(7);
  auto session = api::SessionBuilder()
                     .Put("M", matrix::RandomDense(rng, 40, 12))
                     .Put("N", matrix::RandomDense(rng, 12, 40))
                     .Put("v", matrix::RandomDense(rng, 40, 1))
                     .Threads(threads)
                     .Tracing()
                     .Build();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return *session;
}

TEST(SessionTracingTest, EmitsSpansAcrossLayers) {
  std::shared_ptr<api::Session> session = MakeTracedSession(2);
  auto result = session->Run("t(N) %*% t(M) %*% v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Second run: plan-cache hit path.
  ASSERT_TRUE(session->Run("t(N) %*% t(M) %*% v").ok());

  ASSERT_NE(session->trace(), nullptr);
  const std::vector<Span> spans = session->trace()->Snapshot();
  bool saw_session = false;
  bool saw_cache_miss = false;
  bool saw_cache_hit = false;
  bool saw_plan = false;
  bool saw_compile = false;
  bool saw_kernel = false;
  for (const Span& s : spans) {
    if (s.category == "session" && s.name == "Run") saw_session = true;
    if (s.category == "plan") saw_plan = true;
    if (s.category == "compile") saw_compile = true;
    if (s.category == "kernel") saw_kernel = true;
    if (s.category == "cache") {
      for (const auto& [k, v] : s.attrs) {
        if (k == "outcome" && v == "miss") saw_cache_miss = true;
        if (k == "outcome" && v == "hit") saw_cache_hit = true;
      }
    }
  }
  EXPECT_TRUE(saw_session);
  EXPECT_TRUE(saw_cache_miss);
  EXPECT_TRUE(saw_cache_hit);
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_compile);
  EXPECT_TRUE(saw_kernel);

  // Kernel spans parent into the session root, carry shape attributes.
  for (const Span& s : spans) {
    if (s.category != "kernel") continue;
    ASSERT_NE(s.parent, kNoSpan);
    bool has_nnz = false;
    for (const auto& [k, v] : s.attrs) has_nnz |= (k == "nnz");
    EXPECT_TRUE(has_nnz) << s.name;
  }
}

TEST(SessionTracingTest, MutationEmitsViewSpans) {
  Rng rng(3);
  auto built = api::SessionBuilder()
                   .Put("M", matrix::RandomDense(rng, 20, 6))
                   .AddView("V", "t(M)")
                   .AddView("S", "colSums(M)")
                   .AdaptiveViews(int64_t{16} << 20, /*min_hits=*/2)
                   .Tracing()
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::shared_ptr<api::Session> session = *built;
  ASSERT_TRUE(session->Update("M", matrix::RandomDense(rng, 20, 6)).ok());
  ASSERT_TRUE(session->Append("M", matrix::RandomDense(rng, 3, 6)).ok());

  const std::vector<Span> spans = session->trace()->Snapshot();
  bool saw_propagation = false;
  for (const Span& s : spans) {
    if (s.category == "views" && s.name == "mutation_propagation") {
      saw_propagation = true;
    }
  }
  EXPECT_TRUE(saw_propagation);

  // The `mode` of view `view`'s refresh span under the mutation root span
  // named `root` ("none" when there is no such span).
  auto mode_of = [&spans](const std::string& root, const std::string& view) {
    for (const Span& r : spans) {
      if (r.category != "session" || r.name != root) continue;
      for (const Span& s : spans) {
        if (s.parent != r.id || s.name != "view_refresh") continue;
        std::string refreshed;
        std::string mode;
        for (const auto& [k, v] : s.attrs) {
          if (k == "view") refreshed = v;
          if (k == "mode") mode = v;
        }
        if (refreshed == view) return mode;
      }
    }
    return std::string("none");
  };
  // The Update recomputes both views; the Append refreshes the additive
  // colSums(M) by delta and recomputes t(M), whose shape grows with M.
  EXPECT_EQ(mode_of("Update", "V"), "full");
  EXPECT_EQ(mode_of("Update", "S"), "full");
  EXPECT_EQ(mode_of("Append", "V"), "full");
  EXPECT_EQ(mode_of("Append", "S"), "delta");
}

TEST(SessionTracingTest, DumpTraceWritesFile) {
  std::shared_ptr<api::Session> session = MakeTracedSession(1);
  ASSERT_TRUE(session->Run("M %*% N").ok());
  const std::string path = ::testing::TempDir() + "hadad_trace_test.json";
  ASSERT_TRUE(session->DumpTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(SessionTracingTest, UntracedSessionHasNoRecorder) {
  Rng rng(5);
  auto built = api::SessionBuilder()
                   .Put("M", matrix::RandomDense(rng, 10, 10))
                   .Build();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ((*built)->trace(), nullptr);
  EXPECT_EQ((*built)->DumpTrace("/tmp/never.json").code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionMetricsTest, TextCarriesSessionCounters) {
  std::shared_ptr<api::Session> session = MakeTracedSession(2);
  ASSERT_TRUE(session->Run("M %*% N").ok());
  ASSERT_TRUE(session->Run("M %*% N").ok());
  const std::string text = session->MetricsText();
  EXPECT_NE(text.find("hadad_session_runs_total 2"), std::string::npos);
  EXPECT_NE(text.find("hadad_session_plan_cache_hits_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("hadad_session_plan_cache_misses_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("hadad_plan_cache_size 1"), std::string::npos);
  EXPECT_NE(text.find("hadad_threadpool_threads 2"), std::string::npos);
  EXPECT_NE(text.find("hadad_run_seconds_count 2"), std::string::npos);

  // The SessionStats view reads the same registry.
  const api::SessionStats stats = session->stats();
  EXPECT_EQ(stats.runs, 2);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
}

// The plan_derivation span carries the chase's statistics, and a chase that
// stops at its fact budget counts in hadad_chase_budget_exhausted_total (and
// not as stalled).
TEST(SessionTracingTest, PlanDerivationCarriesChaseStatistics) {
  Rng rng(7);
  pacb::OptimizerOptions options;
  options.chase.max_facts = 20;
  auto built = api::SessionBuilder()
                   .Put("M", matrix::RandomDense(rng, 40, 12))
                   .Put("N", matrix::RandomDense(rng, 12, 40))
                   .Put("v", matrix::RandomDense(rng, 40, 1))
                   .SetOptimizerOptions(options)
                   .Tracing()
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::shared_ptr<api::Session> session = *built;
  EXPECT_NE(session->MetricsText().find("hadad_chase_budget_exhausted_total 0"),
            std::string::npos);
  ASSERT_TRUE(session->Run("t(N) %*% t(M) %*% v").ok());
  EXPECT_NE(session->MetricsText().find("hadad_chase_budget_exhausted_total 1"),
            std::string::npos);

  std::map<std::string, std::string> attrs;
  for (const Span& s : session->trace()->Snapshot()) {
    if (s.name != "plan_derivation") continue;
    attrs.insert(s.attrs.begin(), s.attrs.end());
  }
  for (const char* key :
       {"chase_rounds", "chase_tgd_applications", "chase_facts_added",
        "chase_merges", "chase_pruned_applications"}) {
    EXPECT_TRUE(attrs.contains(key)) << key;
  }
  EXPECT_EQ(attrs["chase_budget_exhausted"], "1");
  EXPECT_EQ(attrs["chase_stalled"], "0");
  EXPECT_NE(attrs["chase_tgd_applications"], "0");
  EXPECT_NE(session->MetricsText().find("hadad_chase_stalled_total 0"),
            std::string::npos);
}

// A chase the optimizer ends because rounds stopped lowering the goal's
// best cost shows as chase_stalled on the span and in
// hadad_chase_stalled_total. trace(M %*% N) finds trace(N %*% M) in its
// first round and then stalls.
TEST(SessionTracingTest, PlanDerivationReportsStalledChase) {
  std::shared_ptr<api::Session> session = MakeTracedSession(1);
  EXPECT_NE(session->MetricsText().find("hadad_chase_stalled_total 0"),
            std::string::npos);
  ASSERT_TRUE(session->Run("trace(M %*% N)").ok());
  EXPECT_NE(session->MetricsText().find("hadad_chase_stalled_total 1"),
            std::string::npos);
  EXPECT_NE(session->MetricsText().find("hadad_chase_budget_exhausted_total 0"),
            std::string::npos);

  std::map<std::string, std::string> attrs;
  for (const Span& s : session->trace()->Snapshot()) {
    if (s.name != "plan_derivation") continue;
    attrs.insert(s.attrs.begin(), s.attrs.end());
  }
  EXPECT_EQ(attrs["chase_stalled"], "1");
  EXPECT_EQ(attrs["chase_budget_exhausted"], "0");
}

TEST(ExplainAnalyzeTest, RendersExecutedDagWithTimings) {
  std::shared_ptr<api::Session> session = MakeTracedSession(2);
  auto prepared = session->Prepare("t(N) %*% t(M) %*% v");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto report = prepared->ExplainAnalyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_NE(report->find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(report->find("nodes"), std::string::npos);
  EXPECT_NE(report->find("#0"), std::string::npos);  // Topological node ids.
  EXPECT_NE(report->find("nnz="), std::string::npos);
  EXPECT_NE(report->find("ms ("), std::string::npos);  // time (share%).
  EXPECT_NE(report->find("work "), std::string::npos);
  EXPECT_NE(report->find("gamma "), std::string::npos);
}

// ExplainAnalyze works without tracing too — stats collection alone feeds
// the report.
TEST(ExplainAnalyzeTest, WorksWithoutTracing) {
  Rng rng(9);
  auto built = api::SessionBuilder()
                   .Put("M", matrix::RandomDense(rng, 16, 16))
                   .Threads(1)
                   .Build();
  ASSERT_TRUE(built.ok());
  auto prepared = (*built)->Prepare("M %*% M");
  ASSERT_TRUE(prepared.ok());
  auto report = prepared->ExplainAnalyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("EXPLAIN ANALYZE"), std::string::npos);
}

// The per-node seconds of the report's source data must reconcile with the
// aggregate: sum(node_timings.seconds) == total_operator_seconds (same
// measurements, two aggregations).
TEST(ExplainAnalyzeTest, NodeSecondsSumMatchesTotalOperatorSeconds) {
  Rng rng(13);
  engine::Workspace ws;
  ws.Put("A", matrix::RandomDense(rng, 60, 60));
  ws.Put("B", matrix::RandomDense(rng, 60, 60));
  auto expr = la::ParseExpression("(A %*% B) + t(A %*% B)");
  ASSERT_TRUE(expr.ok());
  engine::ExecOptions opts;
  opts.threads = 2;
  engine::ExecStats stats;
  auto result = engine::Execute(**expr, ws, opts, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(stats.node_timings.empty());
  double node_sum = 0.0;
  for (const engine::NodeTiming& t : stats.node_timings) {
    node_sum += t.seconds;
  }
  EXPECT_GT(stats.total_operator_seconds, 0.0);
  EXPECT_NEAR(node_sum, stats.total_operator_seconds,
              0.1 * stats.total_operator_seconds);
}

}  // namespace
}  // namespace hadad::obs
