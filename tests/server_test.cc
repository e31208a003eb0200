// Tests for the concurrent serving layer (src/server/): shared-substrate
// multi-client execution (bit-identical to sequential), admission control,
// per-request deadlines and cancellation, per-client fairness, and the
// embeddable C API. Part of the TSan suite (scripts/ci.sh tsan) — the
// concurrency assertions here are what that job is for.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "matrix/generate.h"
#include "matrix/matrix.h"
#include "server/hadad_c.h"
#include "server/server.h"

namespace hadad::server {
namespace {

using std::chrono::milliseconds;

// Exact elementwise equality — the serving contract is bit-identity, not
// tolerance: concurrency must change scheduling, never numerics.
void ExpectBitIdentical(const matrix::Matrix& a, const matrix::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const matrix::DenseMatrix da = a.ToDense();
  const matrix::DenseMatrix db = b.ToDense();
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(da.At(i, j), db.At(i, j)) << "at (" << i << "," << j << ")";
    }
  }
}

// M (96x80), N (80x64) back the fast queries; L (400x400) backs kHeavy,
// a right-deep GEMM chain (no repeated subtree, so CSE cannot collapse it)
// that runs long enough that "the dispatcher is busy" is a stable state to
// test admission/fairness/deadlines against, not a race to win.
std::shared_ptr<api::Session> MakeSession(int threads) {
  Rng rng(7);
  auto session = api::SessionBuilder()
                     .Put("M", matrix::RandomDense(rng, 96, 80, -1.0, 1.0))
                     .Put("N", matrix::RandomDense(rng, 80, 64, -1.0, 1.0))
                     .Put("L", matrix::RandomDense(rng, 400, 400, -0.1, 0.1))
                     .Threads(threads)
                     .Build();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return *session;
}

const char* kHeavy = "L %*% (L %*% (L %*% (L %*% (L %*% (L %*% L)))))";

const char* kQueries[] = {
    "colSums(M %*% N)",
    "t(N) %*% t(M)",
    "rowSums(M %*% N)",
    "sum(M %*% N)",
    "(M %*% N) %*% t(N)",
};

// Spin until `predicate` holds (bounded); serving-state transitions (a
// dispatcher popping a request) have no completion signal to wait on.
template <typename Pred>
bool SpinUntil(Pred predicate, milliseconds budget = milliseconds(30000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(ServerTest, ConcurrentClientsBitIdenticalToSequential) {
  // Reference: the same queries on a single-threaded, serverless session.
  std::shared_ptr<api::Session> reference = MakeSession(1);
  std::vector<matrix::Matrix> expected;
  for (const char* q : kQueries) {
    auto r = reference->Run(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(*r));
  }

  auto server = Server::Create(MakeSession(4)).value();
  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  std::vector<std::vector<RequestHandle>> handles(kClients);
  std::vector<std::thread> submitters;
  for (int c = 0; c < kClients; ++c) {
    submitters.emplace_back([&, c] {
      auto client = server->Connect("client" + std::to_string(c));
      for (int r = 0; r < kRounds; ++r) {
        auto submitted = client->Submit(kQueries[(c + r) % 5]);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        handles[c].push_back(std::move(*submitted));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(handles[c].size(), static_cast<size_t>(kRounds));
    for (int r = 0; r < kRounds; ++r) {
      const Result<matrix::Matrix>& got = handles[c][r]->result();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(expected[(c + r) % 5], *got);
    }
  }
  // One shared plan cache served all clients: 5 distinct canonical forms,
  // each derived exactly once — concurrent first-misses coalesce onto the
  // in-flight build instead of duplicating RW_find, so the counters are
  // exact no matter how the clients interleave.
  EXPECT_EQ(server->session().plan_cache_size(), 5);
  const api::SessionStats stats = server->session().stats();
  EXPECT_EQ(stats.prepares, 5);
  EXPECT_EQ(stats.cache_misses, 5);
  EXPECT_EQ(stats.cache_hits, stats.runs - 5);
  server->Shutdown();
}

TEST(ServerTest, ColdMissesOnOneExpressionCoalesce) {
  // All clients race the same never-seen expression: exactly one RW_find
  // runs (the leader's); followers either coalesce onto the in-flight
  // build or — if they arrive after it published — take the plain hit
  // path. Every outcome of the race yields these exact counters.
  auto server = Server::Create(MakeSession(4)).value();
  constexpr int kClients = 4;
  std::vector<std::thread> racers;
  std::vector<Result<matrix::Matrix>> results(
      kClients, Result<matrix::Matrix>(Status::Internal("unset")));
  for (int c = 0; c < kClients; ++c) {
    racers.emplace_back([&, c] {
      auto client = server->Connect("racer" + std::to_string(c));
      results[static_cast<size_t>(c)] = client->Run(kHeavy);
    });
  }
  for (std::thread& t : racers) t.join();
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (int c = 1; c < kClients; ++c) {
    ExpectBitIdentical(*results[0], *results[static_cast<size_t>(c)]);
  }
  const api::SessionStats stats = server->session().stats();
  EXPECT_EQ(stats.prepares, 1);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, kClients - 1);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.runs);
  server->Shutdown();
}

TEST(ServerTest, AdmissionControlRejectsWhenFull) {
  ServerOptions options;
  options.max_in_flight = 1;
  options.max_queue = 2;
  auto server = Server::Create(MakeSession(1), options).value();
  auto client = server->Connect("greedy");

  // Occupy the single dispatcher with the heavy chain, then fill the
  // queue exactly. The dispatcher stays busy for the whole window.
  auto blocker = client->Submit(kHeavy).value();
  ASSERT_TRUE(SpinUntil([&] { return server->in_flight() == 1; }));
  auto q1 = client->Submit(kQueries[0]).value();
  auto q2 = client->Submit(kQueries[1]).value();
  ASSERT_EQ(server->queue_depth(), 2);

  // Queue full + dispatcher busy: admission fails with the typed code.
  auto overflow = client->Submit(kQueries[2]);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOverloaded);
  const obs::MetricsRegistry& metrics = server->session().metrics();
  EXPECT_GE(metrics.FindCounter("hadad_server_rejected_total")->Value(), 1);

  // Everything accepted still completes.
  EXPECT_TRUE(blocker->result().ok());
  EXPECT_TRUE(q1->result().ok());
  EXPECT_TRUE(q2->result().ok());
  server->Shutdown();
}

TEST(ServerTest, DeadlineFiresMidDagAndPoolDrainsClean) {
  auto server = Server::Create(MakeSession(2)).value();
  auto client = server->Connect("hurried");

  // Warm the plan so the deadline cannot burn on optimization alone, then
  // submit with a budget far below the chain's execution time: the token
  // passes the pre-run checks and trips inside the scheduler's per-node
  // cancellation point.
  ASSERT_TRUE(client->Run(kHeavy).ok());
  RequestOptions hurried;
  hurried.deadline = milliseconds(25);
  const Result<matrix::Matrix>& out = client->Run(kHeavy, hurried);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(server->session()
                .metrics()
                .FindCounter("hadad_server_deadline_exceeded_total")
                ->Value(),
            1);

  // The abort drained cleanly: the pool and the shared substrate keep
  // serving (including the very plan that was aborted).
  for (const char* q : kQueries) {
    EXPECT_TRUE(client->Run(q).ok()) << q;
  }
  EXPECT_TRUE(client->Run(kHeavy).ok());
  server->Shutdown();
}

TEST(ServerTest, CancellationLeavesSharedStateConsistent) {
  Rng rng(3);
  matrix::Matrix base = matrix::RandomDense(rng, 64, 64, -1.0, 1.0);
  auto built = api::SessionBuilder()
                   .Put("M", base)
                   .AddView("V", "t(M) %*% M")
                   .Threads(2)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto server = Server::Create(*built).value();
  auto client = server->Connect("flaky");

  // Cancel a batch of requests at various stages of their lifecycle.
  for (int i = 0; i < 8; ++i) {
    auto submitted = client->Submit("V %*% (t(M) %*% M)");
    ASSERT_TRUE(submitted.ok());
    (*submitted)->Cancel();
    const Result<matrix::Matrix>& out = (*submitted)->result();
    // Raced with execution: either withdrawn in time (typed error) or it
    // completed before the flag was seen — both are valid outcomes, a
    // half-executed state is not.
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
    }
  }

  // The shared plan cache and view store still serve correct results.
  auto expected_session = api::SessionBuilder()
                              .Put("M", std::move(base))
                              .AddView("V", "t(M) %*% M")
                              .Threads(1)
                              .Build();
  ASSERT_TRUE(expected_session.ok());
  auto want = (*expected_session)->Run("V %*% (t(M) %*% M)");
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = client->Run("V %*% (t(M) %*% M)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*want, *got);
  server->Shutdown();
}

TEST(ServerTest, PerClientFairnessUnderSingleDispatcher) {
  ServerOptions options;
  options.max_in_flight = 1;
  options.max_queue = 16;
  auto server = Server::Create(MakeSession(1), options).value();
  auto chatty = server->Connect("chatty");
  auto quiet = server->Connect("quiet");

  // Occupy the dispatcher, then queue chatty's heavy backlog before
  // quiet's one fast request.
  auto blocker = chatty->Submit(kHeavy).value();
  ASSERT_TRUE(SpinUntil([&] { return server->in_flight() == 1; }));
  auto a1 = chatty->Submit(kHeavy).value();
  auto a2 = chatty->Submit(kHeavy).value();
  auto a3 = chatty->Submit(kHeavy).value();
  auto b1 = quiet->Submit(kQueries[0]).value();

  // Round-robin across client lanes dispatches b1 after at most one of
  // chatty's queued requests (strict FIFO would run it dead last). When
  // b1 completes, a2 has at best just started its long chain — so it
  // cannot be done, and a3 has not even dispatched.
  b1->Wait();
  EXPECT_FALSE(a2->done());
  EXPECT_FALSE(a3->done());
  EXPECT_TRUE(b1->result().ok());
  EXPECT_TRUE(a1->result().ok());
  EXPECT_TRUE(a3->result().ok());
  server->Shutdown();
}

TEST(ServerTest, ShutdownFailsQueuedRequestsTyped) {
  ServerOptions options;
  options.max_in_flight = 1;
  options.max_queue = 8;
  auto server = Server::Create(MakeSession(1), options).value();
  auto client = server->Connect("late");
  auto blocker = client->Submit(kHeavy).value();
  ASSERT_TRUE(SpinUntil([&] { return server->in_flight() == 1; }));
  auto queued = client->Submit(kQueries[0]).value();
  server->Shutdown();
  // In-flight finished; queued failed typed; new submits are refused.
  EXPECT_TRUE(blocker->result().ok());
  ASSERT_TRUE(queued->done());
  EXPECT_EQ(queued->result().status().code(), StatusCode::kCancelled);
  auto refused = client->Submit(kQueries[1]);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCancelled);
}

TEST(ServerTest, QueueWaitHistogramAndRequestCountersPopulate) {
  auto server = Server::Create(MakeSession(2)).value();
  auto client = server->Connect("observed");
  ASSERT_TRUE(client->Run(kQueries[0]).ok());
  const obs::MetricsRegistry& metrics = server->session().metrics();
  const obs::Histogram* wait =
      metrics.FindHistogram("hadad_server_queue_wait_seconds");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->Count(), 1);
  EXPECT_GE(metrics.FindCounter("hadad_server_requests_total")->Value(), 1);
  EXPECT_EQ(server->queue_depth(), 0);
  server->Shutdown();
}

TEST(ServerTest, MixedReadWriteWorkloadStaysSnapshotConsistent) {
  // The writer walks M through kVersions values via the server's shared
  // substrate while clients keep querying. MVCC means no Submit is ever
  // rejected or stalled by the writer, and every result is bit-identical
  // to the oracle at exactly one committed version — never a torn mix.
  // Under write churn a request whose re-derived plan stays stale through
  // every attempt is served as stated (hadad_session_as_stated_fallbacks_
  // total counts those); its bits match the as-stated oracle instead.
  Rng rng(13);
  constexpr int kVersions = 5;
  std::vector<matrix::Matrix> m_versions;
  for (int v = 0; v < kVersions; ++v) {
    m_versions.push_back(matrix::RandomDense(rng, 96, 80, -1.0, 1.0));
  }
  matrix::Matrix n = matrix::RandomDense(rng, 80, 64, -1.0, 1.0);

  // Single-threaded oracle replay of every query at every version, both
  // rewritten (Run) and as stated (ExecuteOriginal).
  std::vector<std::vector<matrix::Matrix>> expected(kVersions);
  std::vector<std::vector<matrix::Matrix>> as_stated(kVersions);
  {
    auto ref = api::SessionBuilder()
                   .Put("M", m_versions[0])
                   .Put("N", n)
                   .Threads(1)
                   .Build()
                   .value();
    for (int v = 0; v < kVersions; ++v) {
      if (v > 0) {
        ASSERT_TRUE(ref->Update("M", m_versions[v]).ok());
      }
      for (const char* q : kQueries) {
        auto r = ref->Run(q);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        expected[v].push_back(std::move(*r));
        auto prepared = ref->Prepare(q);
        ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
        auto original = prepared->ExecuteOriginal();
        ASSERT_TRUE(original.ok()) << original.status().ToString();
        as_stated[v].push_back(std::move(*original));
      }
    }
  }
  const auto matches_some_version =
      [&](const std::vector<std::vector<matrix::Matrix>>& oracle,
          const matrix::Matrix& m, int query) {
        for (int v = 0; v < kVersions; ++v) {
          const matrix::Matrix& want = oracle[v][query];
          if (m.rows() != want.rows() || m.cols() != want.cols()) continue;
          bool equal = true;
          for (int64_t i = 0; i < m.rows() && equal; ++i) {
            for (int64_t j = 0; j < m.cols() && equal; ++j) {
              if (m.At(i, j) != want.At(i, j)) equal = false;
            }
          }
          if (equal) return true;
        }
        return false;
      };

  auto live = api::SessionBuilder()
                  .Put("M", m_versions[0])
                  .Put("N", n)
                  .Threads(4)
                  .Build()
                  .value();
  auto server = Server::Create(live).value();

  constexpr int kClients = 3;
  constexpr int kRounds = 16;
  std::vector<std::vector<RequestHandle>> handles(kClients);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      auto client = server->Connect("reader" + std::to_string(c));
      for (int r = 0; r < kRounds; ++r) {
        auto submitted = client->Submit(kQueries[(c + r) % 5]);
        // Admission must never trip on writer activity (the queue bound
        // is sized for the readers alone).
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        handles[c].push_back(std::move(*submitted));
        if (r % 4 == 3) (*handles[c].rbegin())->result();  // Mix in waits.
      }
    });
  }
  workers.emplace_back([&] {
    for (int v = 1; v < kVersions; ++v) {
      std::this_thread::sleep_for(milliseconds(3));
      ASSERT_TRUE(server->session().Update("M", m_versions[v]).ok());
    }
  });
  for (std::thread& t : workers) t.join();

  int64_t as_stated_only = 0;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(handles[c].size(), static_cast<size_t>(kRounds));
    for (int r = 0; r < kRounds; ++r) {
      const Result<matrix::Matrix>& got = handles[c][r]->result();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const int query = (c + r) % 5;
      if (matches_some_version(expected, *got, query)) continue;
      const bool matched = matches_some_version(as_stated, *got, query);
      if (matched) ++as_stated_only;
      EXPECT_TRUE(matched)
          << "client " << c << " round " << r
          << ": result matches no committed version of M";
    }
  }
  // Only requests the as-stated fallback served may match that oracle
  // alone.
  EXPECT_LE(as_stated_only,
            live->metrics()
                .FindCounter("hadad_session_as_stated_fallbacks_total")
                ->Value());
  EXPECT_EQ(server->session().workspace().PinnedSnapshots(), 0);
  server->Shutdown();
}

TEST(ServerTest, DeadlineAndCancelFireMidMutationChurn) {
  auto server = Server::Create(MakeSession(2)).value();
  auto client = server->Connect("hurried");
  ASSERT_TRUE(client->Run(kHeavy).ok());  // Warm the plan.

  // Writer churns L (the heavy chain's base) while hurried requests race
  // their deadlines and cancellations mid-DAG: every outcome must be a
  // typed error or a clean value, and the substrate must drain to zero
  // pinned snapshots afterwards.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng wrng(29);
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(
          server->session()
              .Update("L", matrix::RandomDense(wrng, 400, 400, -0.1, 0.1))
              .ok());
      std::this_thread::sleep_for(milliseconds(2));
    }
  });

  RequestOptions hurried;
  hurried.deadline = milliseconds(25);
  int deadline_hits = 0;
  for (int i = 0; i < 3; ++i) {
    const Result<matrix::Matrix>& out = client->Run(kHeavy, hurried);
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
      ++deadline_hits;
    }
  }
  EXPECT_GE(deadline_hits, 1);

  for (int i = 0; i < 3; ++i) {
    auto submitted = client->Submit(kHeavy);
    ASSERT_TRUE(submitted.ok());
    (*submitted)->Cancel();
    const Result<matrix::Matrix>& out = (*submitted)->result();
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  // Aborted mid-DAG runs released their snapshots; serving continues.
  EXPECT_EQ(server->session().workspace().PinnedSnapshots(), 0);
  for (const char* q : kQueries) {
    EXPECT_TRUE(client->Run(q).ok()) << q;
  }
  server->Shutdown();
}

// ---------------------------------------------------------------------------
// C API
// ---------------------------------------------------------------------------

TEST(CApiTest, RoundTrip) {
  hadad_server* srv = hadad_server_open(/*threads=*/2, /*max_in_flight=*/2,
                                        /*max_queue=*/16);
  ASSERT_NE(srv, nullptr) << hadad_last_error();

  const double m[6] = {1, 2, 3, 4, 5, 6};     // 2x3 row-major
  const double n[6] = {7, 8, 9, 10, 11, 12};  // 3x2 row-major
  ASSERT_EQ(hadad_register_matrix(srv, "M", m, 2, 3), HADAD_OK)
      << hadad_last_error();
  ASSERT_EQ(hadad_register_matrix(srv, "N", n, 3, 2), HADAD_OK);

  hadad_request* req = hadad_submit(srv, "c-client", "M %*% N",
                                    /*deadline_ms=*/0);
  ASSERT_NE(req, nullptr) << hadad_last_error();
  ASSERT_EQ(hadad_request_wait(req), HADAD_OK) << hadad_last_error();
  EXPECT_EQ(hadad_request_done(req), 1);

  int64_t rows = 0, cols = 0;
  ASSERT_EQ(hadad_result_dims(req, &rows, &cols), HADAD_OK);
  EXPECT_EQ(rows, 2);
  EXPECT_EQ(cols, 2);
  double out[4] = {0, 0, 0, 0};
  ASSERT_EQ(hadad_result_copy(req, out, 4), HADAD_OK);
  // [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154].
  EXPECT_EQ(out[0], 58.0);
  EXPECT_EQ(out[1], 64.0);
  EXPECT_EQ(out[2], 139.0);
  EXPECT_EQ(out[3], 154.0);
  // Undersized buffer is refused, not overrun.
  EXPECT_EQ(hadad_result_copy(req, out, 3), HADAD_ERR_INVALID);
  hadad_request_free(req);

  // Typed errors surface through the C enum: unknown matrix name.
  hadad_request* missing = hadad_submit(srv, "c-client", "NOPE %*% M", 0);
  ASSERT_NE(missing, nullptr) << hadad_last_error();
  EXPECT_EQ(hadad_request_wait(missing), HADAD_ERR_NOT_FOUND);
  EXPECT_NE(std::string(hadad_last_error()).find("NOPE"), std::string::npos);
  hadad_request_free(missing);

  char* metrics = hadad_metrics(srv);
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(std::string(metrics).find("hadad_server_requests_total"),
            std::string::npos);
  hadad_string_free(metrics);

  char* trace = hadad_trace_json(srv);
  ASSERT_NE(trace, nullptr);
  EXPECT_NE(std::string(trace).find("traceEvents"), std::string::npos);
  hadad_string_free(trace);

  hadad_server_close(srv);
}

TEST(CApiTest, NullAndErrorPaths) {
  EXPECT_EQ(hadad_register_matrix(nullptr, "M", nullptr, 0, 0),
            HADAD_ERR_INVALID);
  EXPECT_EQ(hadad_submit(nullptr, "c", "M", 0), nullptr);
  EXPECT_EQ(hadad_request_done(nullptr), 0);
  EXPECT_NE(hadad_last_error(), nullptr);
  hadad_request_free(nullptr);
  hadad_string_free(nullptr);
  hadad_server_close(nullptr);

  // An oversize shape (rows * cols overflows) is a typed error naming the
  // shape, checked before anything is allocated.
  hadad_server* srv = hadad_server_open(1, 1, 4);
  ASSERT_NE(srv, nullptr);
  const double cell = 1.0;
  EXPECT_EQ(hadad_register_matrix(srv, "M", &cell, int64_t{1} << 40,
                                  int64_t{1} << 40),
            HADAD_ERR_INVALID);
  EXPECT_NE(std::string(hadad_last_error()).find(
                "1099511627776x1099511627776"),
            std::string::npos)
      << hadad_last_error();
  hadad_server_close(srv);
}

}  // namespace
}  // namespace hadad::server
