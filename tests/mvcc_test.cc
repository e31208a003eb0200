// MVCC snapshot isolation: reference-counted versions, pinned snapshots,
// batched mutations, and the headline property — writers never block
// readers.
// The randomized stress suite races N reader threads against M writers
// applying a pre-generated mutation sequence; every reader result must be
// bit-identical to a single-threaded oracle replay of some prefix of that
// sequence observed while the query was in flight.
//
// Knobs (both read from the environment):
//   HADAD_STRESS_SEED   fixed RNG seed (default: random, printed on start)
//   HADAD_STRESS_ITERS  reader iterations per thread (default 300; the
//                       TSan CI arm runs 1000)

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "engine/workspace.h"
#include "matrix/generate.h"
#include "matrix/matrix.h"
#include "morpheus/generator.h"

namespace hadad {
namespace {

matrix::Matrix Constant(int64_t rows, int64_t cols, double v) {
  matrix::DenseMatrix m(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) m.At(r, c) = v;
  }
  return matrix::Matrix(std::move(m));
}

// Exact (bitwise) equality — snapshot isolation promises the reader the
// precise committed state, not an approximation of it.
bool BitEqual(const matrix::Matrix& a, const matrix::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (a.At(r, c) != b.At(r, c)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workspace versions
// ---------------------------------------------------------------------------

TEST(WorkspaceMvccTest, SnapshotSeesPreMutationValues) {
  engine::Workspace ws;
  ws.Put("A", Constant(2, 2, 1.0));
  ws.Put("B", Constant(3, 3, 2.0));

  engine::SnapshotPtr snap = ws.PinSnapshot();
  EXPECT_EQ(ws.PinnedSnapshots(), 1);

  ws.Update("A", Constant(2, 2, 9.0));
  ws.Put("C", Constant(1, 1, 5.0));

  // The snapshot is a frozen point in time: old A, no C.
  ASSERT_NE(snap->Find("A"), nullptr);
  EXPECT_EQ(snap->Find("A")->At(0, 0), 1.0);
  EXPECT_EQ(snap->Find("C"), nullptr);
  ASSERT_NE(snap->Find("B"), nullptr);
  EXPECT_EQ(snap->Find("B")->At(2, 2), 2.0);

  // The live workspace moved on.
  EXPECT_EQ(ws.Find("A")->At(0, 0), 9.0);
  ASSERT_NE(ws.Find("C"), nullptr);
}

TEST(WorkspaceMvccTest, RetiredVersionsDrainWhenLastPinDrops) {
  engine::Workspace ws;
  ws.Put("A", Constant(4, 4, 1.0));
  EXPECT_EQ(ws.LiveVersions(), 1);
  const int64_t one_version_bytes = ws.RetainedBytes();

  // Unpinned overwrite: the old version frees immediately.
  ws.Update("A", Constant(4, 4, 2.0));
  EXPECT_EQ(ws.LiveVersions(), 1);
  EXPECT_EQ(ws.RetiredTotal(), 1);
  EXPECT_EQ(ws.RetainedBytes(), one_version_bytes);

  // Pinned overwrite: the old version is retained for the reader.
  engine::SnapshotPtr snap = ws.PinSnapshot();
  ws.Update("A", Constant(4, 4, 3.0));
  EXPECT_EQ(ws.LiveVersions(), 2);
  EXPECT_EQ(ws.RetiredTotal(), 2);
  EXPECT_GT(ws.RetainedBytes(), one_version_bytes);
  EXPECT_EQ(snap->Find("A")->At(0, 0), 2.0);

  // Dropping the last pin drains the retired version.
  snap.reset();
  EXPECT_EQ(ws.PinnedSnapshots(), 0);
  EXPECT_EQ(ws.LiveVersions(), 1);
  EXPECT_EQ(ws.RetainedBytes(), one_version_bytes);
  EXPECT_EQ(ws.Find("A")->At(0, 0), 3.0);
}

TEST(WorkspaceMvccTest, ErasedChainSurvivesUntilReadersDrain) {
  engine::Workspace ws;
  ws.Put("A", Constant(2, 2, 7.0));

  engine::SnapshotPtr snap = ws.PinSnapshot();
  EXPECT_TRUE(ws.Erase("A"));

  // Live view: gone. Epoch reads "never stored" — erase semantics are
  // unchanged by MVCC (mutation_test pins the exact contract).
  EXPECT_EQ(ws.Find("A"), nullptr);
  EXPECT_EQ(ws.EpochOf("A"), engine::Workspace::kNeverStored);

  // Reader view: still there, retained by the pin.
  ASSERT_NE(snap->Find("A"), nullptr);
  EXPECT_EQ(snap->Find("A")->At(1, 1), 7.0);
  EXPECT_EQ(ws.LiveVersions(), 1);

  snap.reset();
  EXPECT_EQ(ws.LiveVersions(), 0);
  EXPECT_EQ(ws.RetainedBytes(), 0);
}

TEST(WorkspaceMvccTest, EachPinRetainsOnlyTheVersionsItSees) {
  engine::Workspace ws;
  ws.Put("A", Constant(2, 2, 0.0));

  engine::SnapshotPtr s1 = ws.PinSnapshot();
  ws.Update("A", Constant(2, 2, 1.0));
  engine::SnapshotPtr s2 = ws.PinSnapshot();
  ws.Update("A", Constant(2, 2, 2.0));

  EXPECT_EQ(ws.PinnedSnapshots(), 2);
  EXPECT_EQ(ws.LiveVersions(), 3);
  EXPECT_EQ(s1->Find("A")->At(0, 0), 0.0);
  EXPECT_EQ(s2->Find("A")->At(0, 0), 1.0);

  // Retention is per pin: dropping the newer pin frees the version only it
  // saw, even while the older pin stays.
  s2.reset();
  EXPECT_EQ(ws.PinnedSnapshots(), 1);
  EXPECT_EQ(ws.LiveVersions(), 2);
  EXPECT_EQ(s1->Find("A")->At(0, 0), 0.0);

  // Dropping the last pin frees the last superseded version.
  s1.reset();
  EXPECT_EQ(ws.PinnedSnapshots(), 0);
  EXPECT_EQ(ws.LiveVersions(), 1);
  EXPECT_EQ(ws.Find("A")->At(0, 0), 2.0);
}

TEST(WorkspaceMvccTest, AppendIsCopyOnWriteUnderPins) {
  engine::Workspace ws;
  ws.Put("A", Constant(2, 3, 1.0));

  engine::SnapshotPtr snap = ws.PinSnapshot();
  ASSERT_TRUE(ws.Append("A", Constant(1, 3, 2.0)).ok());

  // The reader's version keeps its original extent; the live one grew.
  EXPECT_EQ(snap->Find("A")->rows(), 2);
  EXPECT_EQ(ws.Find("A")->rows(), 3);
  EXPECT_EQ(ws.Find("A")->At(2, 0), 2.0);
  EXPECT_EQ(ws.RetiredTotal(), 1);

  snap.reset();
  EXPECT_EQ(ws.LiveVersions(), 1);

  // A restored version keeps the epoch it was first bound at, so a pin
  // that saw it before the Take still forces the copy.
  engine::SnapshotPtr pin = ws.PinSnapshot();
  std::optional<engine::Version> taken = ws.Take("A");
  ASSERT_TRUE(taken.has_value());
  ws.Put("A", Constant(1, 3, 9.0));
  ws.Restore("A", *std::move(taken));
  ASSERT_TRUE(ws.Append("A", Constant(1, 3, 3.0)).ok());
  EXPECT_EQ(pin->Find("A")->rows(), 3);
  EXPECT_EQ(ws.Find("A")->rows(), 4);
  EXPECT_EQ(ws.Find("A")->At(3, 0), 3.0);
}

TEST(WorkspaceMvccTest, SnapshotOutlivesFurtherChurn) {
  engine::Workspace ws;
  ws.Put("A", Constant(2, 2, 1.0));
  const int64_t one_version_bytes = ws.RetainedBytes();
  engine::SnapshotPtr snap = ws.PinSnapshot();

  // Pile several generations past the pin.
  for (int i = 2; i <= 6; ++i) ws.Update("A", Constant(2, 2, double(i)));
  EXPECT_EQ(snap->Find("A")->At(0, 0), 1.0);
  // Only the pinned version and the live one are held: the versions
  // superseded in between had no reader and freed at once.
  EXPECT_EQ(ws.LiveVersions(), 2);
  EXPECT_EQ(ws.RetainedBytes(), 2 * one_version_bytes);
  EXPECT_EQ(ws.RetiredTotal(), 5);

  snap.reset();
  EXPECT_EQ(ws.LiveVersions(), 1);
}

// ---------------------------------------------------------------------------
// Session::Mutate — batched mutations
// ---------------------------------------------------------------------------

TEST(MutateBatchTest, AppliesAtomicallyWithOneRefreshWave) {
  auto session = api::SessionBuilder()
                     .Put("A", Constant(2, 2, 1.0))
                     .Put("B", Constant(2, 2, 2.0))
                     .AddView("V", "A + B")
                     .Build()
                     .value();

  Status st = session->Mutate({api::Mutation::Update("A", Constant(2, 2, 3.0)),
                               api::Mutation::Update("B", Constant(2, 2, 4.0))});
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto v = session->Run("V");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->At(0, 0), 7.0);
  auto sum = session->Run("A + B");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->At(1, 1), 7.0);
  EXPECT_EQ(session->stats().data_mutations, 2);
}

TEST(MutateBatchTest, ValidationErrorsAreIndexedAndNothingApplies) {
  auto session =
      api::SessionBuilder().Put("A", Constant(2, 2, 1.0)).Build().value();

  // Entry 1 is invalid (column mismatch on append): the whole batch must
  // be rejected up front with the failing index in the message.
  Status st = session->Mutate({api::Mutation::Update("A", Constant(2, 2, 8.0)),
                               api::Mutation::Append("A", Constant(1, 3, 0.0))});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("Mutate[1]"), std::string::npos)
      << st.ToString();

  auto a = session->Run("A");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->At(0, 0), 1.0);
  EXPECT_EQ(session->stats().data_mutations, 0);

  // Unknown-name validation carries its index too.
  st = session->Mutate({api::Mutation::Update("Zz", Constant(2, 2, 0.0)),
                        api::Mutation::Update("A", Constant(2, 2, 0.0))});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("Mutate[0]"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(session->stats().data_mutations, 0);
}

TEST(MutateBatchTest, ViewRefreshFailureRollsBackWholeBatch) {
  matrix::DenseMatrix x(2, 2);
  x.At(0, 0) = 2.0;
  x.At(1, 1) = 2.0;
  auto session = api::SessionBuilder()
                     .Put("A", Constant(2, 2, 1.0))
                     .Put("X", matrix::Matrix(std::move(x)))
                     .AddView("VI", "inv(X)")
                     .Build()
                     .value();
  // Warm plans over the names the batch touches.
  ASSERT_TRUE(session->Run("A %*% A").ok());
  ASSERT_TRUE(session->Run("VI %*% A").ok());
  const int64_t prepares = session->stats().prepares;
  const matrix::Matrix* a_before = session->workspace().Find("A");

  // Shape-valid but runtime-fatal: the singular X only fails when the VI
  // refresh evaluates inv(X), after both bases already applied.
  Status st =
      session->Mutate({api::Mutation::Update("A", Constant(2, 2, 5.0)),
                       api::Mutation::Update("X", Constant(2, 2, 0.0))});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("rolled back"), std::string::npos)
      << st.ToString();

  // Rollback restores the pre-batch versions, epochs included: A is the
  // same object, and the warm plans stay fresh (no RW_find re-run).
  EXPECT_EQ(session->workspace().Find("A"), a_before);
  auto aa = session->Run("A %*% A");
  ASSERT_TRUE(aa.ok()) << aa.status().ToString();
  EXPECT_EQ(aa->At(0, 0), 2.0);
  auto via = session->Run("VI %*% A");
  ASSERT_TRUE(via.ok()) << via.status().ToString();
  EXPECT_EQ(via->At(0, 0), 0.5);
  EXPECT_EQ(session->stats().prepares, prepares);

  // Every base restored, the view still answers from its old value.
  auto a = session->Run("A");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->At(0, 0), 1.0);
  auto vi = session->Run("VI");
  ASSERT_TRUE(vi.ok()) << vi.status().ToString();
  EXPECT_EQ(vi->At(0, 0), 0.5);
  auto inv = session->Run("inv(X)");
  ASSERT_TRUE(inv.ok()) << inv.status().ToString();
  EXPECT_EQ(inv->At(1, 1), 0.5);
  EXPECT_EQ(session->stats().data_mutations, 0);
}

// The refresh mode each view_refresh span recorded, by view name.
std::map<std::string, std::string> RefreshModes(const api::Session& session) {
  std::map<std::string, std::string> modes;
  for (const obs::Span& s : session.trace()->Snapshot()) {
    if (s.name != "view_refresh") continue;
    std::string view;
    std::string mode;
    for (const auto& [k, v] : s.attrs) {
      if (k == "view") view = v;
      if (k == "mode") mode = v;
    }
    modes[view] = mode;
  }
  return modes;
}

TEST(MutateBatchTest, BatchedAppendRefreshesAdditiveViewByDelta) {
  Rng rng(13);
  const matrix::Matrix a = matrix::RandomDense(rng, 30, 5);
  const matrix::Matrix w = matrix::RandomDense(rng, 8, 4);
  const matrix::Matrix w2 = matrix::RandomDense(rng, 8, 4);
  const matrix::Matrix extra = matrix::RandomDense(rng, 6, 5);
  auto session = api::SessionBuilder()
                     .Put("A", a)
                     .Put("W", w)
                     .AddView("G", "t(A) %*% A")
                     .AddView("S", "colSums(W)")
                     .Tracing()
                     .Build()
                     .value();

  // A's only entry is one Append and G reads nothing else the batch moved:
  // G refreshes by delta, while S over the updated W recomputes.
  Status st = session->Mutate({api::Mutation::Update("W", w2),
                               api::Mutation::Append("A", extra)});
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::map<std::string, std::string> modes = RefreshModes(*session);
  EXPECT_EQ(modes.size(), 2u);
  EXPECT_EQ(modes.at("G"), "delta");
  EXPECT_EQ(modes.at("S"), "full");

  matrix::Matrix grown = a;
  ASSERT_TRUE(matrix::AppendRows(&grown, extra).ok());
  auto fresh = api::SessionBuilder()
                   .Put("A", grown)
                   .Put("W", w2)
                   .AddView("G", "t(A) %*% A")
                   .AddView("S", "colSums(W)")
                   .Build()
                   .value();
  for (const char* view : {"G", "S"}) {
    auto got = session->Run(view);
    auto want = fresh->Run(view);
    ASSERT_TRUE(got.ok() && want.ok()) << view;
    EXPECT_TRUE(got->ApproxEquals(*want, 1e-9)) << view;
  }
}

TEST(MutateBatchTest, FailedBatchRollsBackDeltaRefreshedView) {
  Rng rng(17);
  const matrix::Matrix a = matrix::RandomDense(rng, 12, 4);
  const matrix::Matrix y = matrix::RandomDense(rng, 3, 3);
  matrix::DenseMatrix x(2, 2);
  x.At(0, 0) = 2.0;
  x.At(1, 1) = 2.0;
  // G registers before VI, so the batch delta-refreshes G (staging A's
  // rows) before VI's refresh fails on the singular X.
  auto session = api::SessionBuilder()
                     .Put("A", a)
                     .Put("X", matrix::Matrix(std::move(x)))
                     .Put("Y", y)
                     .AddView("G", "t(A) %*% A")
                     .AddView("VI", "inv(X)")
                     .Build()
                     .value();
  const matrix::Matrix g_before = *session->workspace().Find("G");

  Status st = session->Mutate(
      {api::Mutation::Append("A", matrix::RandomDense(rng, 5, 4)),
       api::Mutation::Remove("Y"),
       api::Mutation::Update("X", Constant(2, 2, 0.0))});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("rolled back"), std::string::npos)
      << st.ToString();

  // All three entries are undone, and so is G's delta refresh.
  EXPECT_TRUE(BitEqual(*session->workspace().Find("A"), a));
  auto y_served = session->Run("Y");
  ASSERT_TRUE(y_served.ok()) << y_served.status().ToString();
  EXPECT_TRUE(BitEqual(*y_served, y));
  EXPECT_TRUE(BitEqual(*session->workspace().Find("G"), g_before));
  auto vi = session->Run("VI");
  ASSERT_TRUE(vi.ok()) << vi.status().ToString();
  EXPECT_EQ(vi->At(0, 0), 0.5);
  for (const auto& [name, value] : session->workspace().data()) {
    EXPECT_NE(name.rfind("__delta", 0), 0u) << name;
  }
  EXPECT_EQ(session->stats().data_mutations, 0);
}

TEST(MutateBatchTest, PutAppendRemoveComposeInOneBatch) {
  auto session =
      api::SessionBuilder().Put("A", Constant(2, 2, 1.0)).Build().value();

  // A later entry may build on an earlier one: Put introduces D, Append
  // grows it in the same batch.
  Status st = session->Mutate({api::Mutation::Put("D", Constant(2, 2, 1.5)),
                               api::Mutation::Append("D", Constant(1, 2, 2.5)),
                               api::Mutation::Update("A", Constant(2, 2, 4.0))});
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto d = session->Run("D");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->rows(), 3);
  EXPECT_EQ(d->At(0, 0), 1.5);
  EXPECT_EQ(d->At(2, 1), 2.5);
  EXPECT_EQ(session->stats().data_mutations, 3);

  ASSERT_TRUE(session->Remove("D").ok());
  EXPECT_FALSE(session->Run("D").ok());
  auto a = session->Run("A");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->At(0, 0), 4.0);
}

// ---------------------------------------------------------------------------
// Version-retirement leak check
// ---------------------------------------------------------------------------

TEST(MvccLeakTest, RetiredVersionsDrainToZeroAcrossCycles) {
  Rng rng(7);
  auto session = api::SessionBuilder()
                     .Put("A", matrix::RandomDense(rng, 24, 24))
                     .Threads(2)
                     .Build()
                     .value();

  int64_t steady_bytes = -1;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ASSERT_TRUE(
        session->Update("A", matrix::RandomDense(rng, 24, 24)).ok());
    auto r = session->Run("A %*% A");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (cycle == 10) steady_bytes = session->workspace().RetainedBytes();
  }

  const engine::Workspace& ws = session->workspace();
  EXPECT_EQ(ws.PinnedSnapshots(), 0);
  EXPECT_EQ(ws.LiveVersions(), 1);  // Only "A" is bound.
  EXPECT_EQ(ws.RetainedBytes(), steady_bytes);  // Same-shape churn: flat.
  EXPECT_GE(ws.RetiredTotal(), 1000);

  // The exported metrics agree with the workspace accounting.
  (void)session->MetricsText();  // Refreshes the gauges.
  const obs::MetricsRegistry& m = session->metrics();
  EXPECT_EQ(m.FindGauge("hadad_workspace_pinned_snapshots")->Value(), 0.0);
  EXPECT_EQ(m.FindGauge("hadad_workspace_versions")->Value(), 1.0);
  EXPECT_GE(m.FindCounter("hadad_workspace_retired_total")->Value(), 1000);
}

// ---------------------------------------------------------------------------
// Writers never block readers: a mutation completes while a reader's
// snapshot is still pinned, and the reader's result stays consistent.
// ---------------------------------------------------------------------------

TEST(MvccOverlapTest, MutationCompletesWhilePinHeld) {
  auto session =
      api::SessionBuilder().Put("A", Constant(8, 8, 1.0)).Build().value();

  engine::SnapshotPtr snap = session->workspace().PinSnapshot();
  EXPECT_EQ(session->workspace().PinnedSnapshots(), 1);

  // The writer returns while the reader is pinned — it never waits.
  ASSERT_TRUE(session->Update("A", Constant(8, 8, 2.0)).ok());
  EXPECT_EQ(session->workspace().PinnedSnapshots(), 1);
  EXPECT_GE(session->workspace().RetiredTotal(), 1);

  EXPECT_EQ(snap->Find("A")->At(0, 0), 1.0);
  snap.reset();
  EXPECT_EQ(session->workspace().Find("A")->At(0, 0), 2.0);
}

// One input of the long-reader overlap test: a query lasting tens of
// milliseconds and the base matrix the writer replaces while it runs.
struct OverlapInput {
  const char* label;
  std::string query;
  std::string mutated;  // Base matrix the writer replaces.
  uint64_t seed;        // Drives the mutated matrix's versions.
  int64_t rows;
  int64_t cols;
  // Builds a session with `initial` bound to `mutated` (called twice: the
  // session under test and its oracle twin).
  std::function<std::shared_ptr<api::Session>(const matrix::Matrix& initial)>
      build;
};

TEST(MvccOverlapTest, LongReaderQueryOverlapsCompletedMutation) {
  // The factorized input's normalized M is immutable session state; its
  // pushdowns run as nm_* DAG kernels on the same snapshot-pinned route.
  Rng nm_rng(12);
  const morpheus::NormalizedMatrix nm = morpheus::GeneratePkFk(
      nm_rng,
      {.n_r = 2000, .d_s = 20, .tuple_ratio = 10, .feature_ratio = 5});
  const OverlapInput inputs[] = {
      {"dense chain", "((A %*% A) %*% A) %*% A", "A", 11, 224, 224,
       [](const matrix::Matrix& a) {
         return api::SessionBuilder().Put("A", a).Threads(2).Build().value();
       }},
      {"factorized", "t(M) %*% (M %*% G)", "G", 13, nm.cols(), 32,
       [&nm](const matrix::Matrix& g) {
         return api::SessionBuilder()
             .AddNormalizedMatrix("M", nm)
             .Put("G", g)
             .Threads(2)
             .Build()
             .value();
       }},
  };
  for (const OverlapInput& in : inputs) {
    SCOPED_TRACE(in.label);
    Rng rng(in.seed);
    std::vector<matrix::Matrix> versions;
    versions.push_back(
        matrix::RandomDense(rng, in.rows, in.cols, -0.05, 0.05));
    auto session = in.build(versions[0]);

    // Oracle result per data version, replayed in a twin session (same
    // engine, same plans — results are bit-identical by construction).
    auto oracle = in.build(versions[0]);
    std::vector<matrix::Matrix> expected;
    {
      auto r = oracle->Run(in.query);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(std::move(*r));
    }

    std::atomic<bool> stop{false};
    std::vector<matrix::Matrix> observed;
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto r = session->Run(in.query);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        observed.push_back(std::move(*r));
      }
    });
    // A failed ASSERT below returns early; stop and join the reader first.
    struct JoinOnExit {
      std::atomic<bool>& stop;
      std::thread& reader;
      ~JoinOnExit() {
        stop.store(true, std::memory_order_release);
        if (reader.joinable()) reader.join();
      }
    } join_on_exit{stop, reader};

    // Wait until a reader query has a snapshot pinned, mutate, and check
    // the pin is still held right after the mutation returned: the writer
    // finished inside the reader's execution window. The query runs tens
    // of milliseconds; retry a few times to be robust to scheduling.
    bool overlapped = false;
    for (int attempt = 0; attempt < 5 && !overlapped; ++attempt) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (session->workspace().PinnedSnapshots() < 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      ASSERT_GE(session->workspace().PinnedSnapshots(), 1);

      matrix::Matrix next =
          matrix::RandomDense(rng, in.rows, in.cols, -0.05, 0.05);
      versions.push_back(next);
      ASSERT_TRUE(session->Update(in.mutated, std::move(next)).ok());
      overlapped = session->workspace().PinnedSnapshots() >= 1;

      ASSERT_TRUE(oracle->Update(in.mutated, versions.back()).ok());
      auto r = oracle->Run(in.query);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(std::move(*r));
    }
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_TRUE(overlapped)
        << "no mutation completed while a reader snapshot stayed pinned";

    // Every reader result equals the oracle at exactly one data version —
    // never a torn mix of two.
    ASSERT_FALSE(observed.empty());
    for (const matrix::Matrix& got : observed) {
      bool matched = false;
      for (const matrix::Matrix& want : expected) {
        if (BitEqual(got, want)) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "reader result matches no committed version";
    }
    EXPECT_EQ(session->workspace().PinnedSnapshots(), 0);
  }
}

// ---------------------------------------------------------------------------
// Randomized snapshot-isolation stress suite
// ---------------------------------------------------------------------------

// One committed step of the mutation history: a single mutation or an
// atomic Mutate() batch. Steps commit strictly in order; "prefix p" below
// means steps [0, p) applied.
struct Step {
  std::vector<api::Mutation> mutations;
};

Status ApplyStep(api::Session& session, const Step& step) {
  if (step.mutations.size() == 1) {
    const api::Mutation& m = step.mutations[0];
    switch (m.op) {
      case api::Mutation::Op::kUpdate:
        return session.Update(m.name, m.value);
      case api::Mutation::Op::kAppend:
        return session.Append(m.name, m.value);
      case api::Mutation::Op::kRemove:
        return session.Remove(m.name);
      case api::Mutation::Op::kPut:
        return session.Put(m.name, m.value);
    }
    return Status::InvalidArgument("unknown op");
  }
  return session.Mutate(step.mutations);
}

// Per-(query, prefix) oracle: both the best-rewrite execution and the
// original-form execution (a reader racing heavy churn may fall back to
// the original plan), or nullopt when the query fails at that prefix
// (e.g. D is removed).
struct OracleEntry {
  std::optional<std::pair<matrix::Matrix, matrix::Matrix>> result;
};

TEST(MvccStressTest, RandomizedSnapshotIsolation) {
  uint64_t seed;
  if (const char* s = std::getenv("HADAD_STRESS_SEED")) {
    seed = std::strtoull(s, nullptr, 10);
  } else {
    std::random_device rd;
    seed = (uint64_t{rd()} << 32) ^ rd();
  }
  int iters = 300;
  if (const char* s = std::getenv("HADAD_STRESS_ITERS")) {
    iters = std::max(1, std::atoi(s));
  }
  std::cerr << "[ MVCC stress: seed=" << seed << " iters=" << iters
            << " (override via HADAD_STRESS_SEED / HADAD_STRESS_ITERS) ]\n";

  constexpr int64_t kDim = 16;
  constexpr int kSteps = 200;
  constexpr int kReaders = 3;
  constexpr int kWriters = 2;
  const std::vector<std::string> queries = {
      "(A %*% B) %*% A", "t(A) %*% (A + B)", "(D %*% D) + D"};

  Rng rng(seed);
  auto random_square = [&] {
    return matrix::RandomDense(rng, kDim, kDim, -1.0, 1.0);
  };
  const matrix::Matrix a0 = random_square();
  const matrix::Matrix b0 = random_square();
  const matrix::Matrix d0 = random_square();

  // Pre-generate the mutation history so the oracle and the stress run
  // apply byte-identical values.
  std::vector<Step> steps;
  bool d_exists = true;
  for (int i = 0; i < kSteps; ++i) {
    Step step;
    if (i % 6 == 5) {
      // Atomic two-leaf batch: readers must never observe one half.
      step.mutations.push_back(api::Mutation::Update("A", random_square()));
      step.mutations.push_back(api::Mutation::Update("B", random_square()));
    } else {
      switch (rng.NextBelow(3)) {
        case 0:
          step.mutations.push_back(api::Mutation::Update("A", random_square()));
          break;
        case 1:
          step.mutations.push_back(api::Mutation::Update("B", random_square()));
          break;
        default:
          if (!d_exists) {
            step.mutations.push_back(api::Mutation::Put("D", random_square()));
            d_exists = true;
          } else if (rng.NextBelow(10) < 3) {
            step.mutations.push_back(api::Mutation::Remove("D"));
            d_exists = false;
          } else {
            step.mutations.push_back(
                api::Mutation::Update("D", random_square()));
          }
          break;
      }
    }
    steps.push_back(std::move(step));
  }

  // Single-threaded oracle replay: results for every query at every prefix.
  std::vector<std::array<OracleEntry, 3>> oracle(kSteps + 1);
  {
    auto replay = api::SessionBuilder()
                      .Put("A", a0)
                      .Put("B", b0)
                      .Put("D", d0)
                      .Threads(2)
                      .Build()
                      .value();
    for (int p = 0; p <= kSteps; ++p) {
      for (size_t q = 0; q < queries.size(); ++q) {
        auto prep = replay->Prepare(queries[q]);
        if (!prep.ok()) continue;  // Entry stays nullopt (error prefix).
        auto best = prep->Execute();
        auto orig = prep->ExecuteOriginal();
        if (!best.ok() || !orig.ok()) continue;
        oracle[p][q].result.emplace(std::move(*best), std::move(*orig));
      }
      if (p < kSteps) {
        Status st = ApplyStep(*replay, steps[p]);
        ASSERT_TRUE(st.ok()) << "oracle step " << p << ": " << st.ToString();
      }
    }
  }

  // The raced session starts from the same initial state.
  auto session = api::SessionBuilder()
                     .Put("A", a0)
                     .Put("B", b0)
                     .Put("D", d0)
                     .Threads(2)
                     .Build()
                     .value();

  std::atomic<int64_t> committed{0};     // Steps fully applied, in order.
  std::atomic<int64_t> next_ticket{0};   // Writer work distribution.
  std::atomic<int64_t> reader_progress{0};
  std::atomic<int64_t> readers_live{kReaders};
  const int64_t total_reader_iters = int64_t{kReaders} * iters;
  std::vector<std::string> failures(kReaders);

  auto writer_fn = [&] {
    for (;;) {
      const int64_t i = next_ticket.fetch_add(1, std::memory_order_relaxed);
      if (i >= kSteps) return;
      // Commit strictly in sequence so "prefix" stays well-defined, and
      // pace the history across the readers' whole run so mutations keep
      // landing while queries are in flight.
      for (;;) {
        const bool my_turn = committed.load(std::memory_order_acquire) == i;
        const bool paced =
            readers_live.load(std::memory_order_acquire) == 0 ||
            reader_progress.load(std::memory_order_relaxed) * kSteps >=
                i * total_reader_iters;
        if (my_turn && paced) break;
        std::this_thread::yield();
      }
      Status st = ApplyStep(*session, steps[i]);
      ASSERT_TRUE(st.ok()) << "step " << i << ": " << st.ToString();
      committed.store(i + 1, std::memory_order_release);
    }
  };

  auto reader_fn = [&](int id) {
    for (int it = 0; it < iters; ++it) {
      const size_t q = (size_t(it) + size_t(id)) % queries.size();
      const int64_t c0 = committed.load(std::memory_order_acquire);
      Result<matrix::Matrix> got = session->Run(queries[q]);
      const int64_t c1 = committed.load(std::memory_order_acquire);
      // The pinned snapshot was taken between the two reads; a writer mid-
      // commit at pin time accounts for the +1.
      const int64_t hi = std::min<int64_t>(c1 + 1, kSteps);

      bool matched = false;
      for (int64_t p = c0; p <= hi && !matched; ++p) {
        const OracleEntry& want = oracle[size_t(p)][q];
        if (got.ok()) {
          matched = want.result.has_value() &&
                    (BitEqual(*got, want.result->first) ||
                     BitEqual(*got, want.result->second));
        } else {
          matched = !want.result.has_value();
        }
      }
      if (!matched) {
        std::ostringstream msg;
        msg << "seed=" << seed << " reader=" << id << " iter=" << it
            << " query=\"" << queries[q] << "\" window=[" << c0 << "," << hi
            << "] result="
            << (got.ok() ? "ok" : got.status().ToString())
            << ": no prefix in the committed window explains this result";
        failures[size_t(id)] = msg.str();
        break;
      }
      reader_progress.fetch_add(1, std::memory_order_relaxed);
    }
    readers_live.fetch_sub(1, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader_fn, r);
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer_fn);
  for (std::thread& t : threads) t.join();

  for (const std::string& f : failures) {
    EXPECT_TRUE(f.empty()) << f;
  }
  EXPECT_EQ(committed.load(), kSteps);
  EXPECT_EQ(session->workspace().PinnedSnapshots(), 0);
  EXPECT_GE(session->workspace().RetiredTotal(), kSteps);
}

}  // namespace
}  // namespace hadad
