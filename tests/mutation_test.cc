// The mutable data layer: workspace versioning (epochs/generation/
// snapshots), row-append primitives, the append-delta maintenance policy,
// and api::Session::Update/Append/Remove propagating through the plan
// cache, optimizer facts, user views, and adaptive views — with snapshot
// isolation for concurrent queries.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "exec/plan.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "matrix/matrix.h"
#include "reference_evaluator.h"
#include "views/adaptive.h"
#include "views/maintenance.h"

namespace hadad {
namespace {

la::ExprPtr Parse(const std::string& text) {
  auto e = la::ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return e.value();
}

matrix::Matrix Constant(int64_t rows, int64_t cols, double v) {
  matrix::DenseMatrix m(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) m.At(r, c) = v;
  }
  return matrix::Matrix(std::move(m));
}

// ---------------------------------------------------------------------------
// Workspace versioning
// ---------------------------------------------------------------------------

TEST(WorkspaceVersioningTest, MutationsBumpEpochsAndGeneration) {
  engine::Workspace ws;
  EXPECT_EQ(ws.generation(), 0);
  EXPECT_EQ(ws.EpochOf("A"), engine::Workspace::kNeverStored);

  ws.Put("A", Constant(2, 2, 1.0));
  ws.Put("B", Constant(2, 2, 2.0));
  const int64_t a0 = ws.EpochOf("A");
  const int64_t b0 = ws.EpochOf("B");
  EXPECT_GT(a0, 0);
  EXPECT_GT(b0, a0);
  EXPECT_EQ(ws.generation(), b0);

  // Update bumps the touched entry only.
  ASSERT_TRUE(ws.Update("A", Constant(3, 3, 5.0)).ok());
  EXPECT_GT(ws.EpochOf("A"), a0);
  EXPECT_EQ(ws.EpochOf("B"), b0);
  EXPECT_EQ(ws.Find("A")->rows(), 3);

  // Append grows in place and bumps.
  const int64_t a1 = ws.EpochOf("A");
  ASSERT_TRUE(ws.Append("A", Constant(2, 3, 7.0)).ok());
  EXPECT_GT(ws.EpochOf("A"), a1);
  EXPECT_EQ(ws.Find("A")->rows(), 5);
  EXPECT_EQ(ws.Find("A")->At(4, 2), 7.0);

  // Unknown names and shape mismatches are surfaced, not applied.
  EXPECT_FALSE(ws.Update("Z", Constant(1, 1, 0.0)).ok());
  EXPECT_FALSE(ws.Append("A", Constant(1, 9, 0.0)).ok());

  // Erase drops the epoch record (bounding the map under transient-name
  // churn); a stamp of the live epoch then reads never-stored, which is
  // != the stamp — stale, as required.
  engine::VersionStamp snap = ws.StampFor({"A"});
  EXPECT_TRUE(ws.Erase("A"));
  EXPECT_FALSE(ws.Has("A"));
  EXPECT_EQ(ws.EpochOf("A"), engine::Workspace::kNeverStored);
  EXPECT_FALSE(ws.StampCurrent(snap));
  // Re-binding continues from the monotone generation: the stamp stays
  // stale rather than accidentally matching.
  ws.Put("A", Constant(1, 1, 0.0));
  EXPECT_FALSE(ws.StampCurrent(snap));
}

TEST(WorkspaceVersioningTest, TruncateRowsInvertsAppend) {
  Rng rng(8);
  for (bool sparse : {false, true}) {
    matrix::Matrix base = sparse ? matrix::RandomSparse(rng, 7, 5, 0.4)
                                 : matrix::RandomDense(rng, 7, 5);
    matrix::Matrix copy = base;
    matrix::Matrix rows = matrix::RandomDense(rng, 3, 5);
    ASSERT_TRUE(matrix::AppendRows(&copy, rows).ok());
    ASSERT_TRUE(matrix::TruncateRows(&copy, 7).ok());
    EXPECT_TRUE(copy.ApproxEquals(base, 0.0));
    EXPECT_EQ(copy.Nnz(), base.Nnz());
    EXPECT_FALSE(matrix::TruncateRows(&copy, 8).ok());
  }
}

TEST(WorkspaceVersioningTest, SnapshotsTrackOnlyTheirOwnLeaves) {
  engine::Workspace ws;
  ws.Put("A", Constant(2, 2, 1.0));
  ws.Put("B", Constant(2, 2, 2.0));
  ws.Put("C", Constant(2, 2, 3.0));

  engine::VersionStamp snap = ws.StampFor({"A", "B"});
  EXPECT_TRUE(ws.StampCurrent(snap));

  // Mutating an unrelated entry leaves the snapshot current even though
  // the generation moved.
  ASSERT_TRUE(ws.Update("C", Constant(2, 2, 9.0)).ok());
  EXPECT_GT(ws.generation(), snap.generation);
  EXPECT_TRUE(ws.StampCurrent(snap));

  // Mutating a stamped leaf invalidates.
  ASSERT_TRUE(ws.Update("A", Constant(2, 2, 4.0)).ok());
  EXPECT_FALSE(ws.StampCurrent(snap));
}

TEST(WorkspaceVersioningTest, TakeMovesValueOutAndBumps) {
  engine::Workspace ws;
  ws.Put("V", Constant(4, 4, 2.5));
  engine::VersionStamp snap = ws.StampFor({"V"});
  std::optional<engine::Version> taken = ws.Take("V");
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->value->At(3, 3), 2.5);
  EXPECT_FALSE(ws.Has("V"));
  EXPECT_FALSE(ws.StampCurrent(snap));
  EXPECT_FALSE(ws.Take("V").has_value());
}

// ---------------------------------------------------------------------------
// Row-append primitives
// ---------------------------------------------------------------------------

TEST(AppendRowsTest, DenseSparseAndMixedRepresentations) {
  Rng rng(7);
  matrix::Matrix dense = matrix::RandomDense(rng, 5, 3);
  matrix::Matrix extra = matrix::RandomDense(rng, 2, 3);
  matrix::Matrix dense_grown = dense;
  ASSERT_TRUE(matrix::AppendRows(&dense_grown, extra).ok());
  ASSERT_EQ(dense_grown.rows(), 7);
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(dense_grown.At(r, c), dense.At(r, c));
    }
  }
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(dense_grown.At(5 + r, c), extra.At(r, c));
    }
  }

  // Sparse base keeps CSR storage; dense rows are converted on the way in.
  matrix::Matrix sparse = matrix::RandomSparse(rng, 6, 4, 0.4);
  matrix::Matrix sparse_rows = matrix::RandomSparse(rng, 3, 4, 0.4);
  matrix::Matrix sparse_grown = sparse;
  ASSERT_TRUE(matrix::AppendRows(&sparse_grown, sparse_rows).ok());
  ASSERT_TRUE(sparse_grown.is_sparse());
  ASSERT_EQ(sparse_grown.rows(), 9);
  EXPECT_EQ(sparse_grown.Nnz(), sparse.Nnz() + sparse_rows.Nnz());
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(sparse_grown.At(6 + r, c), sparse_rows.At(r, c));
    }
  }
  matrix::Matrix mixed = sparse;
  matrix::Matrix dense_rows = matrix::RandomDense(rng, 2, 4);
  ASSERT_TRUE(matrix::AppendRows(&mixed, dense_rows).ok());
  EXPECT_TRUE(mixed.is_sparse());
  EXPECT_EQ(mixed.At(7, 1), dense_rows.At(1, 1));

  // Column mismatch is an error, not a crash; zero rows is a no-op.
  matrix::Matrix bad = matrix::RandomDense(rng, 1, 9);
  EXPECT_FALSE(matrix::AppendRows(&dense_grown, bad).ok());
  ASSERT_TRUE(
      matrix::AppendRows(&dense_grown, matrix::Matrix::Zero(0, 3)).ok());
  EXPECT_EQ(dense_grown.rows(), 7);
}

// ---------------------------------------------------------------------------
// Append-delta maintenance policy
// ---------------------------------------------------------------------------

TEST(BuildAppendDeltaTest, RecognizesTheAdditiveFamily) {
  auto delta = [](const std::string& def) {
    return views::BuildAppendDelta(Parse(def), "A", "D");
  };
  // Additive forms substitute A -> D.
  EXPECT_EQ(la::ToString(*delta("colSums(A)")), "colSums(D)");
  EXPECT_EQ(la::ToString(*delta("sum(A)")), "sum(D)");
  EXPECT_EQ(la::ToString(*delta("t(A) %*% A")), "t(D) %*% D");
  EXPECT_EQ(la::ToString(*delta("t(A %*% C) %*% (A %*% C)")),
            "t(D %*% C) %*% (D %*% C)");
  EXPECT_EQ(la::ToString(*delta("colSums(A) + sum(A)")),
            "colSums(D) + sum(D)");
  EXPECT_EQ(la::ToString(*delta("2 %*% colSums(A)")), "2 %*% colSums(D)");
  // An A-free addend contributes no delta but does not break additivity.
  EXPECT_EQ(la::ToString(*delta("colSums(A) + colSums(B)")), "colSums(D)");

  // Non-additive forms are rejected (full recompute / invalidation).
  EXPECT_FALSE(delta("A").has_value());                // Grows, not adds.
  EXPECT_FALSE(delta("A %*% A").has_value());         // Inner dim changes.
  EXPECT_FALSE(delta("t(A) %*% C").has_value());      // C rows can't grow.
  EXPECT_FALSE(delta("rowSums(A)").has_value());      // Output grows.
  EXPECT_FALSE(delta("inv(A)").has_value());
  EXPECT_FALSE(delta("colSums(B)").has_value());      // A-free.
  EXPECT_FALSE(delta("sum(A) %*% colSums(A)").has_value());
}

TEST(BuildAppendDeltaTest, DeltaMatchesFullRecompute) {
  Rng rng(11);
  const std::vector<std::string> defs = {
      "colSums(A)", "sum(A)", "t(A) %*% A", "t(A %*% C) %*% (A %*% C)",
      "(2 %*% colSums(A)) + colSums(B)"};
  matrix::Matrix a = matrix::RandomDense(rng, 12, 4);
  matrix::Matrix c = matrix::RandomDense(rng, 4, 3);
  matrix::Matrix b = matrix::RandomDense(rng, 5, 4);
  matrix::Matrix extra = matrix::RandomDense(rng, 6, 4);

  for (const std::string& def_text : defs) {
    la::ExprPtr def = Parse(def_text);
    auto delta_expr = views::BuildAppendDelta(def, "A", "D");
    ASSERT_TRUE(delta_expr.has_value()) << def_text;

    engine::Workspace ws;
    ws.Put("A", a);
    ws.Put("B", b);
    ws.Put("C", c);
    ws.Put("D", extra);
    auto old_value = reference::Evaluate(*def, ws);
    ASSERT_TRUE(old_value.ok()) << def_text;
    auto delta_value = reference::Evaluate(**delta_expr, ws);
    ASSERT_TRUE(delta_value.ok()) << def_text;
    auto incremental = matrix::Add(*old_value, *delta_value);
    ASSERT_TRUE(incremental.ok()) << def_text;

    ASSERT_TRUE(ws.Append("A", extra).ok());
    auto full = reference::Evaluate(*def, ws);
    ASSERT_TRUE(full.ok()) << def_text;
    EXPECT_TRUE(incremental->ApproxEquals(*full, 1e-9)) << def_text;
  }
}

// ---------------------------------------------------------------------------
// Session mutation: plan cache + optimizer propagation
// ---------------------------------------------------------------------------

constexpr char kQuery[] = "colSums(M %*% N)";

TEST(SessionMutationTest, UpdateRederivesCachedPlanBitIdentical) {
  Rng rng(21);
  matrix::Matrix m0 = matrix::RandomDense(rng, 20, 8);
  matrix::Matrix n = matrix::RandomDense(rng, 8, 12);
  matrix::Matrix m1 = matrix::RandomSparse(rng, 16, 8, 0.3);  // New shape/rep.

  auto session =
      api::SessionBuilder().Put("M", m0).Put("N", n).Build().value();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(session->Run(kQuery).ok());
  }
  api::SessionStats before = session->stats();
  EXPECT_EQ(before.prepares, 1);
  EXPECT_EQ(before.cache_hits, 1);

  ASSERT_TRUE(session->Update("M", m1).ok());
  auto after_update = session->Run(kQuery);
  ASSERT_TRUE(after_update.ok());

  // The previously cached plan re-derived (one more optimizer invocation)
  // and the result is bit-identical to a fresh session on the new data.
  api::SessionStats after = session->stats();
  EXPECT_EQ(after.prepares, 2);
  EXPECT_EQ(after.data_mutations, 1);
  auto fresh =
      api::SessionBuilder().Put("M", m1).Put("N", n).Build().value();
  auto expected = fresh->Run(kQuery);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(after_update->ApproxEquals(*expected, 0.0));

  // Warm again on the new data.
  ASSERT_TRUE(session->Run(kQuery).ok());
  EXPECT_EQ(session->stats().prepares, 2);
}

TEST(SessionMutationTest, UnrelatedMutationKeepsPlansWarm) {
  Rng rng(22);
  auto session = api::SessionBuilder()
                     .Put("M", matrix::RandomDense(rng, 10, 6))
                     .Put("N", matrix::RandomDense(rng, 6, 10))
                     .Put("C", matrix::RandomDense(rng, 4, 4))
                     .Build()
                     .value();
  ASSERT_TRUE(session->Run(kQuery).ok());
  ASSERT_EQ(session->stats().prepares, 1);

  // C is not a leaf of the cached plan: its epoch is irrelevant.
  ASSERT_TRUE(session->Update("C", matrix::RandomDense(rng, 9, 9)).ok());
  ASSERT_TRUE(session->Append("C", matrix::RandomDense(rng, 1, 9)).ok());
  ASSERT_TRUE(session->Run(kQuery).ok());
  api::SessionStats stats = session->stats();
  EXPECT_EQ(stats.prepares, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.data_mutations, 2);
}

TEST(SessionPutTest, IntroducesNewNameAfterBuild) {
  Rng rng(26);
  auto session = api::SessionBuilder()
                     .Put("M", matrix::RandomDense(rng, 10, 6))
                     .Put("N", matrix::RandomDense(rng, 6, 10))
                     .Build()
                     .value();

  // Z did not exist at Build time: before Put, plans over it cannot derive.
  EXPECT_FALSE(session->Run("colSums(Z)").ok());
  matrix::Matrix z = matrix::RandomDense(rng, 12, 8);
  ASSERT_TRUE(session->Put("Z", z).ok());
  EXPECT_EQ(session->stats().data_mutations, 1);

  // The new base executes and matches a direct evaluation.
  auto got = session->Run("colSums(Z)");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  engine::Workspace ws;
  ws.Put("Z", z);
  auto want = reference::Evaluate(*Parse("colSums(Z)"), ws);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(got->ApproxEquals(*want, 0.0));

  // The optimizer saw the base facts, not just the workspace value: shape
  // checking rejects a dimension-invalid composition at prepare time.
  EXPECT_FALSE(session->Prepare("Z %*% Z").ok());  // 12x8 * 12x8.
  EXPECT_TRUE(session->Prepare("t(Z) %*% Z").ok());

  // The name is now a first-class mutation target.
  ASSERT_TRUE(session->Append("Z", matrix::RandomDense(rng, 2, 8)).ok());
  EXPECT_EQ(session->workspace().Find("Z")->rows(), 14);
  ASSERT_TRUE(session->Remove("Z").ok());
  EXPECT_FALSE(session->Run("colSums(Z)").ok());
}

TEST(SessionPutTest, UnrelatedWarmPlansStayCached) {
  Rng rng(27);
  auto session = api::SessionBuilder()
                     .Put("M", matrix::RandomDense(rng, 10, 6))
                     .Put("N", matrix::RandomDense(rng, 6, 10))
                     .Build()
                     .value();
  ASSERT_TRUE(session->Run(kQuery).ok());
  ASSERT_EQ(session->stats().prepares, 1);

  // Introducing a brand-new name cannot stale any cached plan: no plan
  // prepared before the Put can reference it (Prepare fails on unknown
  // names), so the warm path survives without a re-derive.
  ASSERT_TRUE(session->Put("Z", matrix::RandomDense(rng, 4, 4)).ok());
  ASSERT_TRUE(session->Run(kQuery).ok());
  api::SessionStats stats = session->stats();
  EXPECT_EQ(stats.prepares, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.data_mutations, 1);
}

TEST(SessionPutTest, ExistingNameTakesUpdateSemantics) {
  Rng rng(28);
  matrix::Matrix a0 = matrix::RandomDense(rng, 8, 4);
  matrix::Matrix a1 = matrix::RandomDense(rng, 6, 4);
  auto session = api::SessionBuilder()
                     .Put("A", a0)
                     .AddView("G", "t(A) %*% A")
                     .Build()
                     .value();

  // Put over an existing base is a full Update: the dependent view
  // refreshes, exactly as a fresh session over the new data would have it.
  ASSERT_TRUE(session->Put("A", a1).ok());
  auto fresh = api::SessionBuilder()
                   .Put("A", a1)
                   .AddView("G", "t(A) %*% A")
                   .Build()
                   .value();
  auto got = session->Run("G");
  auto want = fresh->Run("G");
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(got->ApproxEquals(*want, 0.0));

  // Derived and reserved names are rejected, and nothing is applied.
  EXPECT_FALSE(session->Put("G", Constant(4, 4, 1.0)).ok());
  EXPECT_FALSE(session->Put("", Constant(1, 1, 0.0)).ok());
  EXPECT_FALSE(session->Put("__delta_rows", Constant(1, 1, 0.0)).ok());
  EXPECT_EQ(session->stats().data_mutations, 1);
}

TEST(SessionMutationTest, AppendRefreshesUserViewsIncrementally) {
  Rng rng(23);
  matrix::Matrix a = matrix::RandomDense(rng, 30, 5);
  matrix::Matrix extra = matrix::RandomDense(rng, 9, 5);

  auto session = api::SessionBuilder()
                     .Put("A", a)
                     .AddView("G", "t(A) %*% A")
                     .AddView("S", "colSums(A)")
                     .Build()
                     .value();
  ASSERT_TRUE(session->Append("A", extra).ok());

  matrix::Matrix grown = a;
  ASSERT_TRUE(matrix::AppendRows(&grown, extra).ok());
  auto fresh = api::SessionBuilder()
                   .Put("A", grown)
                   .AddView("G", "t(A) %*% A")
                   .AddView("S", "colSums(A)")
                   .Build()
                   .value();
  for (const char* view : {"G", "S"}) {
    auto got = session->Run(view);
    auto want = fresh->Run(view);
    ASSERT_TRUE(got.ok() && want.ok()) << view;
    EXPECT_TRUE(got->ApproxEquals(*want, 1e-9)) << view;
  }
}

TEST(SessionMutationTest, UpdateCascadesThroughChainedViews) {
  Rng rng(24);
  matrix::Matrix a0 = matrix::RandomDense(rng, 10, 4);
  matrix::Matrix a1 = matrix::RandomDense(rng, 14, 4);

  // V2 references V1, which references A: an update of A refreshes both.
  auto session = api::SessionBuilder()
                     .Put("A", a0)
                     .AddView("V1", "colSums(A)")
                     .AddView("V2", "t(V1) %*% V1")
                     .Build()
                     .value();
  ASSERT_TRUE(session->Run("V2").ok());
  ASSERT_TRUE(session->Update("A", a1).ok());

  auto fresh = api::SessionBuilder()
                   .Put("A", a1)
                   .AddView("V1", "colSums(A)")
                   .AddView("V2", "t(V1) %*% V1")
                   .Build()
                   .value();
  auto got = session->Run("V2");
  auto want = fresh->Run("V2");
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(got->ApproxEquals(*want, 0.0));
}

TEST(SessionMutationTest, ValidationRejectsBeforeApplying) {
  Rng rng(25);
  auto session = api::SessionBuilder()
                     .Put("X", matrix::RandomInvertible(rng, 6))
                     .Put("Y", matrix::RandomDense(rng, 6, 3))
                     .AddView("V", "inv(X)")
                     .Build()
                     .value();

  // Unknown / derived names.
  EXPECT_FALSE(session->Update("nope", Constant(1, 1, 0.0)).ok());
  EXPECT_FALSE(session->Update("V", Constant(6, 6, 0.0)).ok());
  EXPECT_FALSE(session->Remove("V").ok());
  // A view references X: removal is blocked, and an update that breaks the
  // view's shape contract (inv of a non-square) is rejected up front.
  EXPECT_FALSE(session->Remove("X").ok());
  EXPECT_FALSE(session->Update("X", Constant(3, 5, 1.0)).ok());
  // Appending rows to X would make it non-square under inv(): rejected.
  EXPECT_FALSE(session->Append("X", Constant(2, 6, 1.0)).ok());
  // Column mismatch.
  EXPECT_FALSE(session->Append("Y", Constant(2, 9, 1.0)).ok());
  // Nothing was applied: X is still intact and the session still serves.
  EXPECT_EQ(session->stats().data_mutations, 0);
  EXPECT_EQ(session->workspace().Find("X")->rows(), 6);
  EXPECT_TRUE(session->Run("V %*% X").ok());

  // Y has no dependent views: removal works, plans over it then fail.
  ASSERT_TRUE(session->Run("colSums(Y)").ok());
  ASSERT_TRUE(session->Remove("Y").ok());
  EXPECT_FALSE(session->Run("colSums(Y)").ok());
  EXPECT_TRUE(session->Run("V %*% X").ok());

  // Workspace names with the reserved '__delta' prefix are rejected at
  // Build — the refresh machinery owns them.
  EXPECT_FALSE(api::SessionBuilder()
                   .Put("__delta_rows", Constant(1, 1, 0.0))
                   .Build()
                   .ok());
}

TEST(SessionMutationTest, RuntimeRefreshFailureRollsBackAtomically) {
  // inv(X) passes the shape dry-run for any square update, but evaluation
  // fails on a singular matrix — the whole mutation must roll back, never
  // leaving the new X paired with a stale view. V0 registers before V and
  // refreshes successfully first, so the rollback also has to restore an
  // already-refreshed view and its optimizer catalog entry (5x5, not the
  // 4x4 the aborted update briefly installed).
  Rng rng(26);
  matrix::Matrix x0 = matrix::RandomInvertible(rng, 5);
  auto session = api::SessionBuilder()
                     .Put("X", x0)
                     .AddView("V0", "X %*% X")
                     .AddView("V", "inv(X)")
                     .Build()
                     .value();
  auto v_before = session->Run("V");
  ASSERT_TRUE(v_before.ok());

  matrix::Matrix singular = matrix::Matrix::Zero(4, 4);
  Status failed = session->Update("X", singular);
  ASSERT_FALSE(failed.ok());

  // The base kept its old value (not the singular one), both views still
  // match it, and nothing counts as a mutation.
  EXPECT_TRUE(session->workspace().Find("X")->ApproxEquals(x0, 0.0));
  auto v_after = session->Run("V");
  ASSERT_TRUE(v_after.ok());
  EXPECT_TRUE(v_after->ApproxEquals(*v_before, 0.0));
  EXPECT_EQ(session->stats().data_mutations, 0);
  // Optimizer facts rolled back with the values: a query mixing V0 with X
  // only type-checks if V0's catalog entry is 5x5 again.
  auto mixed = session->Run("V0 + X");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  auto expected =
      matrix::Add(matrix::Multiply(x0, x0).value(), x0).value();
  EXPECT_TRUE(mixed->ApproxEquals(expected, 1e-9));
  // And the session still accepts a valid update afterwards.
  ASSERT_TRUE(session->Update("X", matrix::RandomInvertible(rng, 4)).ok());
  EXPECT_TRUE(session->Run("V %*% X").ok());
}

// ---------------------------------------------------------------------------
// Compiler leaf metadata after every kind of write
// ---------------------------------------------------------------------------

// Leaf metadata from a fixed catalog: what a fresh scan of the data says.
cost::LeafMetaFn CatalogResolver(la::MetaCatalog catalog) {
  return [catalog = std::move(catalog)](
             const std::string& name) -> Result<cost::ClassMeta> {
    auto it = catalog.find(name);
    if (it == catalog.end()) {
      return Status::NotFound("unknown matrix '" + name + "'");
    }
    cost::ClassMeta meta;
    meta.shape = it->second;
    return meta;
  };
}

std::map<std::string, double> LoadNnz(const exec::CompiledPlan& plan) {
  std::map<std::string, double> nnz;
  for (const exec::PlanNode& n : plan.nodes) {
    if (n.kernel == exec::KernelKind::kLoad) {
      nnz[n.expr->name()] = n.meta.shape.nnz;
    }
  }
  return nnz;
}

// Compiles `text` on the session's executor with the optimizer's leaf
// resolver, and again with one over a fresh scan of the workspace: after
// `write`, the plans and every loaded leaf's nnz must agree (both fail
// alike for a removed leaf).
void ExpectCompileMatchesFreshScan(const api::Session& session,
                                   const std::string& write,
                                   const std::string& text) {
  const la::ExprPtr expr = Parse(text);
  const cost::LeafMetaFn memo = session.optimizer().LeafResolver();
  const cost::LeafMetaFn fresh =
      CatalogResolver(session.workspace().BuildMetaCatalog());
  auto got = session.executor()->Compile(expr, session.workspace(), &memo);
  auto want = session.executor()->Compile(expr, session.workspace(), &fresh);
  const std::string at = "after " + write + ", " + text;
  ASSERT_EQ(got.ok(), want.ok()) << at << ": " << got.status().ToString()
                                 << " vs " << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << at;
    return;
  }
  EXPECT_EQ(got->ToString(), want->ToString()) << at;
  EXPECT_EQ(LoadNnz(*got), LoadNnz(*want)) << at;
}

TEST(SessionMutationTest, CompilerLeafMetadataFollowsEveryWrite) {
  // Before each write the optimizer's memo holds an entry for the touched
  // leaf, and each write moves that leaf's nnz: a resolver serving an
  // entry from before the write (or, for the rolled-back batch, from
  // inside it) fails the comparison. After the Remove, a resolver that
  // still knew C would compile where the fresh scan fails.
  Rng rng(61);
  auto session = api::SessionBuilder()
                     .Put("A", matrix::RandomDense(rng, 40, 30))
                     .Put("B", matrix::RandomDense(rng, 30, 20))
                     .Put("C", matrix::RandomSparse(rng, 30, 20, 0.1))
                     .Put("S", matrix::RandomInvertible(rng, 20))
                     .AddView("V", "inv(S)")
                     .Build()
                     .value();
  const std::string over_ab = "A %*% B";
  const std::string over_ac = "A %*% C";
  const std::string over_asv = "(A %*% B) %*% (S + V)";
  for (const std::string& text : {over_ab, over_ac, over_asv}) {
    ExpectCompileMatchesFreshScan(*session, "Build", text);
  }

  // An Update that changes both shape and nnz.
  ASSERT_TRUE(
      session->Update("A", matrix::RandomSparse(rng, 50, 30, 0.2)).ok());
  ExpectCompileMatchesFreshScan(*session, "Update", over_ab);

  // An in-place Append: no snapshot is pinned, so A's version grows under
  // the same handle.
  const matrix::Matrix* a_before = session->workspace().Find("A");
  ASSERT_TRUE(session->Append("A", matrix::RandomDense(rng, 8, 30)).ok());
  ASSERT_EQ(session->workspace().Find("A"), a_before);
  ExpectCompileMatchesFreshScan(*session, "Append", over_ab);

  // A Remove: the optimizer no longer knows C.
  ASSERT_TRUE(session->Remove("C").ok());
  ExpectCompileMatchesFreshScan(*session, "Remove", over_ac);

  // A Put of a name the session no longer binds, with other data.
  ASSERT_TRUE(session->Put("C", matrix::RandomDense(rng, 30, 20)).ok());
  ExpectCompileMatchesFreshScan(*session, "Put", over_ac);

  // A batch that fails in its refresh wave: V's refresh compiles over the
  // singular S (filling the memo for it) and fails to invert it, so S and
  // the reshaped A roll back.
  std::vector<api::Mutation> batch;
  batch.push_back(
      api::Mutation::Update("A", matrix::RandomDense(rng, 45, 30)));
  batch.push_back(api::Mutation::Update("S", matrix::Matrix::Zero(20, 20)));
  ASSERT_FALSE(session->Mutate(std::move(batch)).ok());
  ASSERT_EQ(session->workspace().Find("A")->rows(), 58);
  ExpectCompileMatchesFreshScan(*session, "rolled-back Mutate", over_asv);
}

// ---------------------------------------------------------------------------
// Adaptive views under mutation
// ---------------------------------------------------------------------------

constexpr char kAdaptivePipeline[] = "(t(X) %*% X) + R";

struct AdaptiveFixture {
  std::shared_ptr<api::Session> session;
  matrix::Matrix x;
  matrix::Matrix r;
};

AdaptiveFixture MakeAdaptiveFixture(int64_t min_hits = 2) {
  Rng rng(31);
  AdaptiveFixture f;
  f.x = matrix::RandomDense(rng, 40, 10);
  f.r = matrix::RandomDense(rng, 10, 10);
  f.session = api::SessionBuilder()
                  .Put("X", f.x)
                  .Put("R", f.r)
                  .AdaptiveViews(/*budget_bytes=*/1 << 20, min_hits)
                  .Build()
                  .value();
  return f;
}

TEST(AdaptiveMutationTest, UpdateInvalidatesDependentViews) {
  AdaptiveFixture f = MakeAdaptiveFixture();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.session->Run(kAdaptivePipeline).ok());
    f.session->WaitForAdaptiveViews();
  }
  ASSERT_GE(f.session->stats().adaptive_views_created, 1);
  ASSERT_FALSE(f.session->adaptive()->StoredViews().empty());

  Rng rng(32);
  matrix::Matrix x1 = matrix::RandomDense(rng, 25, 10);
  ASSERT_TRUE(f.session->Update("X", x1).ok());

  // Every stored view referenced X: all invalidated, optimizer retracted,
  // budget invariant intact.
  api::SessionStats stats = f.session->stats();
  EXPECT_GE(stats.adaptive_views_invalidated, 1);
  EXPECT_TRUE(f.session->adaptive()->StoredViews().empty());
  EXPECT_TRUE(f.session->optimizer().views().empty());
  EXPECT_EQ(stats.adaptive_bytes_in_use, 0);
  EXPECT_LE(stats.adaptive_bytes_in_use, stats.adaptive_budget_bytes);

  // Serving continues, bit-identical to a fresh session on the new data.
  auto fresh =
      api::SessionBuilder().Put("X", x1).Put("R", f.r).Build().value();
  auto expected = fresh->Run(kAdaptivePipeline);
  ASSERT_TRUE(expected.ok());
  auto got = f.session->Run(kAdaptivePipeline);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->ApproxEquals(*expected, 0.0));
}

TEST(AdaptiveMutationTest, AppendDeltaRefreshMatchesFullRecompute) {
  AdaptiveFixture f = MakeAdaptiveFixture();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.session->Run(kAdaptivePipeline).ok());
    f.session->WaitForAdaptiveViews();
  }
  ASSERT_FALSE(f.session->adaptive()->StoredViews().empty());

  // First a public Append, then a Mutate batch that also Puts a new name Z
  // no stored view reads: X's only entry is still one Append, so the batch
  // delta-refreshes the views too.
  Rng rng(33);
  matrix::Matrix grown = f.x;
  for (const bool batched : {false, true}) {
    const api::SessionStats before = f.session->stats();
    const size_t views_before = f.session->adaptive()->StoredViews().size();
    matrix::Matrix extra = matrix::RandomDense(rng, 15, 10);
    Status st = batched ? f.session->Mutate(
                              {api::Mutation::Append("X", extra),
                               api::Mutation::Put("Z", Constant(3, 3, 1.0))})
                        : f.session->Append("X", extra);
    ASSERT_TRUE(st.ok()) << st.ToString();
    f.session->WaitForAdaptiveViews();
    ASSERT_TRUE(matrix::AppendRows(&grown, extra).ok());

    // t(X) %*% X is append-additive in X: the view was refreshed in place
    // (V ← V + t(Δ)Δ), not recomputed or dropped.
    api::SessionStats stats = f.session->stats();
    EXPECT_GT(stats.adaptive_views_refreshed, before.adaptive_views_refreshed)
        << "batched=" << batched;
    EXPECT_EQ(stats.adaptive_views_invalidated,
              before.adaptive_views_invalidated)
        << "batched=" << batched;
    std::vector<views::StoredView> after =
        f.session->adaptive()->StoredViews();
    ASSERT_EQ(after.size(), views_before);
    EXPECT_LE(stats.adaptive_bytes_in_use, stats.adaptive_budget_bytes);

    // The refreshed value matches a full recomputation at 1e-9, and serving
    // agrees with a fresh session on the grown data.
    for (const views::StoredView& v : after) {
      engine::Workspace scratch;
      scratch.Put("X", grown);
      scratch.Put("R", f.r);
      auto full = reference::Evaluate(*v.definition, scratch);
      ASSERT_TRUE(full.ok());
      const matrix::Matrix* resident = f.session->workspace().Find(v.name);
      ASSERT_NE(resident, nullptr);
      EXPECT_TRUE(resident->ApproxEquals(*full, 1e-9));
    }
    auto fresh =
        api::SessionBuilder().Put("X", grown).Put("R", f.r).Build().value();
    auto expected = fresh->Run(kAdaptivePipeline);
    auto got = f.session->Run(kAdaptivePipeline);
    ASSERT_TRUE(expected.ok() && got.ok());
    EXPECT_TRUE(got->ApproxEquals(*expected, 1e-9));
  }
}

// ---------------------------------------------------------------------------
// Concurrency: snapshot isolation (run under TSan in CI)
// ---------------------------------------------------------------------------

TEST(MutationConcurrencyTest, RunsNeverSeeHalfAppliedUpdates) {
  // A is uniform with value v per version; colSums(A %*% B) with all-ones B
  // is then uniform with value rows * cols * v. A torn read would produce a
  // non-uniform result or a value outside the legal set.
  constexpr int64_t kRows = 24;
  constexpr int64_t kCols = 6;
  constexpr int kVersions = 20;
  auto session = api::SessionBuilder()
                     .Put("A", Constant(kRows, kCols, 1.0))
                     .Put("B", Constant(kCols, 4, 1.0))
                     .Put("Other", Constant(3, 2, 0.0))
                     .Build()
                     .value();

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto result = session->Run("colSums(A %*% B)");
        if (!result.ok()) {
          ++violations;
          continue;
        }
        const double first = result->At(0, 0);
        bool uniform = true;
        for (int64_t c = 0; c < result->cols(); ++c) {
          if (result->At(0, c) != first) uniform = false;
        }
        const double unit = static_cast<double>(kRows * kCols);
        const double version = first / unit;
        const bool legal = version >= 1.0 && version <= kVersions &&
                           version == static_cast<int>(version);
        if (!uniform || !legal) ++violations;
      }
    });
  }
  // Writer: full updates of A interleaved with appends to an unrelated
  // matrix (exercising the per-leaf invalidation path concurrently).
  for (int v = 2; v <= kVersions; ++v) {
    ASSERT_TRUE(session->Update("A", Constant(kRows, kCols, v)).ok());
    ASSERT_TRUE(session->Append("Other", Constant(1, 2, 1.0)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(session->stats().data_mutations, 2 * (kVersions - 1));
}

TEST(MutationConcurrencyTest, AdaptiveInstallsRaceMutationsSafely) {
  Rng rng(41);
  matrix::Matrix x = matrix::RandomDense(rng, 24, 8);
  matrix::Matrix r = matrix::RandomDense(rng, 8, 8);
  auto session = api::SessionBuilder()
                     .Put("X", x)
                     .Put("R", r)
                     .AdaptiveViews(/*budget_bytes=*/1 << 20, /*min_hits=*/2)
                     .Build()
                     .value();

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        if (!session->Run(kAdaptivePipeline).ok()) ++failures;
      }
    });
  }
  std::thread writer([&] {
    Rng wrng(42);
    for (int i = 0; i < 10; ++i) {
      matrix::Matrix extra = matrix::RandomDense(wrng, 2, 8);
      if (!session->Append("X", extra).ok()) ++failures;
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  session->WaitForAdaptiveViews();
  EXPECT_EQ(failures.load(), 0);

  // Converged state serves correctly: compare against a fresh session on
  // the final data (1e-9: delta refreshes legitimately reorder FP sums).
  auto fresh = api::SessionBuilder()
                   .Put("X", *session->workspace().Find("X"))
                   .Put("R", r)
                   .Build()
                   .value();
  auto expected = fresh->Run(kAdaptivePipeline);
  auto got = session->Run(kAdaptivePipeline);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_TRUE(got->ApproxEquals(*expected, 1e-9));
  api::SessionStats stats = session->stats();
  EXPECT_LE(stats.adaptive_bytes_in_use, stats.adaptive_budget_bytes);
}

}  // namespace
}  // namespace hadad
