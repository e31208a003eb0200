#include "pacb/optimizer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/data.h"
#include "core/workloads.h"
#include "engine/workspace.h"
#include "la/parser.h"
#include "la/vrem.h"
#include "matrix/generate.h"
#include "pacb/meta_tracker.h"
#include "pacb/op_signature.h"

namespace hadad::pacb {
namespace {

// The paper's dense pipeline environment, scaled down: M is n x k, N is
// k x n (Syn1/Syn2 shapes), C and D are square dense, v/y vectors.
la::MetaCatalog DenseCatalog(int64_t n = 5000, int64_t k = 100) {
  la::MetaCatalog c;
  auto dense = [](int64_t r, int64_t cc) {
    return la::MatrixMeta{.rows = r, .cols = cc,
                          .nnz = static_cast<double>(r * cc)};
  };
  c["M"] = dense(n, k);
  c["N"] = dense(k, n);
  c["A"] = dense(n, k);
  c["B"] = dense(n, k);
  c["C"] = dense(600, 600);
  c["D"] = dense(600, 600);
  c["v1"] = dense(k, 1);  // Syn7 shape: k x 1.
  c["y"] = dense(n, 1);
  return c;
}

std::string BestOf(const Optimizer& opt, const std::string& pipeline) {
  auto r = opt.OptimizeText(pipeline);
  HADAD_CHECK_MSG(r.ok(), pipeline.c_str());
  return la::ToString(r->best);
}

TEST(OptimizerTest, P1_1TransposeOfProduct) {
  Optimizer opt(DenseCatalog());
  auto r = opt.OptimizeText("t(M %*% N)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "t(N) %*% t(M)");
  EXPECT_LT(r->best_cost, r->original_cost);
  EXPECT_TRUE(r->improved);
}

TEST(OptimizerTest, P1_15ChainReassociation) {
  // (M N) M -> M (N M): Example 7.2.
  Optimizer opt(DenseCatalog());
  auto r = opt.OptimizeText("(M %*% N) %*% M");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "M %*% (N %*% M)");
  // γ drops from n^2 to k^2.
  EXPECT_DOUBLE_EQ(r->original_cost, 5000.0 * 5000.0);
  EXPECT_DOUBLE_EQ(r->best_cost, 100.0 * 100.0);
}

TEST(OptimizerTest, P1_3InverseOfProduct) {
  // inv(C) inv(D) -> inv(D C): one inverse instead of two.
  Optimizer opt(DenseCatalog());
  auto r = opt.OptimizeText("inv(C) %*% inv(D)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "inv(D %*% C)");
}

TEST(OptimizerTest, P1_5DoubleInverse) {
  Optimizer opt(DenseCatalog());
  auto r = opt.OptimizeText("inv(inv(D))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "D");
  EXPECT_DOUBLE_EQ(r->best_cost, 0.0);
}

TEST(OptimizerTest, P1_7DoubleTranspose) {
  Optimizer opt(DenseCatalog());
  EXPECT_EQ(BestOf(opt, "t(t(A))"), "A");
}

TEST(OptimizerTest, P1_4DistributeVectorMultiplication) {
  // (A + B) v1 vs A v1 + B v1: equal-cost on dense inputs, but with A
  // sparse the distribution avoids densifying A + B.
  la::MetaCatalog catalog = DenseCatalog();
  catalog["A"].nnz = 500;  // Ultra sparse A.
  Optimizer opt(catalog);
  auto r = opt.OptimizeText("(A + B) %*% v1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "A %*% v1 + B %*% v1");
}

TEST(OptimizerTest, P1_13SumOfProduct) {
  // sum(M N) -> sum(t(colSums(M)) * rowSums(N)) (SystemML rule (i)).
  Optimizer opt(DenseCatalog());
  auto r = opt.OptimizeText("sum(M %*% N)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "sum(t(colSums(M)) * rowSums(N))");
  EXPECT_LT(r->best_cost, r->original_cost / 100);
}

TEST(OptimizerTest, P1_14SumColSumsOfTransposedProduct) {
  // sum(colSums(t(N) %*% t(M))) needs (MN)^T = N^T M^T *and* the StatAgg
  // rules together (the interplay SystemML alone misses, §9.1.1).
  Optimizer opt(DenseCatalog());
  auto r = opt.OptimizeText("sum(colSums(t(N) %*% t(M)))");
  ASSERT_TRUE(r.ok());
  // Hadamard commutes, so either operand order is the paper's rewriting.
  std::string best = la::ToString(r->best);
  EXPECT_TRUE(best == "sum(t(colSums(M)) * rowSums(N))" ||
              best == "sum(rowSums(N) * t(colSums(M)))")
      << best;
  EXPECT_LT(r->best_cost, r->original_cost / 100);
}

TEST(OptimizerTest, P1_8ScalarFactoring) {
  // s1 A + s2 A -> (s1 + s2) A.
  Optimizer opt(DenseCatalog());
  auto r = opt.OptimizeText("2 * A + 3 * A");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "(2 + 3) * A");
}

TEST(OptimizerTest, P2_1TraceOfSum) {
  Optimizer opt(DenseCatalog());
  EXPECT_EQ(BestOf(opt, "trace(C + D)"), "trace(C) + trace(D)");
}

TEST(OptimizerTest, P2_7InverseCancellation) {
  // D D^{-1} C -> C.
  Optimizer opt(DenseCatalog());
  EXPECT_EQ(BestOf(opt, "(D %*% inv(D)) %*% C"), "C");
}

TEST(OptimizerTest, P1_9DetOfTranspose) {
  Optimizer opt(DenseCatalog());
  EXPECT_EQ(BestOf(opt, "det(t(D))"), "det(D)");
}

TEST(OptimizerTest, P1_10RowSumsOfTranspose) {
  Optimizer opt(DenseCatalog());
  EXPECT_EQ(BestOf(opt, "rowSums(t(A))"), "t(colSums(A))");
}

TEST(OptimizerTest, P2_11SumOfAdd) {
  la::MetaCatalog catalog = DenseCatalog();
  catalog["A"].nnz = 500;
  Optimizer opt(catalog);
  EXPECT_EQ(BestOf(opt, "sum(A + B)"), "sum(A) + sum(B)");
}

// --- Views (§6.3, Figure 3) ---------------------------------------------

TEST(OptimizerTest, Figure3ViewAnswersQp) {
  // V = t(N) + inv(t(M)) answers Q_p = t(inv(M) + N) outright (RW_0).
  la::MetaCatalog catalog;
  catalog["M"] = {.rows = 300, .cols = 300, .nnz = 90000};
  catalog["N"] = {.rows = 300, .cols = 300, .nnz = 90000};
  Optimizer opt(catalog);
  ASSERT_TRUE(opt.AddViewText("V", "t(N) + inv(t(M))").ok());
  auto r = opt.OptimizeText("t(inv(M) + N)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "V");
  EXPECT_DOUBLE_EQ(r->best_cost, 0.0);
}

TEST(OptimizerTest, P2_21OlsWithInverseView) {
  // OLS (D^T D)^{-1} (D^T v1) with V1 = D^{-1} rewrites to
  // V1 (V1^T (D^T v1)) — the 150x MLlib speedup of §2.
  la::MetaCatalog catalog;
  catalog["D"] = {.rows = 800, .cols = 800, .nnz = 640000};
  catalog["v1"] = {.rows = 800, .cols = 1, .nnz = 800};
  Optimizer opt(catalog);
  ASSERT_TRUE(opt.AddViewText("V1", "inv(D)").ok());
  auto r = opt.OptimizeText("inv(t(D) %*% D) %*% (t(D) %*% v1)");
  ASSERT_TRUE(r.ok());
  // The best plan must use the view and keep every intermediate a vector.
  std::string best = la::ToString(r->best);
  EXPECT_NE(best.find("V1"), std::string::npos) << best;
  EXPECT_EQ(best.find("inv("), std::string::npos) << best;
  EXPECT_LE(r->best_cost, 3 * 800.0);
  EXPECT_LT(r->best_cost, r->original_cost / 100);
}

TEST(OptimizerTest, P2_14ProductView) {
  // ((M N) M) N with V4 = N M: associativity exposes M (N M) N = M V4 N.
  la::MetaCatalog catalog = DenseCatalog();
  Optimizer opt(catalog);
  ASSERT_TRUE(opt.AddViewText("V4", "N %*% M").ok());
  auto r = opt.OptimizeText("((M %*% N) %*% M) %*% N");
  ASSERT_TRUE(r.ok());
  std::string best = la::ToString(r->best);
  EXPECT_NE(best.find("V4"), std::string::npos) << best;
  EXPECT_LT(r->best_cost, r->original_cost);
}

TEST(OptimizerTest, Example62CholeskyView) {
  // V = N + L L^T with L = cho(M) answers E = M + N thanks to I_cho and
  // commutativity (Example 6.2).
  la::MetaCatalog catalog;
  catalog["M"] = {.rows = 200, .cols = 200, .nnz = 40000,
                  .symmetric_pd = true};
  catalog["N"] = {.rows = 200, .cols = 200, .nnz = 40000};
  Optimizer opt(catalog);
  ASSERT_TRUE(opt.AddViewText("V", "N + cho(M) %*% t(cho(M))").ok());
  auto r = opt.OptimizeText("M + N");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "V");
}

// --- Pruning (§7.3) --------------------------------------------------------

TEST(OptimizerTest, PruningSkipsExpensiveFragments) {
  OptimizerOptions with;
  OptimizerOptions without;
  without.prune = false;
  Optimizer pruned(DenseCatalog(), with);
  Optimizer unpruned(DenseCatalog(), without);
  auto r1 = pruned.OptimizeText("M %*% (N %*% M)");
  auto r2 = unpruned.OptimizeText("M %*% (N %*% M)");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Both keep the already-optimal order...
  EXPECT_EQ(la::ToString(r1->best), "M %*% (N %*% M)");
  EXPECT_EQ(la::ToString(r2->best), "M %*% (N %*% M)");
  // ...but pruning rejects chase steps (Example 7.2's (MN)M atoms).
  EXPECT_GT(r1->chase_stats.pruned_applications, 0);
  EXPECT_LE(r1->chase_stats.facts_added, r2->chase_stats.facts_added);
}

TEST(OptimizerTest, AlreadyOptimalPipelinesComeBackUnchanged) {
  Optimizer opt(DenseCatalog());
  for (const char* text : {"M %*% (N %*% M)", "t(N) %*% t(M)", "sum(A)",
                           "rowSums(A)"}) {
    auto r = opt.OptimizeText(text);
    ASSERT_TRUE(r.ok()) << text;
    EXPECT_EQ(la::ToString(r->best), text);
    EXPECT_FALSE(r->improved) << text;
  }
}

// --- Alternatives enumeration (Figure 4) -----------------------------------

TEST(OptimizerTest, EnumeratesEquivalentAlternatives) {
  // Figure 4 lists *all* equivalent rewritings of Q_p; only the naive
  // algorithm (pruning off) keeps the non-minimal ones around.
  OptimizerOptions options;
  options.prune = false;
  Optimizer opt(DenseCatalog(), options);
  auto r = opt.OptimizeText("t(inv(D) + C)");
  ASSERT_TRUE(r.ok());
  // Figure 4 lists rewrites like t(C) + t(inv(D)), inv(t(D)) + t(C), ...
  EXPECT_GE(r->rewrites.size(), 3u);
  // All enumerated rewrites are valid expressions over the catalog.
  for (const la::ExprPtr& rw : r->rewrites) {
    EXPECT_TRUE(la::InferShape(*rw, opt.catalog()).ok())
        << la::ToString(rw);
  }
}

// --- Error handling -----------------------------------------------------------

TEST(OptimizerTest, UnknownMatrixIsAnError) {
  Optimizer opt(DenseCatalog());
  EXPECT_FALSE(opt.OptimizeText("Zz %*% M").ok());
}

TEST(OptimizerTest, DimensionMismatchIsAnError) {
  Optimizer opt(DenseCatalog());
  EXPECT_FALSE(opt.OptimizeText("M %*% M").ok());
}

TEST(OptimizerTest, DuplicateViewNameRejected) {
  Optimizer opt(DenseCatalog());
  ASSERT_TRUE(opt.AddViewText("W", "t(M)").ok());
  EXPECT_FALSE(opt.AddViewText("W", "t(N)").ok());
  EXPECT_FALSE(opt.AddViewText("M", "t(N)").ok());  // Clashes with a base.
}

TEST(OptimizerTest, RewriteTimeIsReported) {
  Optimizer opt(DenseCatalog());
  auto r = opt.OptimizeText("t(M %*% N)");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->optimize_seconds, 0.0);
  EXPECT_LT(r->optimize_seconds, 30.0);
}

// MNC estimator flows through the optimizer.
TEST(OptimizerTest, MncEstimatorSelectsSparseAwarePlan) {
  la::MetaCatalog catalog = DenseCatalog();
  catalog["A"].nnz = 500;
  OptimizerOptions options;
  options.estimator = EstimatorKind::kMnc;
  Optimizer opt(catalog, options);
  auto r = opt.OptimizeText("(A + B) %*% v1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "A %*% v1 + B %*% v1");
}

// ---------------------------------------------------------------------------
// Leaf statistics: read from a version's data once, memoized per version.
// ---------------------------------------------------------------------------

OptimizerOptions WithEstimator(EstimatorKind kind) {
  OptimizerOptions options;
  options.estimator = kind;
  return options;
}

// A workspace whose leaf A is sparse enough that even the naive estimate
// of A %*% B (bounded by nnz(A) x cols(B)) depends on A's nnz.
engine::Workspace LeafStatisticsWorkspace() {
  Rng rng(17);
  engine::Workspace ws;
  ws.Put("A", matrix::RandomSparse(rng, 300, 40, 0.005));
  ws.Put("B", matrix::RandomDense(rng, 40, 30));
  return ws;
}

// Optimizes `query` once (filling the leaf statistics), applies `mutate` to
// the workspace, updates A's catalog entry as a session does, and checks
// that the optimizer now answers exactly as one built fresh over the
// mutated workspace: best text and both costs, under both estimators.
void ExpectLeafStatisticsFollow(
    const std::function<void(engine::Workspace&)>& mutate) {
  const std::string query = "colSums(A %*% B)";
  for (EstimatorKind kind : {EstimatorKind::kNaive, EstimatorKind::kMnc}) {
    SCOPED_TRACE(kind == EstimatorKind::kMnc ? "mnc" : "naive");
    engine::Workspace ws = LeafStatisticsWorkspace();
    Optimizer opt(ws.BuildMetaCatalog(), WithEstimator(kind));
    opt.SetData(&ws.data());
    ASSERT_TRUE(opt.OptimizeText(query).ok());
    mutate(ws);
    if (::testing::Test::HasFatalFailure()) return;
    const la::MetaCatalog catalog = ws.BuildMetaCatalog();
    ASSERT_TRUE(opt.UpdateBaseMeta("A", catalog.at("A")).ok());
    Optimizer fresh(catalog, WithEstimator(kind));
    fresh.SetData(&ws.data());
    auto got = opt.OptimizeText(query);
    auto want = fresh.OptimizeText(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(la::ToString(got->best), la::ToString(want->best));
    EXPECT_EQ(got->best_cost, want->best_cost);
    EXPECT_EQ(got->original_cost, want->original_cost);
  }
}

// Workspace::Append grows the unpinned live version in place: same handle,
// more rows, more non-zeros.
TEST(OptimizerTest, LeafStatisticsFollowInPlaceAppend) {
  ExpectLeafStatisticsFollow([](engine::Workspace& ws) {
    const matrix::Matrix* before = ws.Find("A");
    Rng rng(18);
    ASSERT_TRUE(ws.Append("A", matrix::RandomDense(rng, 60, 40)).ok());
    ASSERT_EQ(ws.Find("A"), before) << "append did not grow in place";
  });
}

// A same-shape Update binds a new version with a different nnz.
TEST(OptimizerTest, LeafStatisticsFollowSameShapeUpdate) {
  ExpectLeafStatisticsFollow([](engine::Workspace& ws) {
    Rng rng(19);
    ASSERT_TRUE(ws.Update("A", matrix::RandomSparse(rng, 300, 40, 0.5)).ok());
  });
}

// Optimize() is const and runs concurrently: 4 threads sharing one MNC
// optimizer, all filling its leaf statistics at once, must each return
// what a sequential optimizer returns for every benchmark pipeline.
TEST(OptimizerTest, ConcurrentOptimizeMatchesSequential) {
  core::LaBenchConfig config;
  config.n_a = 400;
  config.n_m = 120;
  config.k = 20;
  config.n_c = 32;
  config.n_r = 20;
  config.x_rows = 120;
  config.x_cols = 80;
  Rng rng(2024);
  engine::Workspace ws = core::MakeLaBenchWorkspace(rng, config);
  const std::vector<core::Pipeline>& pipelines = core::LaBenchmark();
  auto describe = [](const RewriteResult& r) {
    char costs[64];
    std::snprintf(costs, sizeof(costs), " %.17g %.17g", r.best_cost,
                  r.original_cost);
    return la::ToString(r.best) + costs;
  };
  std::vector<std::string> sequential;
  {
    Optimizer opt(ws.BuildMetaCatalog(), WithEstimator(EstimatorKind::kMnc));
    opt.SetData(&ws.data());
    for (const core::Pipeline& p : pipelines) {
      auto r = opt.OptimizeText(p.text);
      ASSERT_TRUE(r.ok()) << p.id << ": " << r.status().ToString();
      sequential.push_back(describe(*r));
    }
  }
  Optimizer shared(ws.BuildMetaCatalog(), WithEstimator(EstimatorKind::kMnc));
  shared.SetData(&ws.data());
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different pipeline.
      results[t].resize(pipelines.size());
      for (size_t i = 0; i < pipelines.size(); ++i) {
        const size_t k = (i + static_cast<size_t>(t) * 7) % pipelines.size();
        auto r = shared.OptimizeText(pipelines[k].text);
        results[t][k] = r.ok() ? describe(*r) : r.status().ToString();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < pipelines.size(); ++k) {
      EXPECT_EQ(results[t][k], sequential[k])
          << "thread " << t << ", " << pipelines[k].id;
    }
  }
}

// A fact whose input class has no metadata yet waits for it by fact id. A
// rebuild that fuses other facts in between must not make that id name
// another fact: once the input is seeded, the waiting transpose still
// derives its output's shape.
TEST(MetaTrackerTest, WaitingFactSurvivesRebuild) {
  chase::Instance inst;
  SignatureTable signatures(&inst);
  cost::NaiveMetadataEstimator estimator;
  MetaTracker tracker(&inst, &signatures, &estimator);
  inst.SetMergeObserver([&tracker](chase::NodeId absorbed,
                                   chase::NodeId survivor) {
    tracker.OnMerge(absorbed, survivor);
  });
  const int32_t zero = inst.InternPredicate(la::vrem::kZero);
  const int32_t tr = inst.InternPredicate(la::vrem::kTr);
  const chase::NodeId a = inst.FreshNull();
  const chase::NodeId b = inst.FreshNull();
  const chase::NodeId x = inst.FreshNull();
  const chase::NodeId y = inst.FreshNull();
  std::vector<chase::FactId> ids;
  ids.push_back(inst.AddFact(zero, {a}, nullptr));
  ids.push_back(inst.AddFact(zero, {b}, nullptr));
  ids.push_back(inst.AddFact(tr, {x, y}, nullptr));
  tracker.OnFactsAdded(ids);  // tr(x, y) waits on x.
  ASSERT_EQ(tracker.Get(y), nullptr);
  ASSERT_TRUE(inst.Merge(a, b).ok());
  inst.Rebuild();  // zero(a) and zero(b) fuse.
  cost::ClassMeta meta;
  meta.shape = la::MatrixMeta{.rows = 3, .cols = 5, .nnz = 15};
  tracker.Seed(x, meta);
  const cost::ClassMeta* out = tracker.Get(y);
  ASSERT_NE(out, nullptr) << "tr(x, y) lost its wait across the rebuild";
  EXPECT_EQ(out->shape.rows, 5);
  EXPECT_EQ(out->shape.cols, 3);
}

}  // namespace
}  // namespace hadad::pacb
