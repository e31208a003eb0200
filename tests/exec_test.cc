// Tests for the parallel physical execution engine (src/exec/): thread
// pool, DAG compilation (CSE + kernel selection), scheduler equivalence
// with the reference tree-walking evaluator (tests/reference_evaluator.h),
// determinism across thread counts, and the api::Session Threads() routing.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "core/data.h"
#include "core/workloads.h"
#include "engine/evaluator.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "exec/thread_pool.h"
#include "la/parser.h"
#include "matrix/blocked_kernels.h"
#include "matrix/generate.h"
#include "reference_evaluator.h"

namespace hadad::exec {
namespace {

using engine::ExecOptions;
using engine::ExecStats;
using matrix::Matrix;

la::ExprPtr Parse(const std::string& text) {
  auto e = la::ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return *e;
}

// Bit-for-bit equality on the dense view (ApproxEquals would mask
// non-determinism).
bool ExactlyEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  matrix::DenseMatrix da = a.ToDense();
  matrix::DenseMatrix db = b.ToDense();
  for (int64_t i = 0; i < da.size(); ++i) {
    if (da.data()[i] != db.data()[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ResolvesThreadCounts) {
  EXPECT_GE(ThreadPool(0).threads(), 1);
  EXPECT_EQ(ThreadPool(1).threads(), 1);
  EXPECT_EQ(ThreadPool(1).worker_count(), 0);  // Inline mode.
  EXPECT_EQ(ThreadPool(4).threads(), 4);
  EXPECT_EQ(ThreadPool(4).worker_count(), 4);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, 7, [&hits](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
      }
    });
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 1, [&pool, &total](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      pool.ParallelFor(10, 2, [&total](int64_t b, int64_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(ran.load(), 50);
}

// ---------------------------------------------------------------------------
// Blocked kernels: bit-identical to the naive kernels in matrix.cc.
// ---------------------------------------------------------------------------

TEST(BlockedKernelTest, MatchesNaiveKernelsBitForBit) {
  Rng rng(7);
  const Matrix a = matrix::RandomDense(rng, 137, 310);
  const Matrix b = matrix::RandomDense(rng, 310, 71);
  const Matrix naive = matrix::Multiply(a, b).value();

  ThreadPool pool(4);
  matrix::RangeRunner runner = [&pool](int64_t n,
                                       const std::function<void(
                                           int64_t, int64_t)>& body) {
    pool.ParallelFor(n, matrix::kRowGrain, body);
  };
  const Matrix blocked_seq =
      Matrix(matrix::MultiplyDenseBlocked(a.dense(), b.dense()));
  const Matrix blocked_par =
      Matrix(matrix::MultiplyDenseBlocked(a.dense(), b.dense(), runner));
  EXPECT_TRUE(ExactlyEqual(naive, blocked_seq));
  EXPECT_TRUE(ExactlyEqual(naive, blocked_par));

  // Transpose-fused: t(a) * a against materialize-then-multiply.
  const Matrix t_naive =
      matrix::Multiply(matrix::Transpose(a), a).value();
  const Matrix t_fused =
      Matrix(matrix::MultiplyTransposedDenseBlocked(a.dense(), a.dense(),
                                                    runner));
  EXPECT_TRUE(ExactlyEqual(t_naive, t_fused));

  // SpMM row-parallel against the sequential sparse-dense kernel.
  const Matrix s = matrix::RandomSparse(rng, 200, 310, 0.05);
  const Matrix spmm_naive = matrix::Multiply(s, b).value();
  const Matrix spmm_par = Matrix(
      matrix::MultiplySparseDenseParallel(s.sparse(), b.dense(), runner));
  EXPECT_TRUE(ExactlyEqual(spmm_naive, spmm_par));
}

TEST(BlockedKernelTest, SpGemmMatchesSequentialGustavsonBitForBit) {
  Rng rng(17);
  const Matrix a = matrix::RandomSparse(rng, 211, 150, 0.04);
  const Matrix b = matrix::RandomSparse(rng, 150, 97, 0.06);
  const Matrix naive = matrix::Multiply(a, b).value();  // Sequential kernel.
  ASSERT_TRUE(naive.is_sparse());

  // Sequential call (null runner), pooled runner at the standard grain, and
  // a pathological runner with odd chunk boundaries: per-row accumulation
  // order never depends on the partition, so all are bit-identical.
  const Matrix seq =
      Matrix(matrix::MultiplySparseSparseParallel(a.sparse(), b.sparse()));
  EXPECT_TRUE(ExactlyEqual(naive, seq));

  ThreadPool pool(4);
  matrix::RangeRunner runner = [&pool](int64_t n,
                                       const std::function<void(
                                           int64_t, int64_t)>& body) {
    pool.ParallelFor(n, matrix::kRowGrain, body);
  };
  const Matrix par = Matrix(
      matrix::MultiplySparseSparseParallel(a.sparse(), b.sparse(), runner));
  EXPECT_TRUE(ExactlyEqual(naive, par));

  matrix::RangeRunner odd = [](int64_t n, const std::function<void(
                                              int64_t, int64_t)>& body) {
    for (int64_t begin = 0; begin < n; begin += 7) {
      body(begin, std::min(n, begin + 7));
    }
  };
  const Matrix odd_chunks = Matrix(
      matrix::MultiplySparseSparseParallel(a.sparse(), b.sparse(), odd));
  EXPECT_TRUE(ExactlyEqual(naive, odd_chunks));

  // Exact CSR structural identity, not just values.
  EXPECT_EQ(par.sparse().row_ptr(), naive.sparse().row_ptr());
  EXPECT_EQ(par.sparse().col_idx(), naive.sparse().col_idx());
  EXPECT_EQ(par.sparse().values(), naive.sparse().values());
}

// ---------------------------------------------------------------------------
// Plan compilation: CSE and kernel selection.
// ---------------------------------------------------------------------------

class CompileTest : public ::testing::Test {
 protected:
  CompileTest() {
    Rng rng(3);
    workspace_.Put("X", matrix::RandomDense(rng, 120, 90));
    workspace_.Put("Y", matrix::RandomDense(rng, 90, 120));
    workspace_.Put("S", matrix::RandomSparse(rng, 200, 90, 0.02));
  }

  CompiledPlan MustCompile(const std::string& text,
                           const CompileOptions& options = {}) {
    auto plan = Compile(Parse(text), workspace_, nullptr, options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(plan).value();
  }

  // Kernel of the first node with the given op.
  KernelKind KernelOf(const CompiledPlan& plan, la::OpKind op) {
    for (const PlanNode& n : plan.nodes) {
      if (n.op == op && n.kernel != KernelKind::kLoad) return n.kernel;
    }
    ADD_FAILURE() << "no node with op " << la::OpName(op);
    return KernelKind::kGeneric;
  }

  engine::Workspace workspace_;
};

TEST_F(CompileTest, CseFoldsRepeatedSubtrees) {
  // X %*% Y appears twice; the second occurrence folds (its subtree,
  // leaves included, is never revisited).
  CompiledPlan plan = MustCompile("(X %*% Y) + (X %*% Y)");
  EXPECT_EQ(plan.cse_hits, 1);
  // Nodes: X, Y, X%*%Y, add. The expression tree has 7.
  EXPECT_EQ(plan.nodes.size(), 4u);
  EXPECT_EQ(Parse("(X %*% Y) + (X %*% Y)")->TreeSize(), 7);
}

TEST_F(CompileTest, CseDisabledKeepsTreeShape) {
  CompileOptions options;
  options.enable_cse = false;
  CompiledPlan plan = MustCompile("(X %*% Y) + (X %*% Y)", options);
  EXPECT_EQ(plan.cse_hits, 0);
  EXPECT_EQ(plan.nodes.size(), 7u);
}

TEST_F(CompileTest, SelectsBlockedGemmForLargeDenseProduct) {
  CompiledPlan plan = MustCompile("X %*% Y");
  EXPECT_EQ(KernelOf(plan, la::OpKind::kMultiply), KernelKind::kGemmBlocked);
}

TEST_F(CompileTest, KeepsMatrixVectorProductOnSequentialKernel) {
  // Output cells clear the parallel threshold, but a one-column right
  // operand would make the blocked kernel's row axpy one call per element.
  Rng rng(5);
  workspace_.Put("T", matrix::RandomDense(rng, 5000, 90));
  CompiledPlan plan = MustCompile("T %*% rowSums(Y)");
  EXPECT_EQ(KernelOf(plan, la::OpKind::kMultiply), KernelKind::kGeneric);
}

TEST_F(CompileTest, SelectsSpmmForSparseLhs) {
  CompiledPlan plan = MustCompile("S %*% Y");
  EXPECT_EQ(KernelOf(plan, la::OpKind::kMultiply), KernelKind::kSpmm);
}

TEST_F(CompileTest, SelectsSpGemmForSparseSparseProduct) {
  Rng rng(5);
  workspace_.Put("S2", matrix::RandomSparse(rng, 90, 200, 0.02));
  CompiledPlan plan = MustCompile("S %*% S2");  // 200x200 output: parallel.
  EXPECT_EQ(KernelOf(plan, la::OpKind::kMultiply), KernelKind::kSpGemm);
}

TEST_F(CompileTest, RecordsLeafDependencySet) {
  CompiledPlan plan = MustCompile("(X %*% Y) + (X %*% Y)");
  EXPECT_EQ(plan.leaf_names, (std::vector<std::string>{"X", "Y"}));
}

TEST_F(CompileTest, LeafMetadataComesFromResolver) {
  // The resolver's rows, cols and nnz are used as is, not recounted from
  // the data (the shape is the data's: the compiler trusts it); a name the
  // resolver does not know is read and counted from the workspace.
  cost::LeafMetaFn leaf_meta =
      [this](const std::string& name) -> Result<cost::ClassMeta> {
    if (name != "X") return Status::NotFound("unknown matrix '" + name + "'");
    cost::ClassMeta meta;
    meta.shape.rows = workspace_.Find("X")->rows();
    meta.shape.cols = workspace_.Find("X")->cols();
    meta.shape.nnz = 17.0;
    return meta;
  };
  auto plan = Compile(Parse("X %*% Y"), workspace_, &leaf_meta, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::map<std::string, double> leaf_nnz;
  for (const PlanNode& n : plan->nodes) {
    if (n.kernel == KernelKind::kLoad) {
      leaf_nnz[n.expr->name()] = n.meta.shape.nnz;
    }
  }
  EXPECT_EQ(leaf_nnz.at("X"), 17.0);
  EXPECT_EQ(leaf_nnz.at("Y"),
            static_cast<double>(workspace_.Find("Y")->Nnz()));
  // A name neither knows is NotFound.
  auto missing = Compile(Parse("X %*% Missing"), workspace_, &leaf_meta, {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(CompileTest, FusesTransposedLhs) {
  CompiledPlan plan = MustCompile("t(X) %*% X");
  EXPECT_EQ(KernelOf(plan, la::OpKind::kMultiply),
            KernelKind::kGemmFusedTranspose);
  // The transpose was not materialized as its own node.
  for (const PlanNode& n : plan.nodes) {
    EXPECT_NE(n.op, la::OpKind::kTranspose);
  }
}

TEST_F(CompileTest, SmallProductsStayGeneric) {
  CompileOptions options;
  options.parallel_cell_threshold = 1 << 30;
  CompiledPlan plan = MustCompile("X %*% Y", options);
  EXPECT_EQ(KernelOf(plan, la::OpKind::kMultiply), KernelKind::kGeneric);
}

TEST_F(CompileTest, UnknownNameFails) {
  auto plan = Compile(Parse("X %*% Missing"), workspace_, nullptr, {});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
}

TEST_F(CompileTest, ShapeMismatchFails) {
  auto plan = Compile(Parse("X + Y"), workspace_, nullptr, {});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kDimensionMismatch);
}

// ---------------------------------------------------------------------------
// Execution equivalence with the tree-walking evaluator.
// ---------------------------------------------------------------------------

core::LaBenchConfig TestConfig() {
  core::LaBenchConfig config;
  config.n_a = 800;
  config.n_m = 200;
  config.k = 30;
  config.n_c = 48;
  config.n_r = 30;
  config.x_rows = 300;
  config.x_cols = 200;
  return config;
}

TEST(ExecEquivalenceTest, MatchesSequentialAcrossBenchmarkPipelines) {
  // The DAG serves every session (one thread without Threads()), so it must
  // reproduce the tree evaluator's bits, not just approximate them.
  Rng rng(17);
  engine::Workspace workspace = core::MakeLaBenchWorkspace(rng, TestConfig());
  Executor inline_executor(ExecOptions{.threads = 1});
  Executor executor(ExecOptions{.threads = 2});
  int checked = 0;
  for (const core::Pipeline& p : core::LaBenchmark()) {
    la::ExprPtr expr = Parse(p.text);
    Result<Matrix> sequential = reference::Evaluate(*expr, workspace);
    Result<Matrix> inline_run = inline_executor.Run(expr, workspace);
    Result<Matrix> parallel = executor.Run(expr, workspace);
    ASSERT_EQ(sequential.ok(), inline_run.ok()) << p.id;
    ASSERT_EQ(sequential.ok(), parallel.ok()) << p.id;
    if (!sequential.ok()) continue;
    EXPECT_TRUE(ExactlyEqual(*sequential, *inline_run))
        << p.id << " (1 thread): " << p.text;
    EXPECT_TRUE(ExactlyEqual(*sequential, *parallel))
        << p.id << " (2 threads): " << p.text;
    ++checked;
  }
  EXPECT_GT(checked, 40);  // The benchmark defines 57 pipelines.
}

TEST(ExecEquivalenceTest, DeterministicAcrossThreadCounts) {
  Rng rng(23);
  engine::Workspace workspace;
  workspace.Put("X", matrix::RandomDense(rng, 150, 130));
  workspace.Put("Y", matrix::RandomDense(rng, 130, 150));
  workspace.Put("S", matrix::RandomSparse(rng, 150, 150, 0.03));
  const std::vector<std::string> cases = {
      "(X %*% Y) %*% (X %*% Y)",
      "t(X) %*% X",
      "S %*% (X %*% Y)",
      "S %*% S",  // Parallel Gustavson SpGEMM path.
      "colSums(X %*% Y) %*% rowSums(X %*% Y)",
      // kGeneric kernels on the pool: the inverse's column-split solves
      // and exp's blocked products.
      "inv(t(X) %*% X)",
      "exp(0.001 * (t(X) %*% X))",
  };
  for (const std::string& text : cases) {
    la::ExprPtr expr = Parse(text);
    Result<Matrix> baseline =
        Executor(ExecOptions{.threads = 1}).Run(expr, workspace);
    ASSERT_TRUE(baseline.ok()) << text << ": " << baseline.status().ToString();
    for (int threads : {2, 4, 8}) {
      Executor executor(ExecOptions{.threads = threads});
      // Repeat: scheduling races would make results flap run to run.
      for (int rep = 0; rep < 3; ++rep) {
        Result<Matrix> out = executor.Run(expr, workspace);
        ASSERT_TRUE(out.ok()) << text;
        EXPECT_TRUE(ExactlyEqual(*baseline, *out))
            << text << " at " << threads << " threads, rep " << rep;
      }
    }
  }
}

TEST(ExecEquivalenceTest, ExecutorStatsOfACseSharedRun) {
  Rng rng(29);
  engine::Workspace workspace;
  workspace.Put("X", matrix::RandomDense(rng, 100, 80));
  workspace.Put("Y", matrix::RandomDense(rng, 80, 100));
  la::ExprPtr expr = Parse("(X %*% Y) + (X %*% Y)");

  ExecStats stats;
  Result<Matrix> parallel =
      Executor(ExecOptions{.threads = 4}).Run(expr, workspace, &stats);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  Result<Matrix> sequential = reference::Evaluate(*expr, workspace);
  ASSERT_TRUE(sequential.ok());
  EXPECT_TRUE(ExactlyEqual(*sequential, *parallel));

  EXPECT_EQ(stats.threads, 4);
  EXPECT_EQ(stats.cse_hits, 1);
  EXPECT_EQ(stats.plan_nodes, 4);
  EXPECT_EQ(stats.operators, 2);  // One shared product + one add.
  EXPECT_FALSE(stats.op_timings.empty());
  EXPECT_GE(stats.total_operator_seconds, stats.critical_path_seconds);
  EXPECT_GT(stats.critical_path_seconds, 0.0);
}

TEST(ExecEquivalenceTest, ErrorsSurfaceAsStatusInParallelRuns) {
  Rng rng(31);
  engine::Workspace workspace;
  workspace.Put("C", matrix::RandomDense(rng, 64, 64));
  // A zero matrix: inv(Z) fails at runtime, mid-DAG.
  workspace.Put("Z", Matrix(matrix::DenseMatrix(64, 64)));
  la::ExprPtr expr = Parse("C %*% inv(Z)");
  Executor executor(ExecOptions{.threads = 4});
  Result<Matrix> out = executor.Run(expr, workspace);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotInvertible);
}

// ---------------------------------------------------------------------------
// Operator fusion: elementwise chains + aggregation pushdown.
// ---------------------------------------------------------------------------

class FusionTest : public ::testing::Test {
 protected:
  FusionTest() {
    Rng rng(51);
    // Same-shape dense operands for elementwise chains.
    workspace_.Put("A", matrix::RandomDense(rng, 100, 80));
    workspace_.Put("B", matrix::RandomDense(rng, 100, 80));
    workspace_.Put("C", matrix::RandomDense(rng, 100, 80));
    workspace_.Put("D", matrix::RandomDense(rng, 100, 80));
    // GEMM operands for aggregation pushdown.
    workspace_.Put("X", matrix::RandomDense(rng, 120, 90));
    workspace_.Put("Y", matrix::RandomDense(rng, 90, 120));
    // Sparse same-shape operands for the runtime fallback path.
    workspace_.Put("S1", matrix::RandomSparse(rng, 100, 80, 0.05));
    workspace_.Put("S2", matrix::RandomSparse(rng, 100, 80, 0.05));
  }

  CompiledPlan MustCompile(const std::string& text,
                           const CompileOptions& options = {}) {
    auto plan = Compile(Parse(text), workspace_, nullptr, options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(plan).value();
  }

  int CountKernel(const CompiledPlan& plan, KernelKind kind) {
    int count = 0;
    for (const PlanNode& n : plan.nodes) count += n.kernel == kind ? 1 : 0;
    return count;
  }

  int CountOp(const CompiledPlan& plan, la::OpKind op) {
    int count = 0;
    for (const PlanNode& n : plan.nodes) count += n.op == op ? 1 : 0;
    return count;
  }

  engine::Workspace workspace_;
};

TEST_F(FusionTest, ElementwiseChainCollapsesToOneNode) {
  // A + B*C - D = add(add(A, B∘C), (-1)∘D): four elementwise operators,
  // three materialized intermediates eliminated.
  CompiledPlan plan = MustCompile("A + B * C - D");
  EXPECT_EQ(plan.fused_nodes, 1);
  EXPECT_EQ(plan.fused_ops_eliminated, 3);
  EXPECT_EQ(CountKernel(plan, KernelKind::kFusedElementwise), 1);
  // Loads A, B, C, D plus the fused node; interior adds/hadamards are gone.
  EXPECT_EQ(plan.nodes.size(), 5u);
  EXPECT_EQ(CountOp(plan, la::OpKind::kHadamard), 0);
  ASSERT_EQ(plan.programs.size(), 1u);
  EXPECT_EQ(plan.programs[0].fused_ops, 4);
  EXPECT_EQ(plan.programs[0].input_count, 4);
}

TEST_F(FusionTest, FusionDisabledKeepsEveryOperator) {
  CompileOptions options;
  options.enable_fusion = false;
  CompiledPlan plan = MustCompile("A + B * C - D", options);
  EXPECT_EQ(plan.fused_nodes, 0);
  EXPECT_EQ(CountKernel(plan, KernelKind::kFusedElementwise), 0);
  EXPECT_EQ(CountOp(plan, la::OpKind::kAdd), 2);
  EXPECT_EQ(CountOp(plan, la::OpKind::kHadamard), 2);
}

TEST_F(FusionTest, CseSharedInteriorNodeIsAFusionBarrier) {
  // B*C also feeds the transpose, so it is CSE-shared: it must stay its own
  // node (computed once), and the two-operand chain around it is too small
  // to fuse.
  CompiledPlan plan = MustCompile("(A + B * C) %*% t(B * C)");
  EXPECT_EQ(plan.fused_nodes, 0);
  EXPECT_EQ(plan.cse_hits, 1);
  EXPECT_EQ(CountOp(plan, la::OpKind::kHadamard), 1);
}

TEST_F(FusionTest, AggregationPushesIntoGemm) {
  struct Case {
    const char* text;
    KernelKind kernel;
  };
  for (const Case& c :
       {Case{"colSums(X %*% Y)", KernelKind::kGemmColSumsReduce},
        Case{"rowSums(X %*% Y)", KernelKind::kGemmRowSumsReduce},
        Case{"sum(X %*% Y)", KernelKind::kGemmSumReduce},
        Case{"mean(X %*% Y)", KernelKind::kGemmMeanReduce},
        Case{"colMeans(X %*% Y)", KernelKind::kGemmColMeansReduce}}) {
    CompiledPlan plan = MustCompile(c.text);
    EXPECT_EQ(CountKernel(plan, c.kernel), 1) << c.text;
    // The product node is gone: loads X, Y plus the reducing node.
    EXPECT_EQ(plan.nodes.size(), 3u) << c.text;
    EXPECT_EQ(CountOp(plan, la::OpKind::kMultiply), 0) << c.text;
    EXPECT_EQ(plan.fused_nodes, 1) << c.text;
    EXPECT_EQ(plan.fused_ops_eliminated, 1) << c.text;
  }
}

TEST_F(FusionTest, SharedProductBlocksAggregationPushdown) {
  // X %*% Y feeds both aggregates: materializing it once beats computing it
  // twice inside two reducing kernels.
  CompiledPlan plan = MustCompile("colSums(X %*% Y) %*% rowSums(X %*% Y)");
  EXPECT_EQ(plan.fused_nodes, 0);
  EXPECT_EQ(CountKernel(plan, KernelKind::kGemmBlocked), 1);
}

TEST_F(FusionTest, FusedPlansAreBitIdenticalAcrossThreadCounts) {
  const std::vector<std::string> cases = {
      "A + B * C - D",
      "2 * (A + B) - C",
      "(A + B - C) %*% t(D)",
      "colSums(X %*% Y)",
      "rowSums(X %*% Y)",
      "sum(X %*% Y)",
      "mean(X %*% Y)",
      "colMeans(X %*% Y)",
      "sum(X %*% Y) * (A + B) - D",
      "mean(X %*% Y) * (A + B) - D",
      "S1 + S2 - S1",  // Sparse chain: density gate keeps it unfused.
  };
  for (const std::string& text : cases) {
    la::ExprPtr expr = Parse(text);
    Result<Matrix> unfused =
        Executor(ExecOptions{.threads = 1, .enable_fusion = false})
            .Run(expr, workspace_);
    ASSERT_TRUE(unfused.ok()) << text << ": " << unfused.status().ToString();
    for (int threads : {1, 2, 4, 8}) {
      Executor executor(ExecOptions{.threads = threads});
      for (int rep = 0; rep < 2; ++rep) {
        Result<Matrix> fused = executor.Run(expr, workspace_);
        ASSERT_TRUE(fused.ok()) << text;
        EXPECT_TRUE(ExactlyEqual(*unfused, *fused))
            << text << " at " << threads << " threads, rep " << rep;
      }
    }
  }
}

TEST_F(FusionTest, SparseChainsStayUnfusedByDensityGate) {
  // Fusing a sparse chain would force the matrix-level fallback every run
  // — all the unfused work with none of the single-pass win.
  CompiledPlan plan = MustCompile("S1 + S2 - S1");
  EXPECT_EQ(plan.fused_nodes, 0);
  EXPECT_EQ(CountOp(plan, la::OpKind::kAdd), 2);
}

TEST_F(FusionTest, RuntimeRepresentationMissFallsBackExactly) {
  // Force the estimate wrong: with the density threshold at 0 everything
  // is "dense enough" to fuse, but the operands are sparse at runtime, so
  // the fused node must take the matrix-level fallback and still match the
  // unfused plan bit for bit.
  CompileOptions fuse_anyway;
  fuse_anyway.dense_sparsity_threshold = 0.0;
  CompiledPlan plan = MustCompile("S1 + S2 - S1", fuse_anyway);
  ASSERT_EQ(plan.fused_nodes, 1);

  Result<Matrix> unfused =
      Executor(ExecOptions{.threads = 1, .enable_fusion = false})
          .Run(Parse("S1 + S2 - S1"), workspace_);
  ASSERT_TRUE(unfused.ok());
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    Scheduler scheduler(&pool);
    Result<Matrix> fused = scheduler.Run(plan, workspace_);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_TRUE(ExactlyEqual(*unfused, *fused)) << threads << " threads";
  }
}

TEST_F(FusionTest, ReducingGemmFallsBackExactlyOnSparseOperands) {
  // Same forced-estimate trick for aggregation pushdown: sparse operands
  // pass ReducingGemmProfitable at threshold 0, so the reducing node's
  // runtime dense check fails and the materialize-then-aggregate fallback
  // must reproduce the unfused pipeline bit for bit.
  Rng rng(61);
  workspace_.Put("SA", matrix::RandomSparse(rng, 150, 90, 0.05));
  workspace_.Put("SB", matrix::RandomSparse(rng, 90, 150, 0.05));
  CompileOptions fuse_anyway;
  fuse_anyway.dense_sparsity_threshold = 0.0;
  for (const char* text :
       {"colSums(SA %*% SB)", "rowSums(SA %*% SB)", "sum(SA %*% SB)",
        "mean(SA %*% SB)", "colMeans(SA %*% SB)"}) {
    CompiledPlan plan = MustCompile(text, fuse_anyway);
    ASSERT_EQ(plan.fused_nodes, 1) << text;

    Result<Matrix> unfused =
        Executor(ExecOptions{.threads = 1, .enable_fusion = false})
            .Run(Parse(text), workspace_);
    ASSERT_TRUE(unfused.ok()) << text;
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      Scheduler scheduler(&pool);
      Result<Matrix> fused = scheduler.Run(plan, workspace_);
      ASSERT_TRUE(fused.ok()) << text << ": " << fused.status().ToString();
      EXPECT_TRUE(ExactlyEqual(*unfused, *fused))
          << text << " at " << threads << " threads";
    }
  }
}

TEST_F(FusionTest, MatchesTreeEvaluatorOnChains) {
  for (const char* text : {"A + B * C - D", "colSums(X %*% Y)",
                           "S1 + S2 - S1"}) {
    la::ExprPtr expr = Parse(text);
    Result<Matrix> tree = reference::Evaluate(*expr, workspace_);
    Result<Matrix> fused = Executor(ExecOptions{.threads = 2})
                               .Run(expr, workspace_);
    ASSERT_TRUE(tree.ok()) << text;
    ASSERT_TRUE(fused.ok()) << text;
    EXPECT_TRUE(ExactlyEqual(*tree, *fused)) << text;
  }
}

TEST_F(FusionTest, ExecStatsRecordFusion) {
  la::ExprPtr expr = Parse("A + B * C - D");
  ExecStats stats;
  Result<Matrix> out =
      Executor(ExecOptions{.threads = 2}).Run(expr, workspace_, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.fused_nodes, 1);
  EXPECT_EQ(stats.fused_ops_eliminated, 3);
  EXPECT_EQ(stats.operators, 1);   // The whole chain is one physical op.
  EXPECT_EQ(stats.plan_nodes, 5);  // Four loads + the fused node.

  ExecStats unfused_stats;
  Result<Matrix> unfused =
      Executor(ExecOptions{.threads = 2, .enable_fusion = false})
          .Run(expr, workspace_, &unfused_stats);
  ASSERT_TRUE(unfused.ok());
  EXPECT_EQ(unfused_stats.fused_nodes, 0);
  EXPECT_EQ(unfused_stats.operators, 4);
  // Fusion eliminates the interior intermediates from the γ measure.
  EXPECT_LT(stats.intermediate_nnz, unfused_stats.intermediate_nnz);
}

// ---------------------------------------------------------------------------
// api::Session integration
// ---------------------------------------------------------------------------

TEST(SessionThreadsTest, ThreadsRoutesThroughDagEngine) {
  Rng rng(41);
  const Matrix x = matrix::RandomDense(rng, 150, 100);
  const Matrix y = matrix::RandomDense(rng, 100, 150);

  auto sequential =
      api::SessionBuilder().Put("X", x).Put("Y", y).Build().value();
  auto parallel = api::SessionBuilder()
                      .Put("X", x)
                      .Put("Y", y)
                      .Threads(4)
                      .Build()
                      .value();
  ASSERT_NE(parallel->executor(), nullptr);
  EXPECT_EQ(parallel->executor()->threads(), 4);
  // Without Threads() the session still serves on the DAG, inline.
  ASSERT_NE(sequential->executor(), nullptr);
  EXPECT_EQ(sequential->executor()->threads(), 1);

  const std::string text = "(X %*% Y) %*% (X %*% Y)";
  ExecStats stats;
  Result<Matrix> par = parallel->Run(text, &stats);
  Result<Matrix> seq = sequential->Run(text);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_TRUE(seq.ok());
  EXPECT_TRUE(ExactlyEqual(*seq, *par));
  EXPECT_EQ(stats.threads, 4);
  EXPECT_GT(stats.cse_hits, 0);

  // PreparedQuery handles route through the same engine.
  auto prepared = parallel->Prepare(text);
  ASSERT_TRUE(prepared.ok());
  ExecStats prep_stats;
  Result<Matrix> via_prepared = prepared->Execute(&prep_stats);
  ASSERT_TRUE(via_prepared.ok());
  EXPECT_TRUE(ExactlyEqual(*seq, *via_prepared));
  EXPECT_EQ(prep_stats.threads, 4);
}

TEST(SessionThreadsTest, SessionStatsAccumulateFusion) {
  Rng rng(47);
  auto session = api::SessionBuilder()
                     .Put("A", matrix::RandomDense(rng, 100, 80))
                     .Put("B", matrix::RandomDense(rng, 100, 80))
                     .Put("C", matrix::RandomDense(rng, 100, 80))
                     .Threads(2)
                     .Build()
                     .value();
  ExecStats stats;
  Result<Matrix> out = session->Run("A + B * C - A", &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(stats.fused_nodes, 1);
  EXPECT_GT(stats.fused_ops_eliminated, 0);
  api::SessionStats s = session->stats();
  EXPECT_EQ(s.fused_nodes, 1);
  EXPECT_EQ(s.fused_ops_eliminated, stats.fused_ops_eliminated);
  // The plan (and its fusion) is cached: a second run compiles nothing new.
  ASSERT_TRUE(session->Run("A + B * C - A").ok());
  EXPECT_EQ(session->stats().fused_nodes, 1);
}

TEST(SessionThreadsTest, NonViableCandidatesDoNotDefuseHotQueries) {
  Rng rng(59);
  // Every candidate is over budget: not viable.
  auto session = api::SessionBuilder()
                     .Put("A", matrix::RandomDense(rng, 100, 80))
                     .Put("B", matrix::RandomDense(rng, 100, 80))
                     .Put("C", matrix::RandomDense(rng, 100, 80))
                     .Threads(1)
                     .AdaptiveViews(/*budget_bytes=*/1, /*min_hits=*/2)
                     .Build()
                     .value();
  const std::string text = "A + B * C - A";
  ExecStats stats;
  for (int run = 0; run < 4; ++run) {
    stats = ExecStats();
    ASSERT_TRUE(session->Run(text, &stats).ok());
    session->WaitForAdaptiveViews();
    // An adaptive session fuses like a plain one: subexpressions that can
    // never materialize do not cost the hot query its fusion win, and the
    // cached DAG serves every run.
    EXPECT_EQ(stats.fused_nodes, 1) << "run " << run;
    EXPECT_EQ(session->stats().compiled_plans, 1) << "run " << run;
  }
}

TEST(SessionThreadsTest, ViewsResolveUnderDagEngine) {
  Rng rng(43);
  auto session = api::SessionBuilder()
                     .Put("X", matrix::RandomDense(rng, 120, 80))
                     .AddView("V", "t(X) %*% X")
                     .Threads(2)
                     .Build()
                     .value();
  Result<Matrix> out = session->Run("V %*% t(X)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rows(), 80);
  EXPECT_EQ(out->cols(), 120);
}

}  // namespace
}  // namespace hadad::exec
