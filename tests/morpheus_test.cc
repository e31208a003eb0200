#include "morpheus/engine.h"

#include <gtest/gtest.h>

#include "api/session.h"
#include "common/check.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "morpheus/generator.h"
#include "reference_evaluator.h"

namespace hadad::morpheus {
namespace {

la::ExprPtr Parse(const std::string& s) {
  auto r = la::ParseExpression(s);
  HADAD_CHECK_MSG(r.ok(), s.c_str());
  return r.value();
}

NormalizedMatrix SmallNm(uint64_t seed = 3) {
  Rng rng(seed);
  PkFkConfig config;
  config.n_r = 40;
  config.d_s = 5;
  config.tuple_ratio = 4.0;   // nS = 160.
  config.feature_ratio = 2.0; // dR = 10.
  return GeneratePkFk(rng, config);
}

TEST(NormalizedMatrixTest, ShapeAndMaterialization) {
  NormalizedMatrix nm = SmallNm();
  EXPECT_EQ(nm.rows(), 160);
  EXPECT_EQ(nm.cols(), 15);
  auto m = nm.Materialize();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 160);
  EXPECT_EQ(m->cols(), 15);
  // Every K row has exactly one 1 (PK-FK).
  matrix::Matrix rs = matrix::RowSums(nm.k());
  for (int64_t i = 0; i < rs.rows(); ++i) {
    EXPECT_DOUBLE_EQ(rs.At(i, 0), 1.0);
  }
}

TEST(NormalizedMatrixTest, FactorizedOpsMatchMaterialized) {
  NormalizedMatrix nm = SmallNm();
  matrix::Matrix m = nm.Materialize().value();
  Rng rng(9);
  // Right multiply.
  matrix::Matrix n = matrix::RandomDense(rng, nm.cols(), 7);
  EXPECT_TRUE(nm.RightMultiply(n)->ApproxEquals(
      matrix::Multiply(m, n).value(), 1e-9));
  // Left multiply.
  matrix::Matrix c = matrix::RandomDense(rng, 6, nm.rows());
  EXPECT_TRUE(nm.LeftMultiply(c)->ApproxEquals(
      matrix::Multiply(c, m).value(), 1e-9));
  // Aggregates.
  EXPECT_TRUE(nm.ColSums()->ApproxEquals(matrix::ColSums(m), 1e-9));
  EXPECT_TRUE(nm.RowSums()->ApproxEquals(matrix::RowSums(m), 1e-9));
  EXPECT_NEAR(nm.Sum().value(), matrix::Sum(m), 1e-7);
}

TEST(NormalizedMatrixTest, DimensionErrors) {
  NormalizedMatrix nm = SmallNm();
  Rng rng(1);
  matrix::Matrix bad = matrix::RandomDense(rng, nm.cols() + 1, 3);
  EXPECT_FALSE(nm.RightMultiply(bad).ok());
  EXPECT_FALSE(nm.LeftMultiply(bad).ok());
}

// Factorized execution through api::Session: normalized M lives in the
// session's registry and every pushdown runs as an nm_* DAG kernel. The
// oracle is the tree evaluator over the materialized M.
class MorpheusSessionTest : public ::testing::Test {
 protected:
  MorpheusSessionTest() {
    Rng rng(21);
    n_ = matrix::RandomDense(rng, 15, 9);
    x_ = matrix::RandomDense(rng, 9, 160);
    e_ = matrix::RandomDense(rng, 160, 15);
    plain_.Put("M", SmallNm().Materialize().value());
    plain_.Put("N", n_);
    plain_.Put("X", x_);
    plain_.Put("E", e_);
  }

  std::shared_ptr<api::Session> Factorized(
      int threads = 1, engine::Profile profile = engine::Profile::kNaive) {
    auto session = api::SessionBuilder()
                       .AddNormalizedMatrix("M", SmallNm())
                       .Put("N", n_)
                       .Put("X", x_)
                       .Put("E", e_)
                       .Threads(threads)
                       .SetProfile(profile)
                       .Build();
    HADAD_CHECK_MSG(session.ok(), session.status().ToString().c_str());
    return *session;
  }

  matrix::Matrix Plain(const std::string& text) {
    auto out = reference::Evaluate(*Parse(text), plain_);
    HADAD_CHECK_MSG(out.ok(), text.c_str());
    return *out;
  }

  // The pipeline as stated on the session's DAG route.
  static matrix::Matrix AsStated(api::Session& session,
                                 const std::string& text,
                                 engine::ExecStats* stats = nullptr) {
    auto prepared = session.Prepare(text);
    HADAD_CHECK_MSG(prepared.ok(), text.c_str());
    auto out = prepared->ExecuteOriginal(stats);
    HADAD_CHECK_MSG(out.ok(), out.status().ToString().c_str());
    return *out;
  }

  static std::string CompiledText(const api::Session& session,
                                  const std::string& text) {
    auto compiled =
        session.executor()->Compile(Parse(text), session.workspace());
    HADAD_CHECK_MSG(compiled.ok(), compiled.status().ToString().c_str());
    return compiled->ToString();
  }

  matrix::Matrix n_, x_, e_;
  engine::Workspace plain_;
};

struct PushdownCase {
  const char* text;    // Over normalized M (oracle: materialized M).
  const char* kernel;  // The nm_* kernel the pattern compiles to.
};

const PushdownCase kPushdownCases[] = {
    {"colSums(M)", "nm_colsums"},
    {"rowSums(M)", "nm_rowsums"},
    {"sum(M)", "nm_sum"},
    {"M %*% N", "nm_right_multiply"},
    {"X %*% M", "nm_left_multiply"},
    {"colSums(t(M))", "nm_rowsums"},
    {"rowSums(t(M))", "nm_colsums"},
    {"sum(t(M))", "nm_sum"},
    {"t(M) %*% t(X)", "nm_left_multiply"},
    {"colSums(M %*% N)", "nm_right_multiply"},
    {"sum(rowSums(M))", "nm_rowsums"},
    {"sum(M %*% N + M %*% N)", "nm_right_multiply"},
};

TEST_F(MorpheusSessionTest, PushdownPatternsMatchPlainEvaluation) {
  auto session = Factorized();
  for (const PushdownCase& c : kPushdownCases) {
    EXPECT_TRUE(AsStated(*session, c.text).ApproxEquals(Plain(c.text), 1e-8))
        << c.text;
  }
}

TEST_F(MorpheusSessionTest, PushdownPatternsCompileToNmKernels) {
  auto session = Factorized();
  for (const PushdownCase& c : kPushdownCases) {
    const std::string plan = CompiledText(*session, c.text);
    EXPECT_NE(plan.find(std::string("[") + c.kernel + "]"), std::string::npos)
        << c.text << "\n" << plan;
    // A pushdown never materializes M.
    EXPECT_EQ(plan.find("nm_materialize"), std::string::npos)
        << c.text << "\n" << plan;
  }
}

TEST_F(MorpheusSessionTest, BitIdenticalAcrossThreadCounts) {
  auto one = Factorized(1);
  for (int threads : {2, 4}) {
    auto many = Factorized(threads);
    for (const PushdownCase& c : kPushdownCases) {
      const matrix::Matrix want = AsStated(*one, c.text);
      const matrix::Matrix got = AsStated(*many, c.text);
      ASSERT_EQ(want.rows(), got.rows()) << c.text;
      ASSERT_EQ(want.cols(), got.cols()) << c.text;
      for (int64_t i = 0; i < want.rows(); ++i) {
        for (int64_t j = 0; j < want.cols(); ++j) {
          ASSERT_EQ(want.At(i, j), got.At(i, j))
              << c.text << " at " << threads << " threads";
        }
      }
    }
  }
}

TEST_F(MorpheusSessionTest, FactorizedAggregateAvoidsMaterialization) {
  // colSums(M) factorized touches only T, K, U — the intermediate stats
  // must be far below materializing M (160x15).
  auto session = Factorized();
  engine::ExecStats factorized_stats;
  AsStated(*session, "colSums(M)", &factorized_stats);
  EXPECT_LT(factorized_stats.intermediate_nnz, 100.0);
}

TEST_F(MorpheusSessionTest, ElementwiseOpsMaterialize) {
  // Morpheus does not factorize element-wise operations (P2.11): E + M
  // materializes M. The value must still be correct.
  auto session = Factorized();
  EXPECT_NE(CompiledText(*session, "sum(E + M)").find("[nm_materialize]"),
            std::string::npos);
  EXPECT_NEAR(AsStated(*session, "sum(E + M)").ScalarValue(),
              Plain("sum(E + M)").ScalarValue(), 1e-7);
}

TEST_F(MorpheusSessionTest, HadadRewriteEnablesBetterPushdown) {
  // The §2 example: colSums(M N) runs the factorized multiply first
  // (intermediate nS x 9), while HADAD's rewriting colSums(M) N enables the
  // colSums pushdown (intermediate 1 x 15): far smaller intermediates, same
  // value.
  auto session = Factorized();
  engine::ExecStats original_stats;
  const matrix::Matrix original =
      AsStated(*session, "colSums(M %*% N)", &original_stats);
  engine::ExecStats rewrite_stats;
  const matrix::Matrix rewrite =
      AsStated(*session, "colSums(M) %*% N", &rewrite_stats);
  EXPECT_TRUE(original.ApproxEquals(rewrite, 1e-8));
  EXPECT_LT(rewrite_stats.intermediate_nnz,
            original_stats.intermediate_nnz / 10);
}

TEST_F(MorpheusSessionTest, ExplainAnalyzeRendersFactorizedDag) {
  auto session = Factorized(2);
  auto prepared = session->Prepare("colSums(M %*% N)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto report = prepared->ExplainAnalyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rfind("EXPLAIN ANALYZE  (", 0), 0u) << *report;
  EXPECT_NE(report->find("[nm_"), std::string::npos) << *report;
  EXPECT_NE(report->find("2 threads"), std::string::npos) << *report;
}

TEST_F(MorpheusSessionTest, SmartProfileRunsChainOverNormalizedMatrix) {
  // kSmart reorders the three-factor chain; its planner must see M's
  // shape, which lives in the registry rather than the workspace.
  auto session = Factorized(1, engine::Profile::kSmart);
  const std::string chain = "X %*% M %*% N";
  auto run = session->Run(chain);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->ApproxEquals(Plain(chain), 1e-8));
  EXPECT_TRUE(AsStated(*session, chain).ApproxEquals(Plain(chain), 1e-8));
}

TEST(GeneratorTest, RespectsRatios) {
  Rng rng(7);
  PkFkConfig config;
  config.n_r = 100;
  config.d_s = 4;
  config.tuple_ratio = 3.0;
  config.feature_ratio = 5.0;
  NormalizedMatrix nm = GeneratePkFk(rng, config);
  EXPECT_EQ(nm.rows(), 300);
  EXPECT_EQ(nm.t().cols(), 4);
  EXPECT_EQ(nm.u().cols(), 20);
  EXPECT_EQ(nm.k().cols(), 100);
  EXPECT_TRUE(nm.k().is_sparse());
}

}  // namespace
}  // namespace hadad::morpheus
