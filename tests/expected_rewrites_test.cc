#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/data.h"
#include "core/workloads.h"
#include "cost/cost_model.h"
#include "engine/evaluator.h"
#include "engine/view_catalog.h"
#include "la/parser.h"
#include "pacb/optimizer.h"

namespace hadad::core {
namespace {

// Shrunken bindings so all 57 optimizations + executions stay fast.
LaBenchConfig TestConfig() {
  LaBenchConfig config;
  config.n_a = 1500;
  config.n_m = 300;
  config.k = 40;
  config.n_c = 64;
  config.n_r = 40;
  config.x_rows = 400;
  config.x_cols = 250;
  return config;
}

class LaBenchmarkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2024);
    workspace_ = new engine::Workspace(MakeLaBenchWorkspace(rng, TestConfig()));
    optimizer_ = new pacb::Optimizer(workspace_->BuildMetaCatalog());
    optimizer_->SetData(&workspace_->data());
    pacb::OptimizerOptions mnc;
    mnc.estimator = pacb::EstimatorKind::kMnc;
    mnc_optimizer_ = new pacb::Optimizer(workspace_->BuildMetaCatalog(), mnc);
    mnc_optimizer_->SetData(&workspace_->data());
  }
  static void TearDownTestSuite() {
    delete mnc_optimizer_;
    delete optimizer_;
    delete workspace_;
    mnc_optimizer_ = nullptr;
    optimizer_ = nullptr;
    workspace_ = nullptr;
  }

  static engine::Workspace* workspace_;
  static pacb::Optimizer* optimizer_;      // Naive estimator.
  static pacb::Optimizer* mnc_optimizer_;  // MNC estimator.
};

engine::Workspace* LaBenchmarkTest::workspace_ = nullptr;
pacb::Optimizer* LaBenchmarkTest::optimizer_ = nullptr;
pacb::Optimizer* LaBenchmarkTest::mnc_optimizer_ = nullptr;

// One golden line: everything RW_find decides for one pipeline under one
// estimator. Costs print at full precision, so any change to the chase, the
// cost model or the decoder that moves a result shows up as a diff.
std::string GoldenLine(const Pipeline& p, const char* estimator,
                       const pacb::RewriteResult& r) {
  const chase::ChaseStats& s = r.chase_stats;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s %s best_cost=%.17g original_cost=%.17g improved=%d "
                "rounds=%d tgd_applications=%lld facts_added=%lld "
                "merges=%lld pruned_applications=%lld budget_exhausted=%d "
                "stalled=%d best=",
                p.id.c_str(), estimator, r.best_cost, r.original_cost,
                r.improved ? 1 : 0, s.rounds,
                static_cast<long long>(s.tgd_applications),
                static_cast<long long>(s.facts_added),
                static_cast<long long>(s.merges),
                static_cast<long long>(s.pruned_applications),
                s.budget_exhausted ? 1 : 0, s.stalled ? 1 : 0);
  return buf + la::ToString(r.best);
}

TEST_F(LaBenchmarkTest, BenchmarkHasAll57Pipelines) {
  EXPECT_EQ(LaBenchmark().size(), 57u);
  int not_opt = 0;
  for (const Pipeline& p : LaBenchmark()) {
    if (p.cls == PipelineClass::kNotOpt) ++not_opt;
  }
  EXPECT_EQ(not_opt, 38);  // §9.1's P¬Opt count.
  EXPECT_NE(FindPipeline("P2.21"), nullptr);
  EXPECT_EQ(FindPipeline("P9.99"), nullptr);
}

TEST_F(LaBenchmarkTest, AllPipelinesParseAndTypeCheck) {
  la::MetaCatalog catalog = workspace_->BuildMetaCatalog();
  for (const Pipeline& p : LaBenchmark()) {
    auto expr = la::ParseExpression(p.text);
    ASSERT_TRUE(expr.ok()) << p.id << ": " << p.text;
    EXPECT_TRUE(la::InferShape(**expr, catalog).ok()) << p.id;
    if (!p.expected_rewrite.empty()) {
      auto rw = la::ParseExpression(p.expected_rewrite);
      ASSERT_TRUE(rw.ok()) << p.id << " rewrite";
      EXPECT_TRUE(la::InferShape(**rw, catalog).ok()) << p.id << " rewrite";
    }
  }
}

// Tables 12/13: on every P¬Opt pipeline HADAD's rewriting must be at least
// as cheap as the rewriting the paper reports, and semantically equal to
// the original on real data.
TEST_F(LaBenchmarkTest, NotOptPipelinesMatchOrBeatPaperRewrites) {
  cost::NaiveMetadataEstimator estimator;
  la::MetaCatalog catalog = workspace_->BuildMetaCatalog();
  for (const Pipeline& p : LaBenchmark()) {
    if (p.cls != PipelineClass::kNotOpt) continue;
    auto r = optimizer_->OptimizeText(p.text);
    ASSERT_TRUE(r.ok()) << p.id << ": " << r.status().ToString();
    EXPECT_TRUE(r->improved) << p.id << " found no rewriting";
    if (!p.expected_rewrite.empty()) {
      auto expected = la::ParseExpression(p.expected_rewrite).value();
      auto expected_cost = cost::EstimateExpression(
          *expected, catalog, estimator, &workspace_->data());
      ASSERT_TRUE(expected_cost.ok()) << p.id;
      EXPECT_LE(r->best_cost, expected_cost->cost * 1.0001 + 1.0)
          << p.id << ": best " << la::ToString(r->best) << " vs paper "
          << p.expected_rewrite;
    }
    // Semantics: original and rewriting agree on the actual matrices.
    auto original_value = engine::Execute(
        *la::ParseExpression(p.text).value(), *workspace_);
    ASSERT_TRUE(original_value.ok()) << p.id;
    auto rewrite_value = engine::Execute(*r->best, *workspace_);
    ASSERT_TRUE(rewrite_value.ok())
        << p.id << " -> " << la::ToString(r->best);
    EXPECT_TRUE(original_value->ApproxEquals(*rewrite_value, 1e-5))
        << p.id << " -> " << la::ToString(r->best);
  }
}

// P_Opt pipelines are already optimal: HADAD must not make them worse, and
// its result must stay semantically equal.
TEST_F(LaBenchmarkTest, OptPipelinesNeverRegress) {
  for (const Pipeline& p : LaBenchmark()) {
    if (p.cls != PipelineClass::kOpt) continue;
    auto r = optimizer_->OptimizeText(p.text);
    ASSERT_TRUE(r.ok()) << p.id << ": " << r.status().ToString();
    EXPECT_LE(r->best_cost, r->original_cost + 1e-6) << p.id;
    auto original_value = engine::Execute(
        *la::ParseExpression(p.text).value(), *workspace_);
    ASSERT_TRUE(original_value.ok()) << p.id;
    auto rewrite_value = engine::Execute(*r->best, *workspace_);
    ASSERT_TRUE(rewrite_value.ok())
        << p.id << " -> " << la::ToString(r->best);
    EXPECT_TRUE(original_value->ApproxEquals(*rewrite_value, 1e-5))
        << p.id << " -> " << la::ToString(r->best);
  }
}

// Derives one pipeline's rewrite from its text.
using RewriteFn =
    std::function<Result<pacb::RewriteResult>(const std::string& text)>;

// ROADMAP item 2's invariant: for every pipeline under both estimators, the
// chosen rewriting, both costs, `improved` and the chase statistics match
// the golden file `path` line for line. Optimizer speed-ups must not move
// any of them.
void ExpectGoldenRewrites(const char* path, const RewriteFn& naive,
                          const RewriteFn& mnc) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), 2 * LaBenchmark().size());
  size_t i = 0;
  for (const auto& [name, rewrite] :
       {std::pair<const char*, const RewriteFn*>{"naive", &naive},
        {"mnc", &mnc}}) {
    for (const Pipeline& p : LaBenchmark()) {
      auto r = (*rewrite)(p.text);
      ASSERT_TRUE(r.ok()) << p.id << ": " << r.status().ToString();
      EXPECT_EQ(GoldenLine(p, name, *r), golden[i]) << p.id << " " << name;
      ++i;
    }
  }
}

TEST_F(LaBenchmarkTest, RewritesMatchGoldenFile) {
  ExpectGoldenRewrites(
      HADAD_GOLDEN_REWRITES,
      [](const std::string& text) { return optimizer_->OptimizeText(text); },
      [](const std::string& text) {
        return mnc_optimizer_->OptimizeText(text);
      });
}

// The same lines through api::Session, which registers only shapes with its
// optimizer: every statistic comes from the data the optimizer is bound to.
TEST_F(LaBenchmarkTest, SessionRewritesMatchGoldenFile) {
  auto build = [](pacb::EstimatorKind kind) {
    api::SessionBuilder builder;
    for (const auto& [name, m] : workspace_->data()) builder.Put(name, *m);
    return builder.SetEstimator(kind).Build();
  };
  auto naive = build(pacb::EstimatorKind::kNaive);
  auto mnc = build(pacb::EstimatorKind::kMnc);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(mnc.ok()) << mnc.status().ToString();
  auto via = [](const api::Session& session) -> RewriteFn {
    return [&session](const std::string& text)
               -> Result<pacb::RewriteResult> {
      HADAD_ASSIGN_OR_RETURN(api::PreparedQuery query, session.Prepare(text));
      return query.rewrite();
    };
  };
  ExpectGoldenRewrites(HADAD_GOLDEN_REWRITES, via(**naive), via(**mnc));
}

// Table 15's setting: the TestConfig workspace with every V_exp view
// materialized into it.
engine::Workspace VexpWorkspace() {
  Rng rng(77);
  engine::Workspace workspace = MakeLaBenchWorkspace(rng, TestConfig());
  engine::ViewCatalog views(&workspace);
  for (const ViewSpec& v : VexpViews()) {
    Status st = views.MaterializeText(v.name, v.definition);
    HADAD_CHECK_MSG(st.ok(), v.name.c_str());
  }
  return workspace;
}

// An optimizer over the base matrices of `workspace` (a VexpWorkspace) with
// every V_exp view registered by its definition.
std::unique_ptr<pacb::Optimizer> VexpOptimizer(
    const engine::Workspace& workspace, pacb::EstimatorKind estimator) {
  la::MetaCatalog base_catalog = workspace.BuildMetaCatalog();
  for (const ViewSpec& v : VexpViews()) base_catalog.erase(v.name);
  pacb::OptimizerOptions options;
  options.estimator = estimator;
  auto optimizer = std::make_unique<pacb::Optimizer>(base_catalog, options);
  optimizer->SetData(&workspace.data());
  for (const ViewSpec& v : VexpViews()) {
    Status st = optimizer->AddViewText(v.name, v.definition);
    HADAD_CHECK_MSG(st.ok(), v.name.c_str());
  }
  return optimizer;
}

// Table 15: with V_exp materialized, HADAD's rewriting must be at least as
// cheap as the paper's views-based rewriting, and evaluate to the same
// value through the materialized views.
TEST(VexpViewsTest, Table15RewritesMatchedOrBeaten) {
  const engine::Workspace workspace = VexpWorkspace();
  const auto optimizer =
      VexpOptimizer(workspace, pacb::EstimatorKind::kNaive);
  cost::NaiveMetadataEstimator estimator;
  int views_used = 0;
  for (const ViewRewrite& vr : Table15Rewrites()) {
    const Pipeline* p = FindPipeline(vr.pipeline_id);
    ASSERT_NE(p, nullptr) << vr.pipeline_id;
    auto r = optimizer->OptimizeText(p->text);
    ASSERT_TRUE(r.ok()) << p->id << ": " << r.status().ToString();
    auto expected = la::ParseExpression(vr.rewrite);
    ASSERT_TRUE(expected.ok()) << p->id;
    auto expected_cost = cost::EstimateExpression(
        **expected, optimizer->catalog(), estimator, &workspace.data());
    ASSERT_TRUE(expected_cost.ok()) << p->id << ": " << vr.rewrite;
    EXPECT_LE(r->best_cost, expected_cost->cost * 1.0001 + 1.0)
        << p->id << ": best " << la::ToString(r->best) << " vs paper "
        << vr.rewrite;
    if (la::ToString(r->best).find('V') != std::string::npos) ++views_used;
    // Execute through the materialized views.
    auto original_value = engine::Execute(
        *la::ParseExpression(p->text).value(), workspace);
    auto rewrite_value = engine::Execute(*r->best, workspace);
    ASSERT_TRUE(rewrite_value.ok())
        << p->id << " -> " << la::ToString(r->best);
    EXPECT_TRUE(original_value->ApproxEquals(*rewrite_value, 1e-4))
        << p->id << " -> " << la::ToString(r->best);
  }
  // Most Table 15 pipelines should actually reach a view.
  EXPECT_GE(views_used, static_cast<int>(Table15Rewrites().size() / 2));
}

// The rewrites served with V_exp registered, pinned like the plain ones to
// tests/golden_rewrites_views.txt: view constraints make the largest
// chases, and this is the setting a session with views serves from.
TEST(VexpViewsTest, ViewRewritesMatchGoldenFile) {
  const engine::Workspace workspace = VexpWorkspace();
  const auto naive = VexpOptimizer(workspace, pacb::EstimatorKind::kNaive);
  const auto mnc = VexpOptimizer(workspace, pacb::EstimatorKind::kMnc);
  ExpectGoldenRewrites(
      HADAD_GOLDEN_REWRITES_VIEWS,
      [&naive](const std::string& text) { return naive->OptimizeText(text); },
      [&mnc](const std::string& text) { return mnc->OptimizeText(text); });
}

}  // namespace
}  // namespace hadad::core
