// The paper's extensibility contract (§1, §6): teaching HADAD a new LA
// property means *declaring* a constraint — no engine changes. These tests
// add knowledge at runtime via Optimizer::AddConstraints and watch the
// rewriting appear.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chase/ast.h"
#include "common/rng.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/parser.h"
#include "la/vrem.h"
#include "matrix/generate.h"
#include "pacb/optimizer.h"
#include "reference_evaluator.h"

namespace hadad {
namespace {

using chase::MakeAtom;
using chase::MakeEgd;
using chase::MakeTgd;
using chase::Var;

la::MetaCatalog Catalog() {
  la::MetaCatalog c;
  c["A"] = {.rows = 2000, .cols = 100, .nnz = 200000};
  c["C"] = {.rows = 200, .cols = 200, .nnz = 40000};
  return c;
}

// rev(rev(M)) = M is true but deliberately absent from the built-in
// catalogs — declaring it as a TGD makes HADAD exploit it.
TEST(ExtensibilityTest, DeclaredInvolutionIsExploited) {
  {
    pacb::Optimizer without(Catalog());
    auto r = without.OptimizeText("rev(rev(A))");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(la::ToString(r->best), "rev(rev(A))");
  }
  pacb::Optimizer with(Catalog());
  ASSERT_TRUE(with.AddConstraints({MakeTgd(
      "user:rev-involution",
      {MakeAtom(la::vrem::kRev, {Var("M"), Var("R")})},
      {MakeAtom(la::vrem::kRev, {Var("R"), Var("M")})})}).ok());
  auto r = with.OptimizeText("rev(rev(A))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "A");
  EXPECT_DOUBLE_EQ(r->best_cost, 0.0);
}

// A user-declared EGD can collapse classes: rev on a symmetric-use-case
// (here: declare that rev(rev(M)) merges back via an EGD on a helper
// relation chain is overkill; instead declare trace(rev(M)) = trace(M),
// another true identity the built-ins omit).
TEST(ExtensibilityTest, DeclaredAggregateRuleIsExploited) {
  pacb::Optimizer with(Catalog());
  ASSERT_TRUE(with.AddConstraints({MakeTgd(
      "user:trace-rev",
      {MakeAtom(la::vrem::kRev, {Var("M"), Var("R1")}),
       MakeAtom(la::vrem::kTrace, {Var("R1"), Var("s")})},
      {MakeAtom(la::vrem::kTrace, {Var("M"), Var("s")})})}).ok());
  // trace(rev(C)) is NOT trace(C) in general — this test only checks the
  // machinery applies whatever the user declares; semantic responsibility
  // stays with the declarer (the paper's contract as well).
  auto r = with.OptimizeText("trace(rev(C))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "trace(C)");
}

// The same declaration path drives rewriting *and* verification: a sound
// user rule (sum(rev) collapse already built in) must keep the oracle
// green end to end.
TEST(ExtensibilityTest, SoundUserRulePreservesSemantics) {
  Rng rng(5);
  engine::Workspace ws;
  ws.Put("A", matrix::RandomDense(rng, 50, 20));
  pacb::Optimizer opt(ws.BuildMetaCatalog());
  ASSERT_TRUE(opt.AddConstraints({MakeTgd(
      "user:rev-involution",
      {MakeAtom(la::vrem::kRev, {Var("M"), Var("R")})},
      {MakeAtom(la::vrem::kRev, {Var("R"), Var("M")})})}).ok());
  auto r = opt.OptimizeText("sum(rev(rev(A)) + A)");
  ASSERT_TRUE(r.ok());
  auto original = reference::Evaluate(
      *la::ParseExpression("sum(rev(rev(A)) + A)").value(), ws);
  auto rewritten = reference::Evaluate(*r->best, ws);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(original->ApproxEquals(*rewritten, 1e-9));
}

// A declared constraint longer than the chase matches (32 atoms) is
// rejected when registered, naming it, and none of the batch is added.
TEST(ExtensibilityTest, OverlongConstraintIsRejectedAtRegistration) {
  std::vector<chase::Atom> premise;
  for (int i = 0; i <= 32; ++i) {
    premise.push_back(MakeAtom(
        la::vrem::kTr, {Var("M" + std::to_string(i)),
                        Var("M" + std::to_string(i + 1))}));
  }
  pacb::Optimizer opt(Catalog());
  Status st = opt.AddConstraints(
      {MakeTgd("user:rev-involution",
               {MakeAtom(la::vrem::kRev, {Var("M"), Var("R")})},
               {MakeAtom(la::vrem::kRev, {Var("R"), Var("M")})}),
       MakeTgd("user:too-long", premise,
               {MakeAtom(la::vrem::kTr, {Var("M0"), Var("M33")})})});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("user:too-long"), std::string::npos)
      << st.ToString();
  // The valid constraint in the rejected batch was not added either.
  auto r = opt.OptimizeText("rev(rev(A))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::ToString(r->best), "rev(rev(A))");
}

}  // namespace
}  // namespace hadad
