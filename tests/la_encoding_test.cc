#include "la/encoder.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "la/catalog.h"
#include "la/parser.h"
#include "la/vrem.h"

namespace hadad::la {
namespace {

MetaCatalog TestCatalog() {
  MetaCatalog catalog;
  catalog["M"] = {.rows = 50, .cols = 10, .nnz = 500};
  catalog["N"] = {.rows = 10, .cols = 50, .nnz = 500};
  catalog["C"] = {.rows = 20, .cols = 20, .nnz = 400};
  catalog["y"] = {.rows = 50, .cols = 1, .nnz = 50};
  return catalog;
}

ExprPtr Parse(const std::string& s) {
  auto r = ParseExpression(s);
  HADAD_CHECK(r.ok());
  return r.value();
}

int CountAtoms(const EncodedExpr& enc, const std::string& pred) {
  int n = 0;
  for (const chase::Atom& a : enc.query.body) {
    if (a.predicate == pred) ++n;
  }
  return n;
}

TEST(EncoderTest, Example61TransposedProduct) {
  // The paper's Example 6.1: enc((MN)^T) = tr(R1,R2) ∧ multiM(M,N,R1) ∧
  // name(M,"M") ∧ name(N,"N").
  auto enc = EncodeExpression(*Parse("t(M %*% N)"), TestCatalog());
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->query.body.size(), 4u);
  EXPECT_EQ(CountAtoms(*enc, vrem::kName), 2);
  EXPECT_EQ(CountAtoms(*enc, vrem::kMultiM), 1);
  EXPECT_EQ(CountAtoms(*enc, vrem::kTr), 1);
  EXPECT_EQ(enc->query.head.size(), 1u);
  // Head variable is the transpose's output.
  const chase::Atom* tr_atom = nullptr;
  for (const chase::Atom& a : enc->query.body) {
    if (a.predicate == vrem::kTr) tr_atom = &a;
  }
  ASSERT_NE(tr_atom, nullptr);
  EXPECT_EQ(tr_atom->args[1].text, enc->root_var);
}

TEST(EncoderTest, SharedSubexpressionsShareVariables) {
  // det(C)*det(C): the two det(C) occurrences must encode to one variable.
  auto enc = EncodeExpression(*Parse("det(C) * det(C)"), TestCatalog());
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(CountAtoms(*enc, vrem::kDet), 1);
  EXPECT_EQ(CountAtoms(*enc, vrem::kMultiS), 1);
}

TEST(EncoderTest, ScalarFlavoringPicksRelations) {
  MetaCatalog catalog = TestCatalog();
  // Scalar times matrix -> multiMS with the scalar first.
  auto e1 = EncodeExpression(*Parse("3 * M"), catalog);
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(CountAtoms(*e1, vrem::kMultiMS), 1);
  EXPECT_EQ(CountAtoms(*e1, vrem::kSconst), 1);
  // Matrix times scalar (either operator spelling) also -> multiMS.
  auto e2 = EncodeExpression(*Parse("M * 3"), catalog);
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(CountAtoms(*e2, vrem::kMultiMS), 1);
  // Scalar-scalar product -> multiS; scalar-scalar sum -> addS.
  auto e3 = EncodeExpression(*Parse("det(C) * trace(C)"), catalog);
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(CountAtoms(*e3, vrem::kMultiS), 1);
  auto e4 = EncodeExpression(*Parse("det(C) + trace(C)"), catalog);
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(CountAtoms(*e4, vrem::kAddS), 1);
  // Matrix-matrix everything.
  auto e5 = EncodeExpression(*Parse("M %*% N"), catalog);
  ASSERT_TRUE(e5.ok());
  EXPECT_EQ(CountAtoms(*e5, vrem::kMultiM), 1);
}

TEST(EncoderTest, HadamardVsScalar) {
  MetaCatalog catalog = TestCatalog();
  catalog["M2"] = {.rows = 50, .cols = 10, .nnz = 250};
  auto e = EncodeExpression(*Parse("M * M2"), catalog);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(CountAtoms(*e, vrem::kMultiE), 1);
}

TEST(EncoderTest, MetadataRecordedPerVariable) {
  auto enc = EncodeExpression(*Parse("t(M) %*% y"), TestCatalog());
  ASSERT_TRUE(enc.ok());
  const MatrixMeta& root = enc->var_meta.at(enc->root_var);
  EXPECT_EQ(root.rows, 10);
  EXPECT_EQ(root.cols, 1);
}

TEST(EncoderTest, InvalidExpressionFailsEncoding) {
  EXPECT_FALSE(EncodeExpression(*Parse("M %*% M"), TestCatalog()).ok());
  EXPECT_FALSE(EncodeExpression(*Parse("Zz"), TestCatalog()).ok());
}

TEST(CatalogTest, FamiliesAreNonEmptyAndWellFormed) {
  for (const auto& family :
       {MmcCoreKeys(), MmcFunctionalKeys(), MmcLaProperties(),
        MmcDecompositions(), MmcStatAgg(), MorpheusRules()}) {
    EXPECT_FALSE(family.empty());
    for (const chase::Constraint& c : family) {
      EXPECT_FALSE(c.name.empty());
      EXPECT_FALSE(c.premise.empty()) << c.name;
      if (c.kind == chase::Constraint::Kind::kTgd) {
        EXPECT_FALSE(c.conclusion.empty()) << c.name;
      } else {
        EXPECT_FALSE(c.equalities.empty()) << c.name;
      }
    }
  }
}

TEST(CatalogTest, BuildMmcConcatenatesTheSixFamilies) {
  std::vector<std::string> expected;
  for (const std::vector<chase::Constraint>& family :
       {MmcCoreKeys(), MmcFunctionalKeys(), MmcLaProperties(),
        MmcDecompositions(), MmcStatAgg(), MorpheusRules()}) {
    for (const chase::Constraint& c : family) {
      expected.push_back(chase::ToString(c));
    }
  }
  std::vector<std::string> built;
  for (const chase::Constraint& c : BuildMmc()) {
    built.push_back(chase::ToString(c));
  }
  EXPECT_EQ(built, expected);
  EXPECT_EQ(SharedMmc().size(), expected.size());
}

TEST(CatalogTest, EqualityRulesComeInBothDirections) {
  int forward = 0, backward = 0;
  for (const chase::Constraint& c : MmcLaProperties()) {
    if (c.name.ends_with(">")) ++forward;
    if (c.name.ends_with("<")) ++backward;
  }
  EXPECT_EQ(forward, backward);
  EXPECT_GT(forward, 10);
}

TEST(ViewEncodingTest, ProducesIoOiPair) {
  // The paper's Figure 3 view: V = t(N) + inv(t(M)).
  MetaCatalog catalog;
  catalog["M"] = {.rows = 20, .cols = 20, .nnz = 400};
  catalog["N"] = {.rows = 20, .cols = 20, .nnz = 400};
  auto constraints =
      EncodeViewConstraints("V", *Parse("t(N) + inv(t(M))"), catalog);
  ASSERT_TRUE(constraints.ok());
  ASSERT_EQ(constraints->size(), 2u);
  const chase::Constraint& io = (*constraints)[0];
  const chase::Constraint& oi = (*constraints)[1];
  // IO: body pattern → name(root, "V").
  EXPECT_EQ(io.conclusion.size(), 1u);
  EXPECT_EQ(io.conclusion[0].predicate, vrem::kName);
  EXPECT_EQ(io.conclusion[0].args[1].text, "V");
  // OI: name(root, "V") → body pattern.
  EXPECT_EQ(oi.premise.size(), 1u);
  EXPECT_EQ(oi.premise[0].predicate, vrem::kName);
  EXPECT_GE(oi.conclusion.size(), 4u);
}

TEST(ViewEncodingTest, InvalidViewDefinitionFails) {
  MetaCatalog catalog;
  catalog["M"] = {.rows = 20, .cols = 10, .nnz = 200};
  EXPECT_FALSE(EncodeViewConstraints("V", *Parse("inv(M)"), catalog).ok());
}

}  // namespace
}  // namespace hadad::la
