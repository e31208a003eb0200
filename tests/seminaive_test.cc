// Semi-naive matching and the argument-position join index: the fast paths
// must produce exactly the matches the naive enumeration produces.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "chase/engine.h"
#include "chase/homomorphism.h"
#include "common/rng.h"

namespace hadad::chase {
namespace {

// Builds a random edge relation and compares full enumeration against the
// pivot-decomposed ranged enumeration used by semi-naive rounds.
TEST(RangedMatchingTest, PivotDecompositionCoversExactlyNewMatches) {
  Rng rng(3);
  Instance inst;
  int32_t e = inst.InternPredicate("edge");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 12; ++i) nodes.push_back(inst.FreshNull());
  auto add_edges = [&](int count) {
    for (int i = 0; i < count; ++i) {
      inst.AddFact(e,
                   {nodes[rng.NextBelow(nodes.size())],
                    nodes[rng.NextBelow(nodes.size())]}, nullptr);
    }
  };
  add_edges(30);
  const FactId watermark = static_cast<FactId>(inst.fact_id_end());
  add_edges(20);

  const std::vector<Atom> atoms = {MakeAtom("edge", {Var("X"), Var("Y")}),
                                   MakeAtom("edge", {Var("Y"), Var("Z")})};
  std::vector<std::string> vars;
  const std::vector<CompiledAtom> pattern = CompileAtoms(atoms, &inst, &vars);
  const Binding seed(vars.size(), kNoNode);
  auto key = [](const std::vector<FactId>& facts) {
    return std::to_string(facts[0]) + "," + std::to_string(facts[1]);
  };
  // All matches.
  std::set<std::string> all;
  FindHomomorphisms(pattern, inst, seed, [&](const Binding&,
                                             const std::vector<FactId>& f) {
    all.insert(key(f));
    return true;
  });
  // Old-only matches.
  std::set<std::string> old_only;
  {
    std::vector<FactRange> ranges(2);
    ranges[0].hi = watermark;
    ranges[1].hi = watermark;
    FindHomomorphisms(pattern, inst, seed,
                      [&](const Binding&, const std::vector<FactId>& f) {
                        old_only.insert(key(f));
                        return true;
                      },
                      &ranges);
  }
  // Pivot decomposition of the new matches.
  std::set<std::string> pivoted;
  for (size_t pivot = 0; pivot < pattern.size(); ++pivot) {
    std::vector<FactRange> ranges(2);
    for (size_t i = 0; i < pivot; ++i) ranges[i].hi = watermark;
    ranges[pivot].lo = watermark;
    FindHomomorphisms(pattern, inst, seed,
                      [&](const Binding&, const std::vector<FactId>& f) {
                        EXPECT_TRUE(pivoted.insert(key(f)).second)
                            << "duplicate match across pivots";
                        return true;
                      },
                      &ranges);
  }
  // old ∪ pivoted-new = all, disjointly.
  EXPECT_EQ(old_only.size() + pivoted.size(), all.size());
  for (const std::string& k : pivoted) {
    EXPECT_TRUE(all.count(k));
    EXPECT_FALSE(old_only.count(k));
  }
}

TEST(ArgIndexTest, FactsWithFiltersByPositionAndNode) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  NodeId b = inst.FreshNull();
  inst.AddFact(p, {a, b}, nullptr);
  inst.AddFact(p, {b, a}, nullptr);
  inst.AddFact(p, {a, a}, nullptr);
  EXPECT_EQ(inst.FactsWith(p, 0, a).size(), 2u);
  EXPECT_EQ(inst.FactsWith(p, 0, b).size(), 1u);
  EXPECT_EQ(inst.FactsWith(p, 1, a).size(), 2u);
  EXPECT_TRUE(inst.FactsWith(p, 0, inst.FreshNull()).empty());
}

TEST(ArgIndexTest, SurvivesRebuildAfterMerges) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  NodeId b = inst.FreshNull();
  NodeId c = inst.FreshNull();
  inst.AddFact(p, {a, c}, nullptr);
  inst.AddFact(p, {b, c}, nullptr);
  ASSERT_TRUE(inst.Merge(a, b).ok());
  inst.Rebuild();
  // Facts fused: one fact, indexed under the surviving root.
  EXPECT_EQ(inst.FactsWith(p, 0, inst.Find(a)).size(), 1u);
  EXPECT_EQ(inst.FactsWith(p, 0, inst.Find(b)).size(), 1u);
}

// The engine's semi-naive rounds must reach the same fixpoint as a
// max_rounds=1... full-match sequence. Transitive closure is the classic
// check (new facts join with old ones every round).
TEST(SemiNaiveEngineTest, TransitiveClosureMatchesNaiveFixpoint) {
  auto build = [](Instance& inst) {
    int32_t e = inst.InternPredicate("edge");
    std::vector<NodeId> nodes;
    for (int i = 0; i < 7; ++i) nodes.push_back(inst.FreshNull());
    for (int i = 0; i + 1 < 7; ++i) {
      inst.AddFact(e, {nodes[static_cast<size_t>(i)],
                       nodes[static_cast<size_t>(i) + 1]}, nullptr);
    }
  };
  Constraint tc = MakeTgd("tc",
                          {MakeAtom("edge", {Var("X"), Var("Y")}),
                           MakeAtom("edge", {Var("Y"), Var("Z")})},
                          {MakeAtom("edge", {Var("X"), Var("Z")})});
  Instance inst;
  build(inst);
  const std::vector<Constraint> constraints = {tc};
  ChaseEngine engine(&inst, constraints);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  // Closure of a 7-node path: C(7,2) = 21 edges.
  EXPECT_EQ(inst.FactsOf(inst.LookupPredicate("edge")).size(), 21u);
}

}  // namespace
}  // namespace hadad::chase
