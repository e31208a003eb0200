#include "chase/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "chase/ast.h"
#include "chase/homomorphism.h"
#include "chase/instance.h"

namespace hadad::chase {
namespace {

// A pattern compiled for the matcher, keeping its source atoms (compiled
// constants point into them) and its variable names (for slot lookups).
struct Pattern {
  Pattern(std::vector<Atom> atoms, Instance* inst) : source(std::move(atoms)) {
    compiled = CompileAtoms(source, inst, &vars);
  }
  Pattern(const Pattern&) = delete;
  Pattern& operator=(const Pattern&) = delete;

  size_t Slot(const std::string& var) const {
    auto it = std::find(vars.begin(), vars.end(), var);
    EXPECT_NE(it, vars.end()) << var;
    return static_cast<size_t>(it - vars.begin());
  }
  // A binding with `seed` bound by variable name, every other slot unbound.
  Binding Seed(const std::vector<std::pair<std::string, NodeId>>& seed = {})
      const {
    Binding b(vars.size(), kNoNode);
    for (const auto& [var, node] : seed) b[Slot(var)] = node;
    return b;
  }

  std::vector<Atom> source;
  std::vector<std::string> vars;
  std::vector<CompiledAtom> compiled;
};

TEST(InstanceTest, ConstantsAreInterned) {
  Instance inst;
  NodeId a = inst.InternConstant("M.csv");
  NodeId b = inst.InternConstant("M.csv");
  NodeId c = inst.InternConstant("N.csv");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(inst.IsConstant(a));
  EXPECT_EQ(inst.ConstantValue(a), "M.csv");
  EXPECT_EQ(inst.LookupConstant("M.csv"), a);
  EXPECT_EQ(inst.LookupConstant("unseen"), kNoNode);
}

TEST(InstanceTest, FreshNullsAreDistinct) {
  Instance inst;
  NodeId a = inst.FreshNull();
  NodeId b = inst.FreshNull();
  EXPECT_NE(a, b);
  EXPECT_FALSE(inst.IsConstant(a));
}

TEST(InstanceTest, MergePrefersConstantRoot) {
  Instance inst;
  NodeId c = inst.InternConstant("x");
  NodeId n = inst.FreshNull();
  ASSERT_TRUE(inst.Merge(n, c).ok());
  EXPECT_EQ(inst.Find(n), c);
  EXPECT_TRUE(inst.IsConstant(n));
}

TEST(InstanceTest, MergingDistinctConstantsFails) {
  Instance inst;
  NodeId a = inst.InternConstant("x");
  NodeId b = inst.InternConstant("y");
  EXPECT_FALSE(inst.Merge(a, b).ok());
}

TEST(InstanceTest, MergeObserverReportsRoots) {
  Instance inst;
  NodeId a = inst.FreshNull();
  NodeId b = inst.FreshNull();
  NodeId absorbed = kNoNode, survivor = kNoNode;
  inst.SetMergeObserver([&](NodeId ab, NodeId s) {
    absorbed = ab;
    survivor = s;
  });
  ASSERT_TRUE(inst.Merge(a, b).ok());
  EXPECT_NE(absorbed, kNoNode);
  EXPECT_EQ(inst.Find(absorbed), survivor);
}

TEST(InstanceTest, DuplicateFactsFuseDerivations) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  bool added = false;
  FactId f1 = inst.AddFact(p, {a}, Derivation{0, {}}, false, &added);
  EXPECT_TRUE(added);
  FactId f2 = inst.AddFact(p, {a}, Derivation{1, {}}, false, &added);
  EXPECT_FALSE(added);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(inst.fact(f1).derivations.size(), 2u);
}

TEST(InstanceTest, RebuildFusesFactsAfterMerge) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  NodeId b = inst.FreshNull();
  inst.AddFact(p, {a}, Derivation{}, true, nullptr);
  inst.AddFact(p, {b}, Derivation{}, true, nullptr);
  EXPECT_EQ(inst.num_facts(), 2);
  ASSERT_TRUE(inst.Merge(a, b).ok());
  inst.Rebuild();
  EXPECT_EQ(inst.num_facts(), 1);
  EXPECT_EQ(inst.FactsOf(p).size(), 1u);
}

TEST(HomomorphismTest, ConstantsRestrictMatches) {
  Instance inst;
  int32_t name = inst.InternPredicate("name");
  NodeId m = inst.FreshNull();
  NodeId n = inst.FreshNull();
  inst.AddFact(name, {m, inst.InternConstant("M.csv")}, Derivation{}, true,
               nullptr);
  inst.AddFact(name, {n, inst.InternConstant("N.csv")}, Derivation{}, true,
               nullptr);
  int count = 0;
  Pattern p({MakeAtom("name", {Var("X"), Cst("M.csv")})}, &inst);
  FindHomomorphisms(p.compiled, inst, p.Seed(),
                    [&](const Binding& b, const std::vector<FactId>&) {
                      EXPECT_EQ(b[p.Slot("X")], inst.Find(m));
                      ++count;
                      return true;
                    });
  EXPECT_EQ(count, 1);
}

TEST(HomomorphismTest, RepeatedVariablesEnforceEquality) {
  Instance inst;
  int32_t e = inst.InternPredicate("edge");
  NodeId a = inst.FreshNull();
  NodeId b = inst.FreshNull();
  inst.AddFact(e, {a, b}, Derivation{}, true, nullptr);
  inst.AddFact(e, {a, a}, Derivation{}, true, nullptr);
  int count = 0;
  Pattern p({MakeAtom("edge", {Var("X"), Var("X")})}, &inst);
  FindHomomorphisms(p.compiled, inst, p.Seed(),
                    [&](const Binding&, const std::vector<FactId>&) {
                      ++count;
                      return true;
                    });
  EXPECT_EQ(count, 1);
}

TEST(HomomorphismTest, MultiAtomJoin) {
  Instance inst;
  int32_t r = inst.InternPredicate("R");
  int32_t s = inst.InternPredicate("S");
  NodeId x = inst.FreshNull(), z = inst.FreshNull(), y = inst.FreshNull();
  NodeId w = inst.FreshNull();
  inst.AddFact(r, {x, z}, Derivation{}, true, nullptr);
  inst.AddFact(s, {z, y}, Derivation{}, true, nullptr);
  inst.AddFact(s, {w, y}, Derivation{}, true, nullptr);  // Doesn't join R.
  int count = 0;
  Pattern p({MakeAtom("R", {Var("A"), Var("B")}),
             MakeAtom("S", {Var("B"), Var("C")})},
            &inst);
  FindHomomorphisms(p.compiled, inst, p.Seed(),
                    [&](const Binding& b, const std::vector<FactId>&) {
                      EXPECT_EQ(b[p.Slot("B")], inst.Find(z));
                      ++count;
                      return true;
                    });
  EXPECT_EQ(count, 1);
}

// The paper's Example 4.1: V(x,y) :- R(x,z), S(z,y); chasing Q's canonical
// instance with V_IO must add the V fact.
TEST(ChaseEngineTest, ViewIoConstraintFires) {
  Instance inst;
  int32_t r = inst.InternPredicate("R");
  int32_t s = inst.InternPredicate("S");
  NodeId x = inst.FreshNull(), z = inst.FreshNull(), y = inst.FreshNull();
  inst.AddFact(r, {x, z}, Derivation{}, true, nullptr);
  inst.AddFact(s, {z, y}, Derivation{}, true, nullptr);

  Constraint v_io = MakeTgd(
      "V_IO",
      {MakeAtom("R", {Var("x"), Var("z")}), MakeAtom("S", {Var("z"), Var("y")})},
      {MakeAtom("V", {Var("x"), Var("y")})});
  const std::vector<Constraint> constraints = {v_io};
  ChaseEngine engine(&inst, constraints);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  int32_t v = inst.LookupPredicate("V");
  ASSERT_GE(v, 0);
  ASSERT_EQ(inst.FactsOf(v).size(), 1u);
  const Fact& f = inst.fact(inst.FactsOf(v)[0]);
  EXPECT_EQ(inst.Find(f.args[0]), inst.Find(x));
  EXPECT_EQ(inst.Find(f.args[1]), inst.Find(y));
  // Provenance: derived by constraint 0 from the two initial facts.
  ASSERT_EQ(f.derivations.size(), 1u);
  EXPECT_EQ(f.derivations[0].constraint_index, 0);
  EXPECT_EQ(f.derivations[0].premise_facts.size(), 2u);
}

// V_OI introduces existentially quantified nulls: V(x,y) -> ∃z R(x,z),S(z,y).
TEST(ChaseEngineTest, ExistentialsCreateLabelledNulls) {
  Instance inst;
  int32_t v = inst.InternPredicate("V");
  NodeId a = inst.FreshNull(), b = inst.FreshNull();
  inst.AddFact(v, {a, b}, Derivation{}, true, nullptr);
  Constraint v_oi = MakeTgd(
      "V_OI", {MakeAtom("V", {Var("x"), Var("y")})},
      {MakeAtom("R", {Var("x"), Var("z")}), MakeAtom("S", {Var("z"), Var("y")})});
  const std::vector<Constraint> constraints = {v_oi};
  ChaseEngine engine(&inst, constraints);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  int32_t r = inst.LookupPredicate("R");
  int32_t s = inst.LookupPredicate("S");
  ASSERT_EQ(inst.FactsOf(r).size(), 1u);
  ASSERT_EQ(inst.FactsOf(s).size(), 1u);
  // The shared existential z must be the same null in both facts.
  EXPECT_EQ(inst.Find(inst.fact(inst.FactsOf(r)[0]).args[1]),
            inst.Find(inst.fact(inst.FactsOf(s)[0]).args[0]));
}

// The restricted chase must not refire a TGD whose conclusion is already
// satisfied — otherwise commutativity constraints would loop forever.
TEST(ChaseEngineTest, RestrictedChaseTerminatesOnCommutativity) {
  Instance inst;
  int32_t add = inst.InternPredicate("addM");
  NodeId m = inst.FreshNull(), n = inst.FreshNull(), r0 = inst.FreshNull();
  inst.AddFact(add, {m, n, r0}, Derivation{}, true, nullptr);
  Constraint comm = MakeTgd(
      "add-commutative",
      {MakeAtom("addM", {Var("M"), Var("N"), Var("R")})},
      {MakeAtom("addM", {Var("N"), Var("M"), Var("R")})});
  const std::vector<Constraint> constraints = {comm};
  ChaseEngine engine(&inst, constraints);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(inst.FactsOf(add).size(), 2u);
  EXPECT_LE(stats->rounds, 3);
}

// Functional EGDs (I_multiM style) must merge result classes.
TEST(ChaseEngineTest, FunctionalEgdMergesResults) {
  Instance inst;
  int32_t mul = inst.InternPredicate("multiM");
  NodeId m = inst.FreshNull(), n = inst.FreshNull();
  NodeId r1 = inst.FreshNull(), r2 = inst.FreshNull();
  inst.AddFact(mul, {m, n, r1}, Derivation{}, true, nullptr);
  inst.AddFact(mul, {m, n, r2}, Derivation{}, true, nullptr);
  Constraint functional = MakeEgd(
      "I_multiM",
      {MakeAtom("multiM", {Var("M"), Var("N"), Var("R1")}),
       MakeAtom("multiM", {Var("M"), Var("N"), Var("R2")})},
      {{Var("R1"), Var("R2")}});
  const std::vector<Constraint> constraints = {functional};
  ChaseEngine engine(&inst, constraints);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(inst.Find(r1), inst.Find(r2));
  EXPECT_EQ(inst.FactsOf(mul).size(), 1u);  // Facts fused after the merge.
}

// EGDs whose equalities land on two distinct constants make the instance
// unsatisfiable; Run must surface the error.
TEST(ChaseEngineTest, ConstantClashIsUnsatisfiable) {
  Instance inst;
  int32_t name = inst.InternPredicate("name");
  NodeId m = inst.FreshNull();
  inst.AddFact(name, {m, inst.InternConstant("a")}, Derivation{}, true,
               nullptr);
  inst.AddFact(name, {m, inst.InternConstant("b")}, Derivation{}, true,
               nullptr);
  Constraint key = MakeEgd("name-key",
                           {MakeAtom("name", {Var("M"), Var("X")}),
                            MakeAtom("name", {Var("M"), Var("Y")})},
                           {{Var("X"), Var("Y")}});
  const std::vector<Constraint> constraints = {key};
  ChaseEngine engine(&inst, constraints);
  auto stats = engine.Run();
  EXPECT_FALSE(stats.ok());
}

// EGD on constants in the conclusion (det(I) = 1 style): merging a null with
// a constant succeeds.
TEST(ChaseEngineTest, EgdEquatesNullWithConstant) {
  Instance inst;
  int32_t det = inst.InternPredicate("det");
  NodeId i = inst.FreshNull();
  NodeId d = inst.FreshNull();
  int32_t identity = inst.InternPredicate("identity");
  inst.AddFact(identity, {i}, Derivation{}, true, nullptr);
  inst.AddFact(det, {i, d}, Derivation{}, true, nullptr);
  Constraint c = MakeEgd("det-identity",
                         {MakeAtom("identity", {Var("I")}),
                          MakeAtom("det", {Var("I"), Var("D")})},
                         {{Var("D"), Cst("1")}});
  const std::vector<Constraint> constraints = {c};
  ChaseEngine engine(&inst, constraints);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(inst.IsConstant(d));
  EXPECT_EQ(inst.ConstantValue(d), "1");
}

// The Prune_prov gate must be able to veto applications.
TEST(ChaseEngineTest, GateSkipsApplications) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  inst.AddFact(p, {a}, Derivation{}, true, nullptr);
  Constraint grow = MakeTgd("grow", {MakeAtom("p", {Var("X")})},
                            {MakeAtom("q", {Var("X")})});
  const std::vector<Constraint> constraints = {grow};
  ChaseEngine engine(&inst, constraints);
  engine.set_gate([](int32_t, const Binding&, const std::vector<FactId>&) {
    return false;
  });
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pruned_applications, 1);
  EXPECT_EQ(inst.FactsOf(inst.LookupPredicate("q")).size(), 0u);
}

// Fact budget stops a diverging chase (successor-style constraint).
TEST(ChaseEngineTest, BudgetStopsDivergingChase) {
  Instance inst;
  int32_t p = inst.InternPredicate("succ");
  NodeId a = inst.FreshNull(), b = inst.FreshNull();
  inst.AddFact(p, {a, b}, Derivation{}, true, nullptr);
  Constraint diverge = MakeTgd(
      "diverge", {MakeAtom("succ", {Var("X"), Var("Y")})},
      {MakeAtom("succ", {Var("Y"), Var("Z")})});
  ChaseOptions options;
  options.max_facts = 50;
  options.max_rounds = 1000;
  const std::vector<Constraint> constraints = {diverge};
  ChaseEngine engine(&inst, constraints, options);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->budget_exhausted);
  EXPECT_LE(inst.num_facts(), 51);
}

// Facts-added observer sees every new fact.
TEST(ChaseEngineTest, ObserverSeesAdditions) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  inst.AddFact(p, {a}, Derivation{}, true, nullptr);
  Constraint grow = MakeTgd("grow", {MakeAtom("p", {Var("X")})},
                            {MakeAtom("q", {Var("X"), Var("Z")})});
  const std::vector<Constraint> constraints = {grow};
  ChaseEngine engine(&inst, constraints);
  int64_t seen = 0;
  engine.set_facts_added_observer(
      [&seen](const std::vector<FactId>& ids) { seen += ids.size(); });
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(seen, 1);
}

// Associativity-style constraint on a 3-chain yields both parenthesizations
// but terminates (the classic HADAD stress case, Example 7.2's shape).
TEST(ChaseEngineTest, AssociativityOnChainTerminates) {
  Instance inst;
  int32_t mul = inst.InternPredicate("multiM");
  NodeId m = inst.FreshNull(), n = inst.FreshNull();
  NodeId r1 = inst.FreshNull(), r2 = inst.FreshNull();
  // (M N) M encoded: multiM(M, N, R1), multiM(R1, M, R2).
  inst.AddFact(mul, {m, n, r1}, Derivation{}, true, nullptr);
  inst.AddFact(mul, {r1, m, r2}, Derivation{}, true, nullptr);
  Constraint assoc = MakeTgd(
      "mul-associative",
      {MakeAtom("multiM", {Var("A"), Var("B"), Var("R1")}),
       MakeAtom("multiM", {Var("R1"), Var("C"), Var("R2")})},
      {MakeAtom("multiM", {Var("B"), Var("C"), Var("R3")}),
       MakeAtom("multiM", {Var("A"), Var("R3"), Var("R2")})});
  Constraint functional = MakeEgd(
      "I_multiM",
      {MakeAtom("multiM", {Var("M"), Var("N"), Var("R1")}),
       MakeAtom("multiM", {Var("M"), Var("N"), Var("R2")})},
      {{Var("R1"), Var("R2")}});
  const std::vector<Constraint> constraints = {assoc, functional};
  ChaseEngine engine(&inst, constraints);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->budget_exhausted);
  // The alternative association M (N M) must now be present: some fact
  // multiM(N, M, X) and multiM(M, X, R2).
  bool found = false;
  Pattern p({MakeAtom("multiM", {Var("N"), Var("M"), Var("X")}),
             MakeAtom("multiM", {Var("M"), Var("X"), Var("R")})},
            &inst);
  FindHomomorphisms(
      p.compiled, inst,
      p.Seed({{"N", inst.Find(n)}, {"M", inst.Find(m)}, {"R", inst.Find(r2)}}),
      [&](const Binding&, const std::vector<FactId>&) {
        found = true;
        return false;
      });
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace hadad::chase
