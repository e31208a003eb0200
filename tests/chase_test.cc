#include "chase/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chase/ast.h"
#include "chase/homomorphism.h"
#include "chase/instance.h"
#include "common/rng.h"

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

TEST(InstanceTest, DuplicateFactsDeduplicate) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  bool added = false;
  FactId f1 = inst.AddFact(p, {a}, &added);
  EXPECT_TRUE(added);
  FactId f2 = inst.AddFact(p, {a}, &added);
  EXPECT_FALSE(added);
  EXPECT_EQ(f1, f2);
}

TEST(InstanceTest, RebuildFusesFactsAfterMerge) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  NodeId b = inst.FreshNull();
  inst.AddFact(p, {a}, nullptr);
  inst.AddFact(p, {b}, nullptr);
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
  inst.AddFact(name, {m, inst.InternConstant("M.csv")},
               nullptr);
  inst.AddFact(name, {n, inst.InternConstant("N.csv")},
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
  inst.AddFact(e, {a, b}, nullptr);
  inst.AddFact(e, {a, a}, nullptr);
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
  inst.AddFact(r, {x, z}, nullptr);
  inst.AddFact(s, {z, y}, nullptr);
  inst.AddFact(s, {w, y}, nullptr);  // Doesn't join R.
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
  inst.AddFact(r, {x, z}, nullptr);
  inst.AddFact(s, {z, y}, nullptr);

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
}

// V_OI introduces existentially quantified nulls: V(x,y) -> ∃z R(x,z),S(z,y).
TEST(ChaseEngineTest, ExistentialsCreateLabelledNulls) {
  Instance inst;
  int32_t v = inst.InternPredicate("V");
  NodeId a = inst.FreshNull(), b = inst.FreshNull();
  inst.AddFact(v, {a, b}, nullptr);
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
  inst.AddFact(add, {m, n, r0}, nullptr);
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
  inst.AddFact(mul, {m, n, r1}, nullptr);
  inst.AddFact(mul, {m, n, r2}, nullptr);
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
  inst.AddFact(name, {m, inst.InternConstant("a")},
               nullptr);
  inst.AddFact(name, {m, inst.InternConstant("b")},
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
  inst.AddFact(identity, {i}, nullptr);
  inst.AddFact(det, {i, d}, nullptr);
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
  inst.AddFact(p, {a}, nullptr);
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

// A successor-style chase: one new fact per round until a bound stops it.
struct DivergingChase {
  DivergingChase() {
    int32_t p = inst.InternPredicate("succ");
    inst.AddFact(p, {inst.FreshNull(), inst.FreshNull()},
                 nullptr);
  }
  Instance inst;
  const std::vector<Constraint> constraints = {
      MakeTgd("diverge", {MakeAtom("succ", {Var("X"), Var("Y")})},
              {MakeAtom("succ", {Var("Y"), Var("Z")})})};
};

// Fact budget stops a diverging chase.
TEST(ChaseEngineTest, BudgetStopsDivergingChase) {
  DivergingChase d;
  ChaseOptions options;
  options.max_facts = 50;
  options.max_rounds = 1000;
  ChaseEngine engine(&d.inst, d.constraints, options);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->budget_exhausted);
  EXPECT_LE(d.inst.num_facts(), 51);
}

// Facts-added observer sees every new fact.
TEST(ChaseEngineTest, ObserverSeesAdditions) {
  Instance inst;
  int32_t p = inst.InternPredicate("p");
  NodeId a = inst.FreshNull();
  inst.AddFact(p, {a}, nullptr);
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

// The round-end hook runs once per completed round, after the round's last
// Rebuild (a clean instance), with `rounds` already counting that round. A
// hook that never stops leaves the chase as it is without one.
TEST(ChaseEngineTest, RoundEndHookSeesEveryRoundOnCleanInstance) {
  // Example 7.2's chain under associativity and I_multiM, a chase that
  // merges: the hook must still see a clean instance.
  const std::vector<Constraint> constraints = {
      MakeTgd("mul-associative",
              {MakeAtom("multiM", {Var("A"), Var("B"), Var("R1")}),
               MakeAtom("multiM", {Var("R1"), Var("C"), Var("R2")})},
              {MakeAtom("multiM", {Var("B"), Var("C"), Var("R3")}),
               MakeAtom("multiM", {Var("A"), Var("R3"), Var("R2")})}),
      MakeEgd("I_multiM",
              {MakeAtom("multiM", {Var("M"), Var("N"), Var("R1")}),
               MakeAtom("multiM", {Var("M"), Var("N"), Var("R2")})},
              {{Var("R1"), Var("R2")}})};
  auto chase = [&constraints](bool with_hook, std::vector<int>* rounds_seen) {
    Instance inst;
    int32_t mul = inst.InternPredicate("multiM");
    NodeId m = inst.FreshNull(), n = inst.FreshNull(), r1 = inst.FreshNull();
    inst.AddFact(mul, {m, n, r1}, nullptr);
    inst.AddFact(mul, {r1, m, inst.FreshNull()}, nullptr);
    inst.AddFact(mul, {inst.FreshNull(), r1, m}, nullptr);
    ChaseEngine engine(&inst, constraints);
    if (with_hook) {
      engine.set_round_end([&inst, rounds_seen](const ChaseStats& stats) {
        EXPECT_FALSE(inst.dirty()) << "round " << stats.rounds;
        rounds_seen->push_back(stats.rounds);
        return false;
      });
    }
    auto stats = engine.Run();
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? *stats : ChaseStats{};
  };
  std::vector<int> rounds_seen;
  const ChaseStats hooked = chase(true, &rounds_seen);
  const ChaseStats plain = chase(false, nullptr);
  EXPECT_GT(hooked.merges, 0);
  ASSERT_EQ(rounds_seen.size(), static_cast<size_t>(hooked.rounds));
  for (size_t i = 0; i < rounds_seen.size(); ++i) {
    EXPECT_EQ(rounds_seen[i], static_cast<int>(i) + 1);
  }
  EXPECT_EQ(hooked.rounds, plain.rounds);
  EXPECT_EQ(hooked.tgd_applications, plain.tgd_applications);
  EXPECT_EQ(hooked.facts_added, plain.facts_added);
  EXPECT_EQ(hooked.merges, plain.merges);
  EXPECT_FALSE(hooked.stalled);
  EXPECT_FALSE(plain.stalled);
}

// A true return ends the chase after that round and reports `stalled`.
TEST(ChaseEngineTest, RoundEndHookEndsChase) {
  DivergingChase d;
  ChaseOptions options;
  options.max_facts = 50;
  options.max_rounds = 1000;
  ChaseEngine engine(&d.inst, d.constraints, options);
  engine.set_round_end(
      [](const ChaseStats& stats) { return stats.rounds == 3; });
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rounds, 3);
  EXPECT_TRUE(stats->stalled);
  EXPECT_FALSE(stats->budget_exhausted);
  EXPECT_EQ(d.inst.num_facts(), 4);
}

// When fixpoint, the fact budget or max_rounds ends the chase in the round
// the hook asks to stop, `stalled` stays false: it reports only a stop the
// hook caused. The hook still runs on that last round.
TEST(ChaseEngineTest, StalledOnlyWhenTheHookEndsTheChase) {
  // Runs `engine` with a hook that asks to stop when `stop` holds; checks
  // that the hook ran once per round and returns the statistics.
  auto run = [](ChaseEngine& engine, bool (*stop)(const ChaseStats&)) {
    int calls = 0;
    engine.set_round_end([&calls, stop](const ChaseStats& stats) {
      ++calls;
      return stop(stats);
    });
    auto stats = engine.Run();
    EXPECT_TRUE(stats.ok());
    if (!stats.ok()) return ChaseStats{};
    EXPECT_EQ(calls, stats->rounds);
    EXPECT_FALSE(stats->stalled);
    return *stats;
  };
  {  // Fixpoint: `grow` adds q in round 1; round 2 adds nothing.
    Instance inst;
    inst.AddFact(inst.InternPredicate("p"), {inst.FreshNull()}, nullptr);
    const std::vector<Constraint> constraints = {MakeTgd(
        "grow", {MakeAtom("p", {Var("X")})}, {MakeAtom("q", {Var("X")})})};
    ChaseEngine engine(&inst, constraints);
    EXPECT_EQ(run(engine, [](const ChaseStats& s) { return s.rounds == 2; })
                  .rounds,
              2);
  }
  {  // The fact budget.
    DivergingChase d;
    ChaseOptions options;
    options.max_facts = 50;
    options.max_rounds = 1000;
    ChaseEngine engine(&d.inst, d.constraints, options);
    EXPECT_TRUE(
        run(engine, [](const ChaseStats& s) { return s.budget_exhausted; })
            .budget_exhausted);
  }
  {  // max_rounds.
    DivergingChase d;
    ChaseOptions options;
    options.max_rounds = 3;
    ChaseEngine engine(&d.inst, d.constraints, options);
    EXPECT_EQ(run(engine, [](const ChaseStats& s) { return s.rounds == 3; })
                  .rounds,
              3);
  }
}

// Associativity-style constraint on a 3-chain yields both parenthesizations
// but terminates (the classic HADAD stress case, Example 7.2's shape).
TEST(ChaseEngineTest, AssociativityOnChainTerminates) {
  Instance inst;
  int32_t mul = inst.InternPredicate("multiM");
  NodeId m = inst.FreshNull(), n = inst.FreshNull();
  NodeId r1 = inst.FreshNull(), r2 = inst.FreshNull();
  // (M N) M encoded: multiM(M, N, R1), multiM(R1, M, R2).
  inst.AddFact(mul, {m, n, r1}, nullptr);
  inst.AddFact(mul, {r1, m, r2}, nullptr);
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

// --- Incremental rebuild, differentially ------------------------------------
//
// Random instances interleave AddFact, merges and Rebuild(); after every
// rebuild the instance must equal a rebuild from scratch: every live fact
// re-canonicalized, the lowest id surviving among facts that became equal.
// Knobs (both read from the environment, as mvcc_test reads them):
//   HADAD_STRESS_SEED   fixed RNG seed (default: random, printed on start)
//   HADAD_STRESS_ITERS  random instances (default 300; the ASan CI arm
//                       runs 2000)

// Every fact ever added, by id, as a rebuild from scratch sees it.
struct ReferenceInstance {
  struct Entry {
    int32_t predicate;
    std::vector<NodeId> args;  // As of the last Rebuild, or as added.
    FactId fused_into = -1;
  };

  // What a full rebuild met while fusing facts.
  struct Collisions {
    int64_t lower_touched = 0;    // The survivor changed, the other did not.
    int64_t lower_untouched = 0;  // The other changed, the survivor did not.
  };

  // AddFact's contract: args canonicalized, deduplicated against the live
  // facts' args as stored.
  FactId Add(const Instance& inst, int32_t predicate, std::vector<NodeId> args,
             bool* added) {
    for (NodeId& a : args) a = inst.Find(a);
    for (size_t id = 0; id < facts.size(); ++id) {
      const Entry& e = facts[id];
      if (e.fused_into < 0 && e.predicate == predicate && e.args == args) {
        *added = false;
        return static_cast<FactId>(id);
      }
    }
    facts.push_back(Entry{predicate, std::move(args)});
    *added = true;
    return static_cast<FactId>(facts.size() - 1);
  }

  void Rebuild(const Instance& inst, Collisions* collisions) {
    std::map<std::pair<int32_t, std::vector<NodeId>>, FactId> survivors;
    std::map<FactId, bool> survivor_touched;
    for (size_t id = 0; id < facts.size(); ++id) {
      Entry& e = facts[id];
      if (e.fused_into >= 0) continue;
      std::vector<NodeId> canonical = e.args;
      for (NodeId& a : canonical) a = inst.Find(a);
      const bool touched = canonical != e.args;
      e.args = std::move(canonical);
      auto [it, inserted] = survivors.emplace(
          std::make_pair(e.predicate, e.args), static_cast<FactId>(id));
      if (inserted) {
        survivor_touched[it->second] = touched;
        continue;
      }
      e.fused_into = it->second;
      if (survivor_touched[it->second] && !touched) {
        ++collisions->lower_touched;
      }
      if (!survivor_touched[it->second] && touched) {
        ++collisions->lower_untouched;
      }
    }
  }

  FactId Survivor(FactId id) const {
    while (facts[static_cast<size_t>(id)].fused_into >= 0) {
      id = facts[static_cast<size_t>(id)].fused_into;
    }
    return id;
  }

  std::vector<Entry> facts;
};

template <typename T>
std::string Join(const std::vector<T>& v) {
  std::ostringstream out;
  out << '[';
  for (size_t i = 0; i < v.size(); ++i) out << (i > 0 ? " " : "") << v[i];
  return out.str() + ']';
}

// The first difference between `inst` and `ref`, or "" when they agree on
// the live facts, tombstones, every index bucket, HasFact and the live
// count.
std::string Diff(const Instance& inst, const ReferenceInstance& ref,
                 const std::vector<int32_t>& predicates,
                 const std::vector<int>& arity) {
  std::ostringstream out;
  if (inst.fact_id_end() != static_cast<int64_t>(ref.facts.size())) {
    out << "fact_id_end " << inst.fact_id_end() << " vs " << ref.facts.size();
    return out.str();
  }
  int64_t live = 0;
  for (FactId id = 0; id < inst.fact_id_end(); ++id) {
    const Fact& f = inst.fact(id);
    const ReferenceInstance::Entry& e = ref.facts[static_cast<size_t>(id)];
    if (f.live() != (e.fused_into < 0) ||
        inst.Survivor(id) != ref.Survivor(id)) {
      out << "fact " << id << ": survivor " << inst.Survivor(id) << " vs "
          << ref.Survivor(id);
    } else if (f.live() &&
               (f.predicate != e.predicate || f.args != e.args)) {
      out << "fact " << id << ": " << f.predicate << Join(f.args) << " vs "
          << e.predicate << Join(e.args);
    } else if (f.live() && !inst.HasFact(f.predicate, f.args)) {
      out << "HasFact misses live fact " << id;
    }
    if (!out.str().empty()) return out.str();
    if (f.live()) ++live;
  }
  if (inst.num_facts() != live) {
    out << "num_facts " << inst.num_facts() << " vs " << live;
    return out.str();
  }
  for (size_t pi = 0; pi < predicates.size(); ++pi) {
    std::vector<FactId> of;
    for (size_t id = 0; id < ref.facts.size(); ++id) {
      const ReferenceInstance::Entry& e = ref.facts[id];
      if (e.fused_into < 0 && e.predicate == predicates[pi]) {
        of.push_back(static_cast<FactId>(id));
      }
    }
    if (inst.FactsOf(predicates[pi]) != of) {
      out << "FactsOf(" << predicates[pi] << ") "
          << Join(inst.FactsOf(predicates[pi])) << " vs " << Join(of);
      return out.str();
    }
    for (int pos = 0; pos < arity[pi]; ++pos) {
      for (NodeId n = 0; n < inst.num_nodes(); ++n) {
        std::vector<FactId> with;
        for (FactId id : of) {
          if (ref.facts[static_cast<size_t>(id)].args[static_cast<size_t>(
                  pos)] == inst.Find(n)) {
            with.push_back(id);
          }
        }
        if (inst.FactsWith(predicates[pi], pos, n) != with) {
          out << "FactsWith(" << predicates[pi] << ", " << pos << ", " << n
              << ") " << Join(inst.FactsWith(predicates[pi], pos, n))
              << " vs " << Join(with);
          return out.str();
        }
      }
    }
  }
  return "";
}

TEST(RebuildDifferentialTest, MatchesRebuildFromScratch) {
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
  std::cerr << "[ rebuild differential: seed=" << seed << " iters=" << iters
            << " (override via HADAD_STRESS_SEED / HADAD_STRESS_ITERS) ]\n";
  Rng rng(seed);
  ReferenceInstance::Collisions collisions;
  int64_t null_into_constant = 0;
  int64_t merge_chains = 0;
  int64_t adds_while_dirty = 0;
  for (int iter = 0; iter < iters; ++iter) {
    Instance inst;
    ReferenceInstance ref;
    std::vector<int32_t> predicates;
    std::vector<int> arity;
    const int num_predicates = 2 + static_cast<int>(rng.NextBelow(3));
    for (int p = 0; p < num_predicates; ++p) {
      predicates.push_back(inst.InternPredicate("p" + std::to_string(p)));
      arity.push_back(1 + static_cast<int>(rng.NextBelow(3)));
    }
    std::vector<NodeId> nodes;
    for (int c = 0; c < 2; ++c) {
      nodes.push_back(inst.InternConstant("c" + std::to_string(c)));
    }
    const int num_nulls = 4 + static_cast<int>(rng.NextBelow(6));
    for (int n = 0; n < num_nulls; ++n) nodes.push_back(inst.FreshNull());
    // Roots that absorbed another node since the last rebuild: absorbing
    // one of them continues a chain.
    std::vector<NodeId> survivors;
    inst.SetMergeObserver([&](NodeId absorbed, NodeId survivor) {
      if (std::find(survivors.begin(), survivors.end(), absorbed) !=
          survivors.end()) {
        ++merge_chains;
      }
      if (inst.IsConstant(survivor)) ++null_into_constant;
      survivors.push_back(survivor);
    });
    const int steps = 40 + static_cast<int>(rng.NextBelow(60));
    for (int step = 0; step < steps; ++step) {
      const uint64_t op = rng.NextBelow(100);
      if (op < 55) {
        const size_t pi = rng.NextBelow(predicates.size());
        std::vector<NodeId> args;
        for (int i = 0; i < arity[pi]; ++i) {
          args.push_back(nodes[rng.NextBelow(nodes.size())]);
        }
        if (inst.dirty()) ++adds_while_dirty;
        bool added = false;
        bool ref_added = false;
        const FactId id = inst.AddFact(predicates[pi], args, &added);
        const FactId ref_id = ref.Add(inst, predicates[pi], args, &ref_added);
        ASSERT_EQ(id, ref_id) << "seed=" << seed << " iter=" << iter
                              << " step=" << step;
        ASSERT_EQ(added, ref_added) << "seed=" << seed << " iter=" << iter
                                    << " step=" << step;
      } else if (op < 80) {
        const NodeId a = nodes[rng.NextBelow(nodes.size())];
        const NodeId b = nodes[rng.NextBelow(nodes.size())];
        if (inst.IsConstant(a) && inst.IsConstant(b)) continue;
        ASSERT_TRUE(inst.Merge(a, b).ok());
      } else if (op < 95) {
        inst.Rebuild();
        ref.Rebuild(inst, &collisions);
        survivors.clear();
        ASSERT_EQ(Diff(inst, ref, predicates, arity), "")
            << "seed=" << seed << " iter=" << iter << " step=" << step;
      } else {
        nodes.push_back(inst.FreshNull());
      }
    }
  }
  // Enough instances must have met every case the rebuild distinguishes.
  if (iters >= 100) {
    EXPECT_GT(collisions.lower_touched, 0);
    EXPECT_GT(collisions.lower_untouched, 0);
    EXPECT_GT(null_into_constant, 0);
    EXPECT_GT(merge_chains, 0);
    EXPECT_GT(adds_while_dirty, 0);
  }
  std::cerr << "[ collisions: lower touched=" << collisions.lower_touched
            << " lower untouched=" << collisions.lower_untouched
            << "; merges into a constant=" << null_into_constant
            << ", chained=" << merge_chains
            << "; adds while dirty=" << adds_while_dirty << " ]\n";
}

}  // namespace
}  // namespace hadad::chase
