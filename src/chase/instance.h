#ifndef HADAD_CHASE_INSTANCE_H_
#define HADAD_CHASE_INSTANCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/ast.h"
#include "common/status.h"

namespace hadad::chase {

// A node in the canonical instance: either an interned constant or a
// labelled null. Node ids double as the equivalence-class ids of §6.2.1 —
// two expressions mapped to the same (canonical) node are value-equal.
using NodeId = int32_t;
using FactId = int32_t;

inline constexpr NodeId kNoNode = -1;

// How a fact entered the instance: as part of the initial (encoded query)
// body, or by a chase step of `constraint` matched on `premise_facts`.
// PACB's provenance formulas (§4.2) are read off these records: the initial
// facts are the provenance terms, and a derived fact's provenance is the
// disjunction over its derivations of the conjunction of its premises'
// provenance.
struct Derivation {
  int32_t constraint_index = -1;      // Index into the engine's constraints.
  std::vector<FactId> premise_facts;  // Canonical fact ids at creation time.
};

struct Fact {
  int32_t predicate;
  std::vector<NodeId> args;     // Canonical as of the last Rebuild().
  bool initial = false;
  std::vector<Derivation> derivations;
};

// The evolving symbolic/canonical database the chase runs on (§7.3 calls it
// the evolving universal-plan instance). Maintains a union-find over nodes;
// EGD steps merge nodes, and Rebuild() re-canonicalizes facts, fusing
// duplicates (their derivation lists are concatenated).
class Instance {
 public:
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // --- Nodes -----------------------------------------------------------

  // The node for a constant, interning it on first use.
  NodeId InternConstant(const std::string& value);
  // The node for a constant if already interned, else kNoNode.
  NodeId LookupConstant(const std::string& value) const;
  // A fresh labelled null.
  NodeId FreshNull();

  // Canonical representative (path-halving union-find).
  NodeId Find(NodeId n) const;

  bool IsConstant(NodeId n) const;
  // Value of a constant node (must be constant).
  const std::string& ConstantValue(NodeId n) const;

  // Equates two nodes. Fails if both are distinct constants (EGD clash on
  // constants = unsatisfiable constraints, §4.1).
  Status Merge(NodeId a, NodeId b);

  // Called with (absorbed_root, surviving_root) on every successful merge so
  // cost/metadata layers can fold their per-node state.
  void SetMergeObserver(std::function<void(NodeId, NodeId)> observer) {
    merge_observer_ = std::move(observer);
  }

  int64_t num_nodes() const { return static_cast<int64_t>(parent_.size()); }
  // Interned constants so far; grows whenever InternConstant creates one.
  int64_t num_constants() const {
    return static_cast<int64_t>(constant_ids_.size());
  }

  // --- Predicates ------------------------------------------------------

  int32_t InternPredicate(const std::string& name);
  int32_t LookupPredicate(const std::string& name) const;  // -1 if absent.
  const std::string& PredicateName(int32_t id) const;

  // --- Facts -----------------------------------------------------------

  // Adds (or finds) the fact predicate(args). If it already exists, the
  // derivation is appended to the existing fact (provenance disjunction) and
  // `added` is set false. Args are canonicalized on entry.
  FactId AddFact(int32_t predicate, std::vector<NodeId> args,
                 Derivation derivation, bool initial, bool* added);

  bool HasFact(int32_t predicate, const std::vector<NodeId>& args) const;

  const Fact& fact(FactId id) const { return facts_[static_cast<size_t>(id)]; }
  int64_t num_facts() const { return static_cast<int64_t>(facts_.size()); }

  // Fact ids with the given predicate (canonical, post-rebuild view).
  const std::vector<FactId>& FactsOf(int32_t predicate) const;

  // Fact ids with `predicate` whose argument at `position` is (canonically)
  // `node` — the join index the homomorphism search uses to avoid scanning
  // whole relations. Valid only on a clean (rebuilt) instance, except that
  // facts added since the last rebuild are indexed incrementally.
  const std::vector<FactId>& FactsWith(int32_t predicate, int position,
                                       NodeId node) const;

  // Re-canonicalizes all facts after merges; fuses facts that became equal
  // (derivations concatenated; `initial` is OR-ed). Remaps every stored
  // FactId in derivations to the surviving fact. No-op when clean.
  void Rebuild();

  bool dirty() const { return dirty_; }

  std::string DebugString() const;

 private:
  // One slot of the fact table: a fact id (-1: empty) and the hash of its
  // (predicate, args) as stored.
  struct FactSlot {
    uint64_t hash = 0;
    FactId id = -1;
  };

  // The slot holding predicate(args) among `facts`, or the empty slot where
  // it belongs. A hash match is confirmed against the stored fact.
  size_t ProbeFact(const std::vector<Fact>& facts, uint64_t hash,
                   int32_t predicate, const std::vector<NodeId>& args) const;
  // Empties the fact table, sized for `facts` entries at load <= 1/2.
  void ResetFactTable(size_t facts);
  void IndexFact(FactId id);

  // Union-find state. rank via size; constants always win as root.
  mutable std::vector<NodeId> parent_;
  std::vector<int32_t> size_;
  std::vector<bool> is_constant_;
  std::vector<std::string> constant_value_;
  std::unordered_map<std::string, NodeId> constant_ids_;

  std::vector<std::string> predicate_names_;
  std::unordered_map<std::string, int32_t> predicate_ids_;

  std::vector<Fact> facts_;
  // Deduplicates facts by a 64-bit hash of (predicate, args): open
  // addressing with linear probing over a power-of-two table.
  std::vector<FactSlot> fact_table_;
  std::vector<std::vector<FactId>> facts_by_predicate_;
  // (predicate, position, node) -> fact ids.
  std::unordered_map<uint64_t, std::vector<FactId>> arg_index_;
  std::vector<FactId> empty_;

  bool dirty_ = false;
  std::function<void(NodeId, NodeId)> merge_observer_;
};

}  // namespace hadad::chase

#endif  // HADAD_CHASE_INSTANCE_H_
