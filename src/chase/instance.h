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

// A fact keeps no provenance: the decoder extracts rewritings by cost
// (pacb::RewriteSession), not from PACB's provenance formulas (§4.2).
struct Fact {
  int32_t predicate;
  std::vector<NodeId> args;     // Canonical as of the last Rebuild().
  // The fact this one fused into at a Rebuild(), or -1 while it is live. A
  // fused fact stays behind as a tombstone under its id, and no index lists
  // it.
  FactId fused_into = -1;

  bool live() const { return fused_into < 0; }
};

// The evolving symbolic/canonical database the chase runs on (§7.3 calls it
// the evolving universal-plan instance). Maintains a union-find over nodes;
// EGD steps merge nodes, and Rebuild() re-canonicalizes the facts that
// mention a merged node, fusing duplicates.
//
// Fact ids are stable: they are handed out in increasing order and never
// reused or renumbered. Every index (FactsOf, FactsWith, the fact table)
// holds exactly the live facts, FactsOf and FactsWith in ascending id
// order, so the matcher visits facts in the order they were added.
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

  // Adds (or finds) the fact predicate(args); `added` is set false when it
  // already exists. Args are canonicalized on entry.
  FactId AddFact(int32_t predicate, std::vector<NodeId> args, bool* added);

  bool HasFact(int32_t predicate, const std::vector<NodeId>& args) const;

  // Any id below fact_id_end(), live or fused.
  const Fact& fact(FactId id) const { return facts_[static_cast<size_t>(id)]; }
  // The live fact `id` fused into, possibly through several rebuilds; `id`
  // itself while it is live.
  FactId Survivor(FactId id) const;
  // Live facts: the count the fact budget limits.
  int64_t num_facts() const { return live_facts_; }
  // One past the largest fact id handed out, tombstones included: the bound
  // for loops over ids, and the chase's semi-naive watermark.
  int64_t fact_id_end() const { return static_cast<int64_t>(facts_.size()); }

  // The live fact ids with the given predicate, ascending.
  const std::vector<FactId>& FactsOf(int32_t predicate) const;

  // The live fact ids with `predicate` whose argument at `position` is
  // `node` (canonicalized), ascending — the join index the homomorphism
  // search uses to avoid scanning whole relations. A fact is listed under
  // its args as of the last Rebuild(), or as of AddFact for a fact added
  // since; on a clean instance that is its canonical args.
  const std::vector<FactId>& FactsWith(int32_t predicate, int position,
                                       NodeId node) const;

  // Re-canonicalizes the facts that mention a node merged away since the
  // last rebuild, and only those, so the cost follows the merges rather
  // than the instance size. Facts that became equal fuse into the one with
  // the lower id; the others become tombstones. Every index ends as a
  // rebuild from scratch would leave it. No-op when clean.
  void Rebuild();

  bool dirty() const { return !absorbed_.empty(); }

  std::string DebugString() const;

 private:
  // One slot of the fact table: a fact id (-1: empty) and the hash of its
  // (predicate, args) as stored.
  struct FactSlot {
    uint64_t hash = 0;
    FactId id = -1;
  };

  // The slot holding predicate(args), or the empty slot where it belongs. A
  // hash match is confirmed against the stored fact.
  size_t ProbeFact(uint64_t hash, int32_t predicate,
                   const std::vector<NodeId>& args) const;
  // Doubles the fact table and re-inserts every stored slot.
  void GrowFactTable();
  // Empties slot `i` by backward-shift deletion, so that no probe sequence
  // passes through an empty slot.
  void EraseSlot(size_t i);
  // Lists a new fact in the argument index and its nodes' use lists.
  void IndexFact(FactId id);
  // Adds `fact` to the use list of `node` unless `node` is a constant.
  void AddUse(NodeId node, FactId fact);

  // Union-find state. rank via size; constants always win as root.
  mutable std::vector<NodeId> parent_;
  std::vector<int32_t> size_;
  std::vector<bool> is_constant_;
  std::vector<std::string> constant_value_;
  std::unordered_map<std::string, NodeId> constant_ids_;

  std::vector<std::string> predicate_names_;
  std::unordered_map<std::string, int32_t> predicate_ids_;

  // Indexed by fact id, tombstones included.
  std::vector<Fact> facts_;
  int64_t live_facts_ = 0;
  // Deduplicates the live facts by a 64-bit hash of (predicate, args): open
  // addressing with linear probing over a power-of-two table.
  std::vector<FactSlot> fact_table_;
  std::vector<std::vector<FactId>> facts_by_predicate_;
  // (predicate, position, node) -> fact ids.
  std::unordered_map<uint64_t, std::vector<FactId>> arg_index_;
  std::vector<FactId> empty_;
  // Use lists: per node, the facts whose args name it (tombstones may
  // linger). Kept for labelled nulls only: a constant is never merged
  // away. Each list is linked through one shared arena from its head, so
  // adding a use allocates nothing per node and teardown frees two arrays.
  // A merged-away node's list is emptied by its rebuild; its entries stay
  // in the arena, which holds at most one entry per use ever added.
  struct Use {
    FactId fact;
    int32_t next;  // Arena index of the list's next entry, or -1.
  };
  std::vector<int32_t> use_head_;  // By node; -1 for an empty list.
  std::vector<Use> uses_;
  // Roots merged away since the last Rebuild().
  std::vector<NodeId> absorbed_;

  std::function<void(NodeId, NodeId)> merge_observer_;
};

}  // namespace hadad::chase

#endif  // HADAD_CHASE_INSTANCE_H_
