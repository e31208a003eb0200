#include "chase/instance.h"

#include <algorithm>

#include "common/check.h"

namespace hadad::chase {

NodeId Instance::InternConstant(const std::string& value) {
  auto it = constant_ids_.find(value);
  if (it != constant_ids_.end()) return it->second;
  NodeId id = static_cast<NodeId>(parent_.size());
  parent_.push_back(id);
  size_.push_back(1);
  is_constant_.push_back(true);
  constant_value_.push_back(value);
  constant_ids_.emplace(value, id);
  return id;
}

NodeId Instance::LookupConstant(const std::string& value) const {
  auto it = constant_ids_.find(value);
  return it == constant_ids_.end() ? kNoNode : Find(it->second);
}

NodeId Instance::FreshNull() {
  NodeId id = static_cast<NodeId>(parent_.size());
  parent_.push_back(id);
  size_.push_back(1);
  is_constant_.push_back(false);
  constant_value_.emplace_back();
  return id;
}

NodeId Instance::Find(NodeId n) const {
  HADAD_CHECK(n >= 0 && n < static_cast<NodeId>(parent_.size()));
  while (parent_[static_cast<size_t>(n)] != n) {
    // Path halving.
    parent_[static_cast<size_t>(n)] =
        parent_[static_cast<size_t>(parent_[static_cast<size_t>(n)])];
    n = parent_[static_cast<size_t>(n)];
  }
  return n;
}

bool Instance::IsConstant(NodeId n) const {
  return is_constant_[static_cast<size_t>(Find(n))];
}

const std::string& Instance::ConstantValue(NodeId n) const {
  NodeId root = Find(n);
  HADAD_CHECK_MSG(is_constant_[static_cast<size_t>(root)],
                  "ConstantValue on a labelled null");
  return constant_value_[static_cast<size_t>(root)];
}

Status Instance::Merge(NodeId a, NodeId b) {
  NodeId ra = Find(a);
  NodeId rb = Find(b);
  if (ra == rb) return Status::OK();
  const bool ca = is_constant_[static_cast<size_t>(ra)];
  const bool cb = is_constant_[static_cast<size_t>(rb)];
  if (ca && cb) {
    return Status::InvalidArgument(
        "EGD equates distinct constants \"" +
        constant_value_[static_cast<size_t>(ra)] + "\" and \"" +
        constant_value_[static_cast<size_t>(rb)] +
        "\": constraints are unsatisfiable on this instance");
  }
  // Constants always survive as root; otherwise union by size.
  NodeId survivor = ra;
  NodeId absorbed = rb;
  if (cb || (!ca && size_[static_cast<size_t>(rb)] >
                         size_[static_cast<size_t>(ra)])) {
    survivor = rb;
    absorbed = ra;
  }
  parent_[static_cast<size_t>(absorbed)] = survivor;
  size_[static_cast<size_t>(survivor)] += size_[static_cast<size_t>(absorbed)];
  dirty_ = true;
  if (merge_observer_) merge_observer_(absorbed, survivor);
  return Status::OK();
}

int32_t Instance::InternPredicate(const std::string& name) {
  auto it = predicate_ids_.find(name);
  if (it != predicate_ids_.end()) return it->second;
  int32_t id = static_cast<int32_t>(predicate_names_.size());
  predicate_names_.push_back(name);
  predicate_ids_.emplace(name, id);
  facts_by_predicate_.emplace_back();
  return id;
}

int32_t Instance::LookupPredicate(const std::string& name) const {
  auto it = predicate_ids_.find(name);
  return it == predicate_ids_.end() ? -1 : it->second;
}

const std::string& Instance::PredicateName(int32_t id) const {
  return predicate_names_[static_cast<size_t>(id)];
}

namespace {

uint64_t HashFact(int32_t predicate, const std::vector<NodeId>& args) {
  uint64_t h = static_cast<uint32_t>(predicate);
  for (NodeId a : args) {
    h = (h ^ static_cast<uint32_t>(a)) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  // splitmix64 finalizer: linear probing indexes by the low bits.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

size_t Instance::ProbeFact(const std::vector<Fact>& facts, uint64_t hash,
                           int32_t predicate,
                           const std::vector<NodeId>& args) const {
  const size_t mask = fact_table_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const FactSlot& slot = fact_table_[i];
    if (slot.id < 0) return i;
    if (slot.hash != hash) continue;
    const Fact& f = facts[static_cast<size_t>(slot.id)];
    if (f.predicate == predicate && f.args == args) return i;
  }
}

void Instance::ResetFactTable(size_t facts) {
  size_t capacity = 64;
  while (capacity < 2 * facts) capacity *= 2;
  fact_table_.assign(capacity, FactSlot{});
}

FactId Instance::AddFact(int32_t predicate, std::vector<NodeId> args,
                         Derivation derivation, bool initial, bool* added) {
  for (NodeId& a : args) a = Find(a);
  if (2 * (facts_.size() + 1) > fact_table_.size()) {
    // Grow: reinsert every stored slot by its recorded hash.
    std::vector<FactSlot> old = std::move(fact_table_);
    ResetFactTable(facts_.size() + 1);
    const size_t mask = fact_table_.size() - 1;
    for (const FactSlot& slot : old) {
      if (slot.id < 0) continue;
      size_t i = slot.hash & mask;
      while (fact_table_[i].id >= 0) i = (i + 1) & mask;
      fact_table_[i] = slot;
    }
  }
  const uint64_t hash = HashFact(predicate, args);
  FactSlot& slot = fact_table_[ProbeFact(facts_, hash, predicate, args)];
  if (slot.id >= 0) {
    Fact& existing = facts_[static_cast<size_t>(slot.id)];
    if (derivation.constraint_index >= 0 ||
        !derivation.premise_facts.empty()) {
      existing.derivations.push_back(std::move(derivation));
    }
    existing.initial = existing.initial || initial;
    if (added != nullptr) *added = false;
    return slot.id;
  }
  FactId id = static_cast<FactId>(facts_.size());
  Fact fact;
  fact.predicate = predicate;
  fact.args = std::move(args);
  fact.initial = initial;
  if (derivation.constraint_index >= 0 || !derivation.premise_facts.empty()) {
    fact.derivations.push_back(std::move(derivation));
  }
  facts_.push_back(std::move(fact));
  slot = FactSlot{hash, id};
  facts_by_predicate_[static_cast<size_t>(predicate)].push_back(id);
  IndexFact(id);
  if (added != nullptr) *added = true;
  return id;
}

namespace {

uint64_t ArgKey(int32_t predicate, int position, NodeId node) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(predicate)) << 40) ^
         (static_cast<uint64_t>(static_cast<uint32_t>(position)) << 32) ^
         static_cast<uint64_t>(static_cast<uint32_t>(node));
}

}  // namespace

void Instance::IndexFact(FactId id) {
  const Fact& f = facts_[static_cast<size_t>(id)];
  for (size_t pos = 0; pos < f.args.size(); ++pos) {
    arg_index_[ArgKey(f.predicate, static_cast<int>(pos), f.args[pos])]
        .push_back(id);
  }
}

const std::vector<FactId>& Instance::FactsWith(int32_t predicate,
                                               int position,
                                               NodeId node) const {
  auto it = arg_index_.find(ArgKey(predicate, position, Find(node)));
  return it == arg_index_.end() ? empty_ : it->second;
}

bool Instance::HasFact(int32_t predicate,
                       const std::vector<NodeId>& args) const {
  if (fact_table_.empty()) return false;
  std::vector<NodeId> canonical = args;
  for (NodeId& a : canonical) a = Find(a);
  const size_t slot = ProbeFact(facts_, HashFact(predicate, canonical),
                                predicate, canonical);
  return fact_table_[slot].id >= 0;
}

const std::vector<FactId>& Instance::FactsOf(int32_t predicate) const {
  if (predicate < 0 ||
      predicate >= static_cast<int32_t>(facts_by_predicate_.size())) {
    return empty_;
  }
  return facts_by_predicate_[static_cast<size_t>(predicate)];
}

void Instance::Rebuild() {
  if (!dirty_) return;
  std::vector<Fact> new_facts;
  new_facts.reserve(facts_.size());
  ResetFactTable(facts_.size());
  std::vector<FactId> remap(facts_.size(), -1);
  for (size_t old_id = 0; old_id < facts_.size(); ++old_id) {
    Fact& f = facts_[old_id];
    for (NodeId& a : f.args) a = Find(a);
    const uint64_t hash = HashFact(f.predicate, f.args);
    FactSlot& slot =
        fact_table_[ProbeFact(new_facts, hash, f.predicate, f.args)];
    if (slot.id >= 0) {
      // Fuse into the surviving fact: provenance becomes a disjunction.
      Fact& survivor = new_facts[static_cast<size_t>(slot.id)];
      survivor.initial = survivor.initial || f.initial;
      for (Derivation& d : f.derivations) {
        survivor.derivations.push_back(std::move(d));
      }
      remap[old_id] = slot.id;
    } else {
      FactId id = static_cast<FactId>(new_facts.size());
      slot = FactSlot{hash, id};
      new_facts.push_back(std::move(f));
      remap[old_id] = id;
    }
  }
  // Remap derivation premises to surviving fact ids.
  for (Fact& f : new_facts) {
    for (Derivation& d : f.derivations) {
      for (FactId& p : d.premise_facts) {
        p = remap[static_cast<size_t>(p)];
      }
    }
  }
  facts_ = std::move(new_facts);
  for (auto& bucket : facts_by_predicate_) bucket.clear();
  arg_index_.clear();
  for (size_t id = 0; id < facts_.size(); ++id) {
    facts_by_predicate_[static_cast<size_t>(facts_[id].predicate)].push_back(
        static_cast<FactId>(id));
    IndexFact(static_cast<FactId>(id));
  }
  dirty_ = false;
}

std::string Instance::DebugString() const {
  std::string out;
  for (size_t id = 0; id < facts_.size(); ++id) {
    const Fact& f = facts_[id];
    out += PredicateName(f.predicate);
    out += '(';
    for (size_t i = 0; i < f.args.size(); ++i) {
      if (i > 0) out += ", ";
      NodeId n = Find(f.args[i]);
      if (is_constant_[static_cast<size_t>(n)]) {
        out += '"' + constant_value_[static_cast<size_t>(n)] + '"';
      } else {
        out += '_' + std::to_string(n);
      }
    }
    out += ")\n";
  }
  return out;
}

}  // namespace hadad::chase
