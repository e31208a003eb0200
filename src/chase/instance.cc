#include "chase/instance.h"

#include <algorithm>
#include <cstddef>

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
  use_head_.push_back(-1);
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
  use_head_.push_back(-1);
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
  absorbed_.push_back(absorbed);
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

size_t Instance::ProbeFact(uint64_t hash, int32_t predicate,
                           const std::vector<NodeId>& args) const {
  const size_t mask = fact_table_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const FactSlot& slot = fact_table_[i];
    if (slot.id < 0) return i;
    if (slot.hash != hash) continue;
    const Fact& f = facts_[static_cast<size_t>(slot.id)];
    if (f.predicate == predicate && f.args == args) return i;
  }
}

void Instance::GrowFactTable() {
  std::vector<FactSlot> old = std::move(fact_table_);
  fact_table_.assign(old.empty() ? 64 : 2 * old.size(), FactSlot{});
  const size_t mask = fact_table_.size() - 1;
  for (const FactSlot& slot : old) {
    if (slot.id < 0) continue;
    size_t i = slot.hash & mask;
    while (fact_table_[i].id >= 0) i = (i + 1) & mask;
    fact_table_[i] = slot;
  }
}

void Instance::EraseSlot(size_t i) {
  const size_t mask = fact_table_.size() - 1;
  for (size_t j = (i + 1) & mask; fact_table_[j].id >= 0; j = (j + 1) & mask) {
    // Slot j may move back to the hole at i unless its home lies cyclically
    // in (i, j]: a lookup starting there would then miss it.
    const size_t home = fact_table_[j].hash & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      fact_table_[i] = fact_table_[j];
      i = j;
    }
  }
  fact_table_[i] = FactSlot{};
}

FactId Instance::AddFact(int32_t predicate, std::vector<NodeId> args,
                         bool* added) {
  for (NodeId& a : args) a = Find(a);
  if (2 * (static_cast<size_t>(live_facts_) + 1) > fact_table_.size()) {
    GrowFactTable();
  }
  const uint64_t hash = HashFact(predicate, args);
  FactSlot& slot = fact_table_[ProbeFact(hash, predicate, args)];
  if (slot.id >= 0) {
    if (added != nullptr) *added = false;
    return slot.id;
  }
  FactId id = static_cast<FactId>(facts_.size());
  Fact fact;
  fact.predicate = predicate;
  fact.args = std::move(args);
  facts_.push_back(std::move(fact));
  ++live_facts_;
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

// True iff `node` is among the first `n` entries of `nodes`.
bool OccursIn(const NodeId* nodes, size_t n, NodeId node) {
  return std::find(nodes, nodes + n, node) != nodes + n;
}

// Fact `id` enters or leaves the bucket under `key` (an ArgKey, or a
// predicate for FactsOf).
struct BucketEdit {
  uint64_t key;
  FactId id;

  bool operator<(const BucketEdit& o) const {
    return key != o.key ? key < o.key : id < o.id;
  }
};

// Calls `edit(key, begin, end)` once per key of `edits`, ids ascending.
template <typename Fn>
void ForEachBucket(std::vector<BucketEdit>& edits, Fn edit) {
  std::sort(edits.begin(), edits.end());
  for (size_t lo = 0; lo < edits.size();) {
    size_t hi = lo + 1;
    while (hi < edits.size() && edits[hi].key == edits[lo].key) ++hi;
    edit(edits[lo].key, edits.data() + lo, edits.data() + hi);
    lo = hi;
  }
}

// Removes the ids of [begin, end) (ascending, all present) from an ascending
// bucket, moving only what follows the first of them.
void RemoveFromBucket(std::vector<FactId>& bucket, const BucketEdit* begin,
                      const BucketEdit* end) {
  auto out = std::lower_bound(bucket.begin(), bucket.end(), begin->id);
  auto in = out;
  for (const BucketEdit* e = begin; e != end; ++e) {
    while (in != bucket.end() && *in != e->id) *out++ = *in++;
    HADAD_CHECK(in != bucket.end());
    ++in;
  }
  bucket.erase(std::copy(in, bucket.end(), out), bucket.end());
}

// Inserts the ids of [begin, end) (ascending, none present) into an
// ascending bucket, merging from the back.
void InsertIntoBucket(std::vector<FactId>& bucket, const BucketEdit* begin,
                      const BucketEdit* end) {
  size_t read = bucket.size();
  bucket.resize(read + static_cast<size_t>(end - begin));
  for (size_t write = bucket.size(); end != begin;) {
    if (read > 0 && bucket[read - 1] > end[-1].id) {
      bucket[--write] = bucket[--read];
    } else {
      bucket[--write] = (--end)->id;
    }
  }
}

}  // namespace

void Instance::IndexFact(FactId id) {
  const Fact& f = facts_[static_cast<size_t>(id)];
  for (size_t pos = 0; pos < f.args.size(); ++pos) {
    const NodeId node = f.args[pos];
    arg_index_[ArgKey(f.predicate, static_cast<int>(pos), node)].push_back(id);
    if (!OccursIn(f.args.data(), pos, node)) AddUse(node, id);
  }
}

void Instance::AddUse(NodeId node, FactId fact) {
  if (is_constant_[static_cast<size_t>(node)]) return;
  int32_t& head = use_head_[static_cast<size_t>(node)];
  uses_.push_back(Use{fact, head});
  head = static_cast<int32_t>(uses_.size() - 1);
}

FactId Instance::Survivor(FactId id) const {
  while (!facts_[static_cast<size_t>(id)].live()) {
    id = facts_[static_cast<size_t>(id)].fused_into;
  }
  return id;
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
  const size_t slot =
      ProbeFact(HashFact(predicate, canonical), predicate, canonical);
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
  if (absorbed_.empty()) return;
  // The live facts naming a node merged away since the last rebuild. All
  // other facts are canonical already and keep their slots and buckets.
  std::vector<FactId> touched;
  for (NodeId n : absorbed_) {
    int32_t& head = use_head_[static_cast<size_t>(n)];
    for (int32_t i = head; i >= 0; i = uses_[static_cast<size_t>(i)].next) {
      const FactId id = uses_[static_cast<size_t>(i)].fact;
      if (facts_[static_cast<size_t>(id)].live()) touched.push_back(id);
    }
    head = -1;  // `n` is never a root again.
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Take the touched facts out of the table (under their stored args) and
  // canonicalize them. A touched fact that now equals an untouched later
  // fact must survive it, so that one leaves the table too and joins the
  // re-insertion below in id order.
  for (FactId id : touched) {
    const Fact& f = facts_[static_cast<size_t>(id)];
    size_t i = HashFact(f.predicate, f.args) & (fact_table_.size() - 1);
    while (fact_table_[i].id != id) i = (i + 1) & (fact_table_.size() - 1);
    EraseSlot(i);
  }
  std::vector<NodeId> old_args;  // The touched facts' args, concatenated.
  std::vector<FactId> displaced;
  for (FactId id : touched) {
    Fact& f = facts_[static_cast<size_t>(id)];
    old_args.insert(old_args.end(), f.args.begin(), f.args.end());
    for (NodeId& a : f.args) a = Find(a);
    const size_t i = ProbeFact(HashFact(f.predicate, f.args), f.predicate,
                               f.args);
    if (fact_table_[i].id > id) {
      displaced.push_back(fact_table_[i].id);
      EraseSlot(i);
    }
  }
  std::sort(displaced.begin(), displaced.end());
  std::vector<FactId> reinsert(touched.size() + displaced.size());
  std::merge(touched.begin(), touched.end(), displaced.begin(),
             displaced.end(), reinsert.begin());

  // Re-insert in ascending id order, so the lowest id of a group that became
  // equal survives: the table then holds what a rebuild from scratch would.
  for (FactId id : reinsert) {
    Fact& f = facts_[static_cast<size_t>(id)];
    const uint64_t hash = HashFact(f.predicate, f.args);
    FactSlot& slot = fact_table_[ProbeFact(hash, f.predicate, f.args)];
    if (slot.id < 0) {
      slot = FactSlot{hash, id};
      continue;
    }
    f.fused_into = slot.id;
    --live_facts_;
  }

  // Index upkeep. A bucket under a merged-away node can never be looked up
  // again (FactsWith canonicalizes), and every fact in it was touched, so it
  // goes whole; a touched fact that survives moves to its new root's
  // bucket. Tombstones leave every bucket they were in.
  std::vector<uint64_t> dead_keys;
  std::vector<BucketEdit> arg_inserts;
  std::vector<BucketEdit> arg_removals;
  std::vector<BucketEdit> predicate_removals;
  size_t offset = 0;
  for (FactId id : touched) {
    const Fact& f = facts_[static_cast<size_t>(id)];
    const NodeId* old = old_args.data() + offset;
    offset += f.args.size();
    if (!f.live()) {
      predicate_removals.push_back(
          BucketEdit{static_cast<uint64_t>(f.predicate), id});
    }
    for (size_t pos = 0; pos < f.args.size(); ++pos) {
      const NodeId now = f.args[pos];
      const uint64_t key = ArgKey(f.predicate, static_cast<int>(pos), now);
      if (old[pos] == now) {
        if (!f.live()) arg_removals.push_back(BucketEdit{key, id});
        continue;
      }
      dead_keys.push_back(ArgKey(f.predicate, static_cast<int>(pos), old[pos]));
      if (!f.live()) continue;
      arg_inserts.push_back(BucketEdit{key, id});
      // A node new to the fact gets it on its use list (once).
      if (!OccursIn(old, f.args.size(), now) &&
          !OccursIn(f.args.data(), pos, now)) {
        AddUse(now, id);
      }
    }
  }
  for (FactId id : displaced) {  // Untouched, so canonical; all fused.
    const Fact& f = facts_[static_cast<size_t>(id)];
    predicate_removals.push_back(
        BucketEdit{static_cast<uint64_t>(f.predicate), id});
    for (size_t pos = 0; pos < f.args.size(); ++pos) {
      arg_removals.push_back(BucketEdit{
          ArgKey(f.predicate, static_cast<int>(pos), f.args[pos]), id});
    }
  }
  for (uint64_t key : dead_keys) arg_index_.erase(key);
  ForEachBucket(predicate_removals, [this](uint64_t predicate,
                                           const BucketEdit* begin,
                                           const BucketEdit* end) {
    RemoveFromBucket(facts_by_predicate_[static_cast<size_t>(predicate)],
                     begin, end);
  });
  ForEachBucket(arg_removals, [this](uint64_t key, const BucketEdit* begin,
                                     const BucketEdit* end) {
    auto it = arg_index_.find(key);
    HADAD_CHECK(it != arg_index_.end());
    RemoveFromBucket(it->second, begin, end);
    if (it->second.empty()) arg_index_.erase(it);
  });
  ForEachBucket(arg_inserts, [this](uint64_t key, const BucketEdit* begin,
                                    const BucketEdit* end) {
    InsertIntoBucket(arg_index_[key], begin, end);
  });
  absorbed_.clear();
}

std::string Instance::DebugString() const {
  std::string out;
  for (const Fact& f : facts_) {
    if (!f.live()) continue;
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
