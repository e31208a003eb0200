#include "chase/engine.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace hadad::chase {

Status ValidateConstraint(const Constraint& constraint) {
  auto check = [&constraint](const char* part, size_t atoms) {
    if (atoms <= kMaxPatternAtoms) return Status::OK();
    return Status::InvalidArgument(
        "constraint '" + constraint.name + "': " + part + " has " +
        std::to_string(atoms) + " atoms; the chase matches at most " +
        std::to_string(kMaxPatternAtoms));
  };
  HADAD_RETURN_IF_ERROR(check("premise", constraint.premise.size()));
  return check("conclusion", constraint.conclusion.size());
}

ChaseEngine::ChaseEngine(Instance* instance,
                         const std::vector<Constraint>& constraints,
                         ChaseOptions options)
    : instance_(instance), constraints_(constraints), options_(options) {
  HADAD_CHECK(instance != nullptr);
  // Interns every predicate the constraints mention, in declaration order,
  // so lookups during matching are total.
  compiled_.reserve(constraints_.size());
  std::vector<std::string> vars;
  for (const Constraint& c : constraints_) {
    vars.clear();
    CompiledConstraint compiled;
    compiled.premise = CompileAtoms(c.premise, instance_, &vars);
    compiled.premise_slots = static_cast<int32_t>(vars.size());
    compiled.conclusion = CompileAtoms(c.conclusion, instance_, &vars);
    for (const auto& [lhs, rhs] : c.equalities) {
      compiled.equalities.emplace_back(CompileTerm(lhs, *instance_, &vars),
                                       CompileTerm(rhs, *instance_, &vars));
    }
    compiled.num_slots = static_cast<int32_t>(vars.size());
    compiled_.push_back(std::move(compiled));
  }
  auto track = [this](CompiledTerm& t) {
    if (!t.is_variable() && t.node == kNoNode) unresolved_.push_back(&t);
  };
  for (CompiledConstraint& c : compiled_) {
    for (auto* atoms : {&c.premise, &c.conclusion}) {
      for (CompiledAtom& atom : *atoms) {
        for (CompiledTerm& t : atom.args) track(t);
      }
    }
    for (auto& [lhs, rhs] : c.equalities) {
      track(lhs);
      track(rhs);
    }
  }
  constants_seen_ = instance_->num_constants();
}

void ChaseEngine::ResolveConstants() {
  if (instance_->num_constants() == constants_seen_) return;
  constants_seen_ = instance_->num_constants();
  std::erase_if(unresolved_, [this](CompiledTerm* t) {
    t->node = instance_->LookupConstant(*t->constant);
    return t->node != kNoNode;
  });
}

NodeId ChaseEngine::InternTerm(CompiledTerm& term) {
  if (term.node == kNoNode) {
    term.node = instance_->InternConstant(*term.constant);
  }
  return term.node;
}

int64_t ChaseEngine::ApplyTgd(const PendingTgd& pending) {
  CompiledConstraint& c =
      compiled_[static_cast<size_t>(pending.constraint_index)];
  const NodeId* nodes = node_pool_.data() + pending.node_offset;
  binding_.assign(nodes, nodes + c.num_slots);
  const FactId* facts = fact_pool_.data() + pending.fact_offset;
  premise_.assign(facts, facts + c.premise.size());
  // Restricted chase: skip if some extension of the match already satisfies
  // the conclusion (checked at application time — an earlier application in
  // this round may have satisfied it).
  ResolveConstants();
  if (HasHomomorphism(c.conclusion, *instance_, binding_)) return 0;
  if (gate_ && !gate_(pending.constraint_index, binding_, premise_)) {
    ++stats_.pruned_applications;
    return 0;
  }
  // Existential variables get one fresh labelled null shared across all
  // conclusion atoms of this application.
  std::vector<FactId> added_facts;
  int64_t added = 0;
  for (CompiledAtom& atom : c.conclusion) {
    std::vector<NodeId> args;
    args.reserve(atom.args.size());
    for (CompiledTerm& t : atom.args) {
      if (!t.is_variable()) {
        args.push_back(InternTerm(t));
        continue;
      }
      NodeId& node = binding_[static_cast<size_t>(t.slot)];
      if (node == kNoNode) node = instance_->FreshNull();
      args.push_back(node);
    }
    Derivation derivation;
    derivation.constraint_index = pending.constraint_index;
    derivation.premise_facts = premise_;
    bool was_added = false;
    FactId fid = instance_->AddFact(atom.predicate, std::move(args),
                                    std::move(derivation),
                                    /*initial=*/false, &was_added);
    if (was_added) {
      ++added;
      added_facts.push_back(fid);
    }
  }
  if (added > 0) {
    ++stats_.tgd_applications;
    stats_.facts_added += added;
    if (facts_added_) facts_added_(added_facts);
  }
  return added;
}

Result<ChaseStats> ChaseEngine::Run() {
  stats_ = ChaseStats{};
  instance_->Rebuild();
  // Semi-naive state: in rounds after the first, a premise only needs
  // re-matching if at least one of its atoms binds a fact added since the
  // previous collection (watermark; fact ids are stable and increasing).
  // EGD merges can create matches between old facts (their nodes become
  // equal), so any round that merged forces a full re-match next round.
  int64_t watermark = 0;
  bool full_match = true;
  for (int round = 0; round < options_.max_rounds; ++round) {
    stats_.rounds = round + 1;
    bool progress = false;
    const int64_t round_start_facts = instance_->fact_id_end();
    const int64_t round_start_merges = stats_.merges;
    // A merge mid-round can create matches between old facts; fall back to
    // full matching for the rest of the round.
    bool merged_this_round = false;

    // Enumerates matches of `c`'s premise, full or semi-naive. Bindings
    // carry a slot for every variable of `c`.
    auto collect = [&](const CompiledConstraint& c, const MatchCallback& cb) {
      ResolveConstants();
      const Binding seed(static_cast<size_t>(c.num_slots), kNoNode);
      if (full_match || merged_this_round) {
        FindHomomorphisms(c.premise, *instance_, seed, cb);
        return;
      }
      const FactId wm = static_cast<FactId>(watermark);
      std::vector<FactRange> ranges(c.premise.size());
      for (size_t pivot = 0; pivot < c.premise.size(); ++pivot) {
        for (size_t i = 0; i < ranges.size(); ++i) {
          ranges[i] = FactRange{};
          if (i < pivot) ranges[i].hi = wm;  // Old only.
        }
        ranges[pivot].lo = wm;  // New only.
        FindHomomorphisms(c.premise, *instance_, seed, cb, &ranges);
      }
    };

    // --- TGD phase: collect matches against the clean instance, then apply.
    pending_.clear();
    node_pool_.clear();
    fact_pool_.clear();
    for (size_t ci = 0; ci < compiled_.size(); ++ci) {
      if (constraints_[ci].kind != Constraint::Kind::kTgd) continue;
      collect(compiled_[ci],
              [&](const Binding& b, const std::vector<FactId>& facts) {
                pending_.push_back(PendingTgd{static_cast<int32_t>(ci),
                                              node_pool_.size(),
                                              fact_pool_.size()});
                node_pool_.insert(node_pool_.end(), b.begin(), b.end());
                fact_pool_.insert(fact_pool_.end(), facts.begin(),
                                  facts.end());
                return true;
              });
    }
    for (const PendingTgd& p : pending_) {
      if (instance_->num_facts() >= options_.max_facts ||
          instance_->num_nodes() >= options_.max_nodes) {
        stats_.budget_exhausted = true;
        break;
      }
      if (ApplyTgd(p) > 0) progress = true;
    }

    // --- EGD phase: merges applied eagerly (Find() at application time
    // keeps them sound even as classes collapse mid-phase).
    for (size_t ci = 0; ci < compiled_.size(); ++ci) {
      if (constraints_[ci].kind != Constraint::Kind::kEgd) continue;
      CompiledConstraint& c = compiled_[ci];
      // Counted, not derived from the pool: a premise that binds no
      // variable still matches once per homomorphism.
      int64_t matches = 0;
      node_pool_.clear();
      collect(c, [&](const Binding& b, const std::vector<FactId>&) {
        node_pool_.insert(node_pool_.end(), b.begin(), b.end());
        ++matches;
        return true;
      });
      for (int64_t m = 0; m < matches; ++m) {
        const NodeId* b = node_pool_.data() + m * c.num_slots;
        for (auto& [lhs, rhs] : c.equalities) {
          NodeId a = lhs.is_variable() ? b[lhs.slot] : InternTerm(lhs);
          NodeId z = rhs.is_variable() ? b[rhs.slot] : InternTerm(rhs);
          if (instance_->Find(a) != instance_->Find(z)) {
            Status st = instance_->Merge(a, z);
            if (!st.ok()) {
              return Status(st.code(), "EGD '" + constraints_[ci].name +
                                           "': " + st.message());
            }
            ++stats_.merges;
            progress = true;
            merged_this_round = true;
          }
        }
      }
      // Matching requires a clean instance; re-canonicalize between EGDs.
      instance_->Rebuild();
    }
    instance_->Rebuild();
    // Semi-naive bookkeeping for the next round.
    full_match = stats_.merges != round_start_merges;
    watermark = round_start_facts;
    const bool stop = round_end_ && round_end_(stats_);
    if (!progress || stats_.budget_exhausted) break;
    if (stop && round + 1 < options_.max_rounds) {
      stats_.stalled = true;
      break;
    }
  }
  return stats_;
}

}  // namespace hadad::chase
