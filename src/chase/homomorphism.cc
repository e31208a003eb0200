#include "chase/homomorphism.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace hadad::chase {

CompiledTerm CompileTerm(const Term& t, const Instance& instance,
                         std::vector<std::string>* vars) {
  CompiledTerm term;
  if (t.is_constant()) {
    term.constant = &t.text;
    term.node = instance.LookupConstant(t.text);
    return term;
  }
  auto it = std::find(vars->begin(), vars->end(), t.text);
  term.slot = static_cast<int32_t>(it - vars->begin());
  if (it == vars->end()) vars->push_back(t.text);
  return term;
}

std::vector<CompiledAtom> CompileAtoms(const std::vector<Atom>& atoms,
                                       Instance* instance,
                                       std::vector<std::string>* vars) {
  std::vector<CompiledAtom> out;
  out.reserve(atoms.size());
  for (const Atom& atom : atoms) {
    CompiledAtom compiled;
    compiled.predicate = instance->InternPredicate(atom.predicate);
    compiled.args.reserve(atom.args.size());
    for (const Term& t : atom.args) {
      compiled.args.push_back(CompileTerm(t, *instance, vars));
    }
    out.push_back(std::move(compiled));
  }
  return out;
}

namespace {

struct SearchState {
  const std::vector<CompiledAtom>* pattern;
  const Instance* instance;
  const MatchCallback* cb;
  const std::vector<FactRange>* ranges;  // Optional, per atom.
  Binding binding;
  std::vector<FactId> matched;  // Indexed by pattern-atom position.
  std::vector<int32_t> trail;   // Slots bound so far, for backtracking.
  uint32_t done_mask = 0;
  bool stopped = false;
};

// Tries to unify pattern atom `atom` with fact `f`. Newly bound slots are
// pushed on the trail; the caller unwinds them.
bool UnifyAtom(const CompiledAtom& atom, const Fact& f, SearchState& st) {
  if (atom.args.size() != f.args.size()) return false;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const CompiledTerm& t = atom.args[i];
    const NodeId node = st.instance->Find(f.args[i]);
    if (!t.is_variable()) {
      if (t.node == kNoNode || t.node != node) return false;
      continue;
    }
    NodeId& bound = st.binding[static_cast<size_t>(t.slot)];
    if (bound == kNoNode) {
      bound = node;
      st.trail.push_back(t.slot);
    } else if (bound != node) {
      return false;
    }
  }
  return true;
}

// Candidate facts for `atom` under the current binding: the smallest
// argument-index bucket among bound positions, else the whole relation.
// Returns nullptr when the atom provably has no matches.
const std::vector<FactId>* CandidatesFor(const CompiledAtom& atom,
                                         const SearchState& st) {
  const std::vector<FactId>* best = &st.instance->FactsOf(atom.predicate);
  for (size_t p = 0; p < atom.args.size(); ++p) {
    const CompiledTerm& t = atom.args[p];
    NodeId node = kNoNode;
    if (t.is_variable()) {
      node = st.binding[static_cast<size_t>(t.slot)];
      if (node == kNoNode) continue;
    } else {
      node = t.node;
      if (node == kNoNode) return nullptr;  // Constant never interned.
    }
    const std::vector<FactId>& bucket =
        st.instance->FactsWith(atom.predicate, static_cast<int>(p), node);
    if (bucket.size() < best->size()) best = &bucket;
  }
  return best;
}

void Search(SearchState& st, size_t remaining) {
  if (remaining == 0) {
    if (!(*st.cb)(st.binding, st.matched)) st.stopped = true;
    return;
  }
  // Dynamic atom ordering: expand the most selective remaining atom.
  const std::vector<CompiledAtom>& pattern = *st.pattern;
  size_t best_atom = pattern.size();
  const std::vector<FactId>* best_list = nullptr;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (st.done_mask & (1u << i)) continue;
    const std::vector<FactId>* list = CandidatesFor(pattern[i], st);
    if (list == nullptr) return;  // Some atom can never match: dead branch.
    if (best_list == nullptr || list->size() < best_list->size()) {
      best_list = list;
      best_atom = i;
      if (list->empty()) break;
    }
  }
  const CompiledAtom& atom = pattern[best_atom];
  FactRange range;
  if (st.ranges != nullptr) range = (*st.ranges)[best_atom];
  st.done_mask |= (1u << best_atom);
  const size_t mark = st.trail.size();
  // In place: the instance does not change during a search (see the header).
  for (FactId fid : *best_list) {
    if (fid < range.lo || fid >= range.hi) continue;
    if (UnifyAtom(atom, st.instance->fact(fid), st)) {
      st.matched[best_atom] = fid;
      Search(st, remaining - 1);
    }
    while (st.trail.size() > mark) {
      st.binding[static_cast<size_t>(st.trail.back())] = kNoNode;
      st.trail.pop_back();
    }
    if (st.stopped) break;
  }
  st.done_mask &= ~(1u << best_atom);
}

}  // namespace

void FindHomomorphisms(const std::vector<CompiledAtom>& pattern,
                       const Instance& instance, const Binding& seed,
                       const MatchCallback& cb,
                       const std::vector<FactRange>* ranges) {
  HADAD_CHECK_LE(pattern.size(), kMaxPatternAtoms);
  SearchState st;
  st.pattern = &pattern;
  st.instance = &instance;
  st.cb = &cb;
  st.ranges = ranges;
  st.binding = seed;
  st.matched.assign(pattern.size(), -1);
  for (NodeId& node : st.binding) {
    if (node != kNoNode) node = instance.Find(node);
  }
  Search(st, pattern.size());
}

bool HasHomomorphism(const std::vector<CompiledAtom>& pattern,
                     const Instance& instance, const Binding& seed) {
  bool found = false;
  FindHomomorphisms(pattern, instance, seed,
                    [&found](const Binding&, const std::vector<FactId>&) {
                      found = true;
                      return false;  // Stop at the first match.
                    });
  return found;
}

}  // namespace hadad::chase
