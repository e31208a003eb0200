#include "pacb/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/timer.h"
#include "la/encoder.h"
#include "la/parser.h"
#include "la/vrem.h"
#include "pacb/meta_tracker.h"
#include "pacb/op_signature.h"

namespace hadad::pacb {

namespace {

namespace vrem = la::vrem;
using chase::Binding;
using chase::FactId;
using chase::Instance;
using chase::NodeId;
using la::Expr;
using la::ExprPtr;
using la::OpKind;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

// RW_find ends the chase after this many rounds in a row that do not lower
// the goal class's best extraction cost; round 1 only sets the baseline.
// PACB++ chases to termination, so this trades plan quality on untried
// inputs for latency (docs/ARCHITECTURE.md, "Deviations from the paper");
// soundness holds regardless (Theorem 8.1). On the 57 benchmark pipelines,
// both estimators, with and without the 12 V_exp views, 3 is the smallest
// patience that keeps every best cost: P2.21 improves after one flat round,
// and P1.27 with the views after two. Keeping P1.20's text with the views
// (trace(V2); 3 finds the equal-cost trace(V7)) would need 6, which saves
// 1.06x. Total RW_find saving simulated at patience 2 / 3 / 4 (seed 42, no
// views): naive 12.1x / 4.0x / 2.7x, MNC 7.4x / 2.2x / 1.4x.
constexpr int kStallRounds = 3;

// One way to obtain a class: scan a named input (base matrix or view), use
// a scalar literal, or apply the operator of fact `fact` (output
// `output_slot` of its signature).
struct Derivation {
  enum class Kind { kScan, kScalar, kOp };
  Kind kind;
  std::string scan_name;   // kScan.
  double scalar_value = 0; // kScalar.
  FactId fact = -1;        // kOp.
  int output_slot = 0;     // kOp: index into OpSignature::outputs.
};

struct ClassState {
  double contrib = kInf;  // Min cost of producing this class, counting its
                          // own output size when operator-derived (§7.1).
  Derivation best;
  bool has_option = false;
};

// The per-call rewriting machinery: one saturated instance per Optimize().
class RewriteSession {
 public:
  RewriteSession(const la::MetaCatalog& catalog,
                 const OptimizerOptions& options,
                 const std::vector<chase::Constraint>& constraints,
                 const std::vector<MorpheusJoinDecl>& morpheus_joins,
                 const cost::LeafMetaFn& leaf_meta,
                 const cost::SparsityEstimator* estimator)
      : catalog_(catalog),
        options_(options),
        constraints_(constraints),
        morpheus_joins_(morpheus_joins),
        leaf_meta_(leaf_meta),
        estimator_(estimator),
        signatures_(&instance_),
        tracker_(&instance_, &signatures_, estimator) {}

  Result<RewriteResult> Run(const ExprPtr& expr);

 private:
  Status SeedInstance(const la::EncodedExpr& enc);
  bool Gate(const chase::CompiledConstraint& c, const Binding& binding,
            const std::vector<FactId>& premise);
  void ComputeContribs();
  // Calls fn(derivation, cost) for each way extraction may produce the goal
  // class, from the last ComputeContribs(): its scan/scalar option
  // (view-only rewriting, RW_0 of §6.3) at 0, and each operator fact output
  // that is the goal class at its inputs' contribs (the goal's own size is
  // free). PACB++ only surfaces minimum-cost-bounded rewritings, so under
  // pruning a fact costing more than T is skipped; the naive algorithm
  // (prune = false) enumerates all of them (§7.3).
  template <typename Fn>
  void ForEachGoalOption(Fn&& fn);
  // The round-end hook: computes contribs, then returns true once
  // kStallRounds rounds in a row have not lowered the goal's best
  // extraction cost.
  bool OnRoundEnd(const chase::ChaseStats& stats);
  Result<ExprPtr> Decode(NodeId cls, int depth);

  const la::MetaCatalog& catalog_;
  const OptimizerOptions& options_;
  const std::vector<chase::Constraint>& constraints_;
  const std::vector<MorpheusJoinDecl>& morpheus_joins_;
  const cost::LeafMetaFn& leaf_meta_;
  const cost::SparsityEstimator* estimator_;

  Instance instance_;
  SignatureTable signatures_;
  MetaTracker tracker_;
  int32_t name_predicate_ = -1;
  double threshold_ = kInf;  // T: cost of the best rewriting known so far.
  // Pruning bound: max(T, largest class of the original encoding). Chase
  // steps at the scale of the query's own operands always pass (they belong
  // to the unpruned chase phase of PACB); only super-linear blowups like
  // Example 7.2's (MN)M fragment are rejected.
  double prune_bound_ = kInf;
  NodeId root_ = chase::kNoNode;
  std::unordered_map<NodeId, ClassState> classes_;
  // Stall rule state: the goal's best extraction cost so far, and how many
  // rounds since it last fell.
  double goal_best_ = kInf;
  int flat_rounds_ = 0;
};

Status RewriteSession::SeedInstance(const la::EncodedExpr& enc) {
  std::unordered_map<std::string, NodeId> var_nodes;
  auto node_of = [&](const chase::Term& t) -> NodeId {
    if (t.is_constant()) return instance_.InternConstant(t.text);
    auto it = var_nodes.find(t.text);
    if (it == var_nodes.end()) {
      it = var_nodes.emplace(t.text, instance_.FreshNull()).first;
    }
    return it->second;
  };
  auto add_atom = [&](const chase::Atom& atom) {
    std::vector<NodeId> args;
    args.reserve(atom.args.size());
    for (const chase::Term& t : atom.args) args.push_back(node_of(t));
    instance_.AddFact(instance_.InternPredicate(atom.predicate),
                      std::move(args), chase::Derivation{}, /*initial=*/true,
                      nullptr);
  };
  for (const chase::Atom& atom : enc.query.body) add_atom(atom);
  root_ = var_nodes.at(enc.root_var);

  // Seed base metadata on every named class (and every view name the query
  // mentions); everything else is derived by propagation.
  for (const chase::Atom& atom : enc.query.body) {
    if (atom.predicate != vrem::kName) continue;
    const std::string& name = atom.args[1].text;
    if (!catalog_.contains(name)) {
      return Status::NotFound("no metadata for matrix '" + name + "'");
    }
    HADAD_ASSIGN_OR_RETURN(cost::ClassMeta meta, leaf_meta_(name));
    tracker_.Seed(var_nodes.at(atom.args[0].text), std::move(meta));
  }

  // Morpheus normalized-matrix declarations: bind by name (I_name merges
  // these nodes with the query's if it mentions the same matrices).
  int32_t name_pred = instance_.InternPredicate(vrem::kName);
  int32_t mj_pred = instance_.InternPredicate(vrem::kMorpheusJoin);
  for (const MorpheusJoinDecl& decl : morpheus_joins_) {
    std::vector<NodeId> nodes;
    for (const std::string& n : {decl.t, decl.k, decl.u, decl.m}) {
      if (!catalog_.contains(n)) {
        return Status::NotFound("morpheus join references unknown matrix '" +
                                n + "'");
      }
      NodeId node = instance_.FreshNull();
      instance_.AddFact(name_pred, {node, instance_.InternConstant(n)},
                        chase::Derivation{}, /*initial=*/true, nullptr);
      HADAD_ASSIGN_OR_RETURN(cost::ClassMeta meta, leaf_meta_(n));
      tracker_.Seed(node, std::move(meta));
      nodes.push_back(node);
    }
    instance_.AddFact(mj_pred, std::move(nodes), chase::Derivation{},
                      /*initial=*/true, nullptr);
  }
  tracker_.PropagateAll();
  return Status::OK();
}

bool RewriteSession::Gate(const chase::CompiledConstraint& c,
                          const Binding& binding,
                          const std::vector<FactId>& premise) {
  // View-IO constraints belong to PACB's chase phase, which is never pruned
  // (§4.2): their premise is the view's body, but *using* the view computes
  // none of it. They conclude only `name` atoms.
  if (std::all_of(c.conclusion.begin(), c.conclusion.end(),
                  [this](const chase::CompiledAtom& atom) {
                    return atom.predicate == name_predicate_;
                  })) {
    return true;
  }
  // (1) Premise-fragment pruning (Example 7.2): the subquery determined by
  // the premise image must not already cost more than T. Its cost is the
  // total size of operator outputs consumed *within* the fragment.
  std::unordered_set<NodeId> used_as_input;
  std::vector<NodeId> outputs;
  for (FactId fid : premise) {
    const chase::Fact& f = instance_.fact(fid);
    const OpSignature* sig = signatures_.Get(f.predicate);
    if (sig == nullptr) continue;
    for (int pos : sig->input_positions) {
      used_as_input.insert(instance_.Find(f.args[static_cast<size_t>(pos)]));
    }
    for (const OpOutput& out : sig->outputs) {
      outputs.push_back(
          instance_.Find(f.args[static_cast<size_t>(out.position)]));
    }
  }
  double fragment = 0.0;
  for (NodeId n : outputs) {
    if (!used_as_input.contains(n)) continue;
    double s = tracker_.SizeOf(n);
    if (!std::isinf(s)) fragment += s;
  }
  if (fragment > prune_bound_ + kEps) return false;

  // (2) Conclusion-output pruning: an operator output larger than T can
  // only appear in plans costing more than T (γ is monotone), unless it is
  // the goal class itself. Existential slots are unbound (kNoNode).
  const NodeId root = instance_.Find(root_);
  for (const chase::CompiledAtom& atom : c.conclusion) {
    const OpSignature* sig = signatures_.Get(atom.predicate);
    if (sig == nullptr) continue;
    std::vector<cost::ClassMeta> inputs;
    bool all_known = true;
    for (int pos : sig->input_positions) {
      const chase::CompiledTerm& t = atom.args[static_cast<size_t>(pos)];
      const NodeId n =
          t.is_variable() ? binding[static_cast<size_t>(t.slot)] : t.node;
      const cost::ClassMeta* m =
          (n == chase::kNoNode) ? nullptr : tracker_.Get(n);
      if (m == nullptr) {
        all_known = false;
        break;
      }
      inputs.push_back(*m);
    }
    if (!all_known) continue;
    for (const OpOutput& out : sig->outputs) {
      const chase::CompiledTerm& t =
          atom.args[static_cast<size_t>(out.position)];
      if (t.is_variable()) {
        const NodeId n = binding[static_cast<size_t>(t.slot)];
        if (n != chase::kNoNode && instance_.Find(n) == root) {
          continue;  // The goal class: its own size never counts.
        }
      }
      auto meta = estimator_->Propagate(instance_.PredicateName(atom.predicate),
                                        inputs, out.output_index);
      if (meta.has_value() && meta->SizeEstimate() > prune_bound_ + kEps) {
        return false;
      }
    }
  }
  return true;
}

void RewriteSession::ComputeContribs() {
  classes_.clear();
  // Scan/scalar options.
  int32_t name_pred = instance_.LookupPredicate(vrem::kName);
  if (name_pred >= 0) {
    for (FactId fid : instance_.FactsOf(name_pred)) {
      const chase::Fact& f = instance_.fact(fid);
      const std::string& nm = instance_.ConstantValue(f.args[1]);
      if (!catalog_.contains(nm)) continue;
      ClassState& st = classes_[instance_.Find(f.args[0])];
      if (0.0 < st.contrib) {
        st.contrib = 0.0;
        st.best = Derivation{Derivation::Kind::kScan, nm, 0, -1, 0};
        st.has_option = true;
      }
    }
  }
  int32_t sconst_pred = instance_.LookupPredicate(vrem::kSconst);
  if (sconst_pred >= 0) {
    for (FactId fid : instance_.FactsOf(sconst_pred)) {
      const chase::Fact& f = instance_.fact(fid);
      ClassState& st = classes_[instance_.Find(f.args[0])];
      if (0.0 < st.contrib) {
        st.contrib = 0.0;
        st.best = Derivation{Derivation::Kind::kScalar, "",
                             std::strtod(
                                 instance_.ConstantValue(f.args[1]).c_str(),
                                 nullptr),
                             -1, 0};
        st.has_option = true;
      }
    }
  }
  // Operator options, relaxed to fixpoint (derivations can be cyclic; every
  // operator option has weight ≥ its output size ≥ 1, so Bellman-Ford
  // converges).
  struct OpOption {
    NodeId out;
    std::vector<NodeId> ins;
    FactId fact;
    int slot;
    double out_size;
  };
  std::vector<OpOption> ops;
  for (FactId fid = 0; fid < instance_.fact_id_end(); ++fid) {
    const chase::Fact& f = instance_.fact(fid);
    if (!f.live()) continue;
    const OpSignature* sig = signatures_.Get(f.predicate);
    if (sig == nullptr) continue;
    std::vector<NodeId> ins;
    ins.reserve(sig->input_positions.size());
    for (int pos : sig->input_positions) {
      ins.push_back(instance_.Find(f.args[static_cast<size_t>(pos)]));
    }
    for (size_t slot = 0; slot < sig->outputs.size(); ++slot) {
      NodeId out = instance_.Find(
          f.args[static_cast<size_t>(sig->outputs[slot].position)]);
      double out_size = tracker_.SizeOf(out);
      if (std::isinf(out_size)) continue;
      ops.push_back(OpOption{out, ins, fid, static_cast<int>(slot),
                             out_size});
    }
  }
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 256) {
    changed = false;
    for (const OpOption& op : ops) {
      double cand = op.out_size;
      for (NodeId in : op.ins) {
        auto it = classes_.find(in);
        if (it == classes_.end() || !it->second.has_option) {
          cand = kInf;
          break;
        }
        cand += it->second.contrib;
      }
      if (std::isinf(cand)) continue;
      ClassState& st = classes_[op.out];
      if (cand < st.contrib - kEps) {
        st.contrib = cand;
        st.best = Derivation{Derivation::Kind::kOp, "", 0, op.fact, op.slot};
        st.has_option = true;
        changed = true;
      }
    }
  }
}

template <typename Fn>
void RewriteSession::ForEachGoalOption(Fn&& fn) {
  const NodeId root = instance_.Find(root_);
  auto root_state = classes_.find(root);
  if (root_state != classes_.end() && root_state->second.has_option &&
      root_state->second.best.kind != Derivation::Kind::kOp) {
    fn(root_state->second.best, 0.0);
  }
  for (FactId fid = 0; fid < instance_.fact_id_end(); ++fid) {
    const chase::Fact& f = instance_.fact(fid);
    if (!f.live()) continue;
    const OpSignature* sig = signatures_.Get(f.predicate);
    if (sig == nullptr) continue;
    for (size_t slot = 0; slot < sig->outputs.size(); ++slot) {
      NodeId out = instance_.Find(
          f.args[static_cast<size_t>(sig->outputs[slot].position)]);
      if (out != root) continue;
      double cost = 0.0;
      for (int pos : sig->input_positions) {
        auto it = classes_.find(
            instance_.Find(f.args[static_cast<size_t>(pos)]));
        if (it == classes_.end() || !it->second.has_option) {
          cost = kInf;
          break;
        }
        cost += it->second.contrib;
      }
      if (std::isinf(cost) || (options_.prune && cost > threshold_ + kEps)) {
        continue;
      }
      fn(Derivation{Derivation::Kind::kOp, "", 0, fid, static_cast<int>(slot)},
         cost);
    }
  }
}

bool RewriteSession::OnRoundEnd(const chase::ChaseStats& stats) {
  ComputeContribs();
  double best = kInf;
  ForEachGoalOption(
      [&best](const Derivation&, double cost) { best = std::min(best, cost); });
  if (stats.rounds == 1 || best < goal_best_ - kEps) {
    goal_best_ = best;
    flat_rounds_ = 0;
    return false;
  }
  return ++flat_rounds_ >= kStallRounds;
}

Result<ExprPtr> RewriteSession::Decode(NodeId cls, int depth) {
  if (depth > 256) {
    return Status::Internal("decode recursion limit hit (cyclic extraction)");
  }
  auto it = classes_.find(instance_.Find(cls));
  if (it == classes_.end() || !it->second.has_option) {
    return Status::NotFound("class has no decodable derivation");
  }
  const Derivation& d = it->second.best;
  switch (d.kind) {
    case Derivation::Kind::kScan:
      return Expr::MatrixRef(d.scan_name);
    case Derivation::Kind::kScalar:
      return Expr::Scalar(d.scalar_value);
    case Derivation::Kind::kOp:
      break;
  }
  const chase::Fact& f = instance_.fact(d.fact);
  const OpSignature* sig = signatures_.Get(f.predicate);
  HADAD_CHECK(sig != nullptr);
  std::vector<ExprPtr> kids;
  kids.reserve(sig->input_positions.size());
  for (int pos : sig->input_positions) {
    HADAD_ASSIGN_OR_RETURN(
        ExprPtr kid,
        Decode(f.args[static_cast<size_t>(pos)], depth + 1));
    kids.push_back(std::move(kid));
  }
  const OpKind kind =
      sig->outputs[static_cast<size_t>(d.output_slot)].decode_kind;
  // Special spellings.
  if (instance_.PredicateName(f.predicate) == vrem::kInvS) {
    return Expr::Binary(OpKind::kDivide, Expr::Scalar(1.0), kids[0]);
  }
  if (la::Arity(kind) == 1) {
    return Expr::Unary(kind, kids[0]);
  }
  HADAD_CHECK_EQ(kids.size(), 2u);
  return Expr::Binary(kind, kids[0], kids[1]);
}

Result<RewriteResult> RewriteSession::Run(const ExprPtr& expr) {
  Timer timer;
  RewriteResult result;

  // γ(E): the threshold T starts at the cost of running E as stated.
  HADAD_ASSIGN_OR_RETURN(
      cost::ExprEstimate original,
      cost::EstimateExpression(*expr, *estimator_, leaf_meta_));
  result.original_cost = original.cost;
  threshold_ = original.cost;

  HADAD_ASSIGN_OR_RETURN(la::EncodedExpr enc,
                         la::EncodeExpression(*expr, catalog_));
  instance_.SetMergeObserver(
      [this](NodeId absorbed, NodeId survivor) {
        tracker_.OnMerge(absorbed, survivor);
      });
  HADAD_RETURN_IF_ERROR(SeedInstance(enc));
  prune_bound_ = std::max(threshold_, tracker_.MaxKnownSize());
  name_predicate_ = instance_.InternPredicate(vrem::kName);

  chase::ChaseEngine engine(&instance_, constraints_, options_.chase);
  engine.set_facts_added_observer(
      [this](const std::vector<FactId>& ids) { tracker_.OnFactsAdded(ids); });
  if (options_.prune) {
    engine.set_gate([this, &engine](int32_t ci, const Binding& b,
                                    const std::vector<FactId>& premise) {
      return Gate(engine.compiled(ci), b, premise);
    });
  }
  // Each round ends by computing contribs, so the last round's serve the
  // decode below.
  engine.set_round_end(
      [this](const chase::ChaseStats& stats) { return OnRoundEnd(stats); });
  HADAD_ASSIGN_OR_RETURN(result.chase_stats, engine.Run());
  if (result.chase_stats.rounds == 0) ComputeContribs();

  // Enumerate goal-class alternatives, each with min-cost subplans.
  const NodeId root = instance_.Find(root_);
  struct Candidate {
    ExprPtr expr;
    double cost;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({expr, result.original_cost});
  auto try_candidate = [&](const Derivation& d, double cost) {
    // Temporarily install `d` as the root's best and decode.
    auto it = classes_.find(root);
    if (it == classes_.end()) return;
    ClassState saved = it->second;
    it->second.best = d;
    it->second.has_option = true;
    auto decoded = Decode(root, 0);
    it->second = saved;
    if (!decoded.ok()) return;
    // Re-estimate the decoded tree for the reported cost; fall back to the
    // extraction cost if estimation fails (it should not).
    double reported = cost;
    auto est = cost::EstimateExpression(**decoded, *estimator_, leaf_meta_);
    if (est.ok()) reported = est->cost;
    candidates.push_back({*decoded, reported});
  };
  ForEachGoalOption(try_candidate);

  // Dedupe (by rendered text), sort by (cost, tree size, text).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              int64_t sa = a.expr->TreeSize();
              int64_t sb = b.expr->TreeSize();
              if (sa != sb) return sa < sb;
              return ToString(a.expr) < ToString(b.expr);
            });
  std::unordered_set<std::string> seen;
  for (const Candidate& c : candidates) {
    if (!seen.insert(ToString(c.expr)).second) continue;
    if (static_cast<int>(result.rewrites.size()) < options_.max_rewrites) {
      result.rewrites.push_back(c.expr);
    }
    if (result.best == nullptr) {
      result.best = c.expr;
      result.best_cost = c.cost;
    }
  }
  HADAD_CHECK(result.best != nullptr);  // The original is always a candidate.
  // Ties on cost fall to the smaller tree (a view scan beats re-evaluating
  // an equal-cost pipeline, §6.3's RW_0), then to text for determinism.
  result.improved = !result.best->Equals(*expr);
  result.optimize_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

Optimizer::Optimizer(la::MetaCatalog catalog, OptimizerOptions options)
    : catalog_(std::move(catalog)), options_(options) {}

const std::vector<chase::Constraint>& Optimizer::Constraints() const {
  return constraints_.empty() ? la::SharedMmc(options_.catalog)
                              : constraints_;
}

void Optimizer::RebuildConstraints() {
  const std::vector<chase::Constraint>& mmc = la::SharedMmc(options_.catalog);
  if (views_.empty() && extra_constraints_.empty()) {
    constraints_.clear();
    return;
  }
  // Keep the MMC prefix; re-append the rest.
  if (constraints_.empty()) constraints_ = mmc;
  constraints_.erase(
      constraints_.begin() + static_cast<ptrdiff_t>(mmc.size()),
      constraints_.end());
  for (const ViewDef& v : views_) {
    constraints_.insert(constraints_.end(), v.constraints.begin(),
                        v.constraints.end());
  }
  constraints_.insert(constraints_.end(), extra_constraints_.begin(),
                      extra_constraints_.end());
}

cost::ClassMeta Optimizer::LeafMeta(const std::string& name,
                                    const la::MatrixMeta& meta) const {
  cost::ClassMeta out;
  out.shape = meta;
  if (data_ == nullptr) return out;
  auto it = data_->find(name);
  if (it == data_->end()) return out;
  const std::shared_ptr<const matrix::Matrix>& version = it->second;
  auto current = [&version](const LeafStats& s) {
    return !s.version.owner_before(version) &&
           !version.owner_before(s.version) && s.rows == version->rows();
  };
  auto with = [&out](const LeafStats& s) {
    out.shape.nnz = s.nnz;
    out.mnc = s.mnc;
    return out;
  };
  {
    common::MutexLock lock(&leaf_mu_);
    auto sit = leaf_stats_.find(name);
    if (sit != leaf_stats_.end() && current(sit->second)) {
      return with(sit->second);
    }
  }
  // First sight of this version: scan it with no lock held.
  LeafStats scanned;
  scanned.version = version;
  scanned.rows = version->rows();
  scanned.nnz = static_cast<double>(version->Nnz());
  if (options_.estimator == EstimatorKind::kMnc) {
    scanned.mnc = std::make_shared<const cost::MncHistogram>(
        cost::MncHistogram::FromMatrix(*version));
  }
  common::MutexLock lock(&leaf_mu_);
  LeafStats& entry = leaf_stats_[name];
  if (!current(entry)) entry = std::move(scanned);  // First insert wins.
  return with(entry);
}

cost::LeafMetaFn Optimizer::LeafResolver() const {
  return [this](const std::string& name) -> Result<cost::ClassMeta> {
    auto it = catalog_.find(name);
    if (it == catalog_.end()) {
      return Status::NotFound("unknown matrix '" + name + "'");
    }
    return LeafMeta(name, it->second);
  };
}

std::unique_ptr<cost::SparsityEstimator> Optimizer::MakeEstimator() const {
  if (options_.estimator == EstimatorKind::kMnc) {
    return std::make_unique<cost::MncEstimator>();
  }
  return std::make_unique<cost::NaiveMetadataEstimator>();
}

Result<cost::ExprEstimate> Optimizer::Estimate(const la::Expr& expr) const {
  return cost::EstimateExpression(expr, *MakeEstimator(), LeafResolver());
}

Status Optimizer::AddView(const std::string& name,
                          const la::ExprPtr& definition) {
  if (catalog_.contains(name)) {
    return Status::InvalidArgument("name '" + name + "' already registered");
  }
  HADAD_ASSIGN_OR_RETURN(cost::ExprEstimate est, Estimate(*definition));
  HADAD_ASSIGN_OR_RETURN(
      std::vector<chase::Constraint> constraints,
      la::EncodeViewConstraints(name, *definition, catalog_));
  for (const chase::Constraint& c : constraints) {
    Status valid = chase::ValidateConstraint(c);
    if (!valid.ok()) {
      return Status(valid.code(), "view '" + name + "': " + valid.message());
    }
  }
  catalog_[name] = est.output.shape;
  views_.push_back(ViewDef{name, definition, std::move(constraints)});
  RebuildConstraints();
  return Status::OK();
}

Status Optimizer::AddViewText(const std::string& name,
                              const std::string& definition_text) {
  HADAD_ASSIGN_OR_RETURN(la::ExprPtr def,
                         la::ParseExpression(definition_text));
  return AddView(name, def);
}

Status Optimizer::RemoveView(const std::string& name) {
  auto it = std::find_if(views_.begin(), views_.end(),
                         [&name](const ViewDef& v) { return v.name == name; });
  if (it == views_.end()) {
    return Status::NotFound("no view named '" + name + "' registered");
  }
  views_.erase(it);
  catalog_.erase(name);
  RebuildConstraints();
  return Status::OK();
}

Status Optimizer::UpdateBaseMeta(const std::string& name,
                                 const la::MatrixMeta& meta) {
  if (std::any_of(views_.begin(), views_.end(),
                  [&name](const ViewDef& v) { return v.name == name; })) {
    return Status::InvalidArgument(
        "'" + name + "' is a registered view; re-register it instead");
  }
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no metadata for matrix '" + name + "'");
  }
  it->second = meta;
  return Status::OK();
}

Status Optimizer::AddBaseMeta(const std::string& name,
                              const la::MatrixMeta& meta) {
  if (catalog_.contains(name)) {
    return Status::InvalidArgument(
        "metadata for '" + name + "' already registered; use UpdateBaseMeta");
  }
  catalog_.emplace(name, meta);
  return Status::OK();
}

Status Optimizer::RemoveBaseMeta(const std::string& name) {
  if (std::any_of(views_.begin(), views_.end(),
                  [&name](const ViewDef& v) { return v.name == name; })) {
    return Status::InvalidArgument(
        "'" + name + "' is a registered view; use RemoveView");
  }
  if (catalog_.erase(name) == 0) {
    return Status::NotFound("no metadata for matrix '" + name + "'");
  }
  return Status::OK();
}

Status Optimizer::AddMorpheusJoin(const MorpheusJoinDecl& decl) {
  for (const std::string& n : {decl.t, decl.k, decl.u, decl.m}) {
    if (!catalog_.contains(n)) {
      return Status::NotFound("morpheus join references unknown matrix '" +
                              n + "'");
    }
  }
  morpheus_joins_.push_back(decl);
  return Status::OK();
}

Status Optimizer::AddConstraints(std::vector<chase::Constraint> constraints) {
  for (const chase::Constraint& c : constraints) {
    HADAD_RETURN_IF_ERROR(chase::ValidateConstraint(c));
  }
  for (chase::Constraint& c : constraints) {
    extra_constraints_.push_back(std::move(c));
  }
  RebuildConstraints();
  return Status::OK();
}

Result<RewriteResult> Optimizer::Optimize(const la::ExprPtr& expr) const {
  auto estimator = MakeEstimator();
  const cost::LeafMetaFn leaf_meta = LeafResolver();
  RewriteSession session(catalog_, options_, Constraints(), morpheus_joins_,
                         leaf_meta, estimator.get());
  return session.Run(expr);
}

Result<RewriteResult> Optimizer::OptimizeText(
    const std::string& expr_text) const {
  HADAD_ASSIGN_OR_RETURN(la::ExprPtr expr, la::ParseExpression(expr_text));
  return Optimize(expr);
}

}  // namespace hadad::pacb
