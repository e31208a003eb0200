#ifndef HADAD_PACB_OPTIMIZER_H_
#define HADAD_PACB_OPTIMIZER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/engine.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cost/cost_model.h"
#include "cost/estimator.h"
#include "la/catalog.h"
#include "la/expr.h"

namespace hadad::pacb {

enum class EstimatorKind { kNaive, kMnc };

struct OptimizerOptions {
  EstimatorKind estimator = EstimatorKind::kNaive;
  // Prune_prov (§7.3): reject chase steps whose premise fragment or
  // conclusion outputs exceed the best-known rewriting cost.
  bool prune = true;
  chase::ChaseOptions chase;
};

// A materialized view: `name` is its scan name (how rewritings refer to it),
// `definition` the LA expression it materializes, `constraints` the view-IO
// TGDs encoded from the definition (kept per view so RemoveView can retract
// them).
struct ViewDef {
  std::string name;
  la::ExprPtr definition;
  std::vector<chase::Constraint> constraints;
};

// A Morpheus normalized-matrix declaration: matrix `m` is the PK-FK join of
// `t` and `u` with indicator `k` (M = [T | K U]). Lets the Morpheus rewrite
// rules fire on expressions over `m` (§9.2).
struct MorpheusJoinDecl {
  std::string t;
  std::string k;
  std::string u;
  std::string m;
};

struct RewriteResult {
  la::ExprPtr best;           // Minimum-cost rewriting (== input if optimal).
  double best_cost = 0.0;     // γ(best).
  double original_cost = 0.0; // γ(input).
  bool improved = false;
  // Distinct equivalent rewritings discovered (root-level alternatives with
  // min-cost subplans), sorted by cost, at most 32; includes `best`.
  std::vector<la::ExprPtr> rewrites;
  chase::ChaseStats chase_stats;
  double optimize_seconds = 0.0;  // RW_find in the paper's terminology.
};

// HADAD⟨LAprop, V, γ⟩ (§8): relational encoding → PACB++ chase with
// cost-based pruning → minimum-cost decoding.
//
// Construction declares the static environment (base-matrix metadata, views,
// Morpheus joins, data for MNC base histograms); Optimize() rewrites one
// expression against it.
//
// Optimize() is const and may run on many threads at once, as long as no
// mutator runs concurrently (api::Session holds its state lock shared
// around Optimize and exclusively around every mutator).
class Optimizer {
 public:
  explicit Optimizer(la::MetaCatalog catalog, OptimizerOptions options = {});

  // Registers a materialized view. Its output shape joins the metadata
  // catalog under `name`, so both queries and rewritings may reference it.
  // InvalidArgument when one of its view constraints is too long for the
  // chase (see chase::ValidateConstraint).
  Status AddView(const std::string& name, const la::ExprPtr& definition);
  // Convenience: parse `definition_text` first.
  Status AddViewText(const std::string& name,
                     const std::string& definition_text);
  // Unregisters a view added with AddView: drops its catalog entry and its
  // view-IO constraints, so later Optimize() calls can no longer answer
  // queries from it. NotFound when `name` is not a registered view. The
  // adaptive view store calls this on eviction.
  Status RemoveView(const std::string& name);
  const std::vector<ViewDef>& views() const { return views_; }

  Status AddMorpheusJoin(const MorpheusJoinDecl& decl);

  // Replaces the catalog entry for `name` after a data mutation: later
  // Optimize() calls take its shape and type flags from `meta` (shapes can
  // change under Update/Append). A data-bound name's nnz and histogram come
  // from the new version on first use (see SetData), so `meta.nnz` matters
  // only for names without data. InvalidArgument when `name` is a
  // registered view — a view's metadata follows from its definition, so
  // mutated views are re-registered via RemoveView+AddView. NotFound when
  // the name was never registered.
  Status UpdateBaseMeta(const std::string& name, const la::MatrixMeta& meta);
  // Registers the base-metadata facts for a name introduced after
  // construction (api::Session::Put binding a brand-new matrix).
  // InvalidArgument when the name is already registered — the caller must
  // choose Update semantics explicitly for an existing binding.
  Status AddBaseMeta(const std::string& name, const la::MatrixMeta& meta);
  // Drops the base-metadata entry for `name` (its data left the session).
  // Same view/NotFound contract as UpdateBaseMeta.
  Status RemoveBaseMeta(const std::string& name);

  // Supplies actual matrices (by name) so leaves get their exact nnz and,
  // under MNC, exact base histograms; also used for materialized view
  // contents. Not owned; must outlive the optimizer. Statistics are read
  // from a version's data the first time an optimization, an estimate or
  // a compile through LeafResolver() mentions it, and memoized until the
  // name is bound to another version (or the version grows). For every
  // name `data` binds, they replace the catalog entry's nnz.
  void SetData(const cost::DataCatalog* data) { data_ = data; }

  // Extends HADAD's semantic knowledge: appends user constraints to MMC
  // (the extensibility contract of §1 — declare, don't code).
  // InvalidArgument, adding none of them, when one is too long for the
  // chase (see chase::ValidateConstraint).
  Status AddConstraints(std::vector<chase::Constraint> constraints);

  // The metadata catalog including registered view shapes.
  const la::MetaCatalog& catalog() const { return catalog_; }

  Result<RewriteResult> Optimize(const la::ExprPtr& expr) const;
  // Convenience: parse + optimize.
  Result<RewriteResult> OptimizeText(const std::string& expr_text) const;

  // The leaf metadata every optimization reads: a catalog name's shape
  // with, for a name the data catalog binds, that version's exact nnz and
  // (under MNC) histogram, memoized per version; NotFound for names the
  // catalog lacks. The returned function reads the live catalog and data
  // binding, so it is valid only while neither moves: under a session's
  // state lock (shared or unique), never on a pinned snapshot without it.
  cost::LeafMetaFn LeafResolver() const;
  // γ and output metadata of `expr` under this optimizer's estimator, with
  // leaves from LeafResolver(). Same validity as LeafResolver().
  Result<cost::ExprEstimate> Estimate(const la::Expr& expr) const;

 private:
  // What a leaf version's data says beyond its catalog shape: the exact
  // nnz and, under MNC, the row/column histogram. Valid while data_ binds
  // the name to the same handle with the same row count (Workspace::Append
  // may grow the live version in place). The weak handle lets a superseded
  // version free as soon as its last owner drops it.
  struct LeafStats {
    std::weak_ptr<const matrix::Matrix> version;
    int64_t rows = 0;
    double nnz = 0.0;
    std::shared_ptr<const cost::MncHistogram> mnc;
  };

  std::unique_ptr<cost::SparsityEstimator> MakeEstimator() const;
  // Base metadata for leaf `name` with catalog entry `meta`: `meta` with
  // the statistics of the data bound to `name`, if any, memoized per
  // version. Scans the data outside leaf_mu_.
  cost::ClassMeta LeafMeta(const std::string& name,
                           const la::MatrixMeta& meta) const;
  // The list every chase runs: MMC, then each view's constraints in
  // registration order, then the user constraints. While there are neither
  // views nor user constraints it is the process-wide la::SharedMmc list,
  // and constraints_ stays empty.
  const std::vector<chase::Constraint>& Constraints() const;
  // Rebuilds constraints_ after a view or user constraint came or went.
  void RebuildConstraints();

  la::MetaCatalog catalog_;
  OptimizerOptions options_;
  std::vector<ViewDef> views_;
  std::vector<chase::Constraint> extra_constraints_;
  std::vector<MorpheusJoinDecl> morpheus_joins_;
  std::vector<chase::Constraint> constraints_;
  const cost::DataCatalog* data_ = nullptr;

  mutable common::Mutex leaf_mu_;
  // Leaf statistics by name, one entry per name (a stale entry is
  // replaced, never kept beside the new one).
  mutable std::unordered_map<std::string, LeafStats> leaf_stats_
      HADAD_GUARDED_BY(leaf_mu_);
};

}  // namespace hadad::pacb

#endif  // HADAD_PACB_OPTIMIZER_H_
