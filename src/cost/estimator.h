#ifndef HADAD_COST_ESTIMATOR_H_
#define HADAD_COST_ESTIMATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "la/expr.h"
#include "matrix/matrix.h"

namespace hadad::cost {

// MNC sketch (Sommer et al. [46], §7.2.2): per-row and per-column non-zero
// counts. Base-matrix histograms are computed offline from the data;
// intermediate histograms are derived online during cost estimation — the
// overhead the paper measures in §9.1.3.
struct MncHistogram {
  std::vector<double> row_nnz;
  std::vector<double> col_nnz;

  // Counts the non-zeros ToSparse() would store (a NaN does not count), in
  // one pass over the data without building a sparse copy.
  static MncHistogram FromMatrix(const matrix::Matrix& m);
};

// Metadata tracked per VREM equivalence class: shape, estimated non-zero
// count (la::MatrixMeta::nnz) and, under the MNC estimator, histograms.
struct ClassMeta {
  la::MatrixMeta shape;
  std::shared_ptr<const MncHistogram> mnc;

  // The intermediate-size measure of §7.1: estimated non-zeros, never below
  // 1 (scalars count as 1).
  double SizeEstimate() const {
    double s = shape.NnzOrDense();
    return s < 1.0 ? 1.0 : s;
  }
};

// Estimates output sparsity of VREM operations from input metadata.
// Implementations: the naive worst-case metadata estimator (§7.2.1) and the
// structure-exploiting MNC estimator (§7.2.2).
class SparsityEstimator {
 public:
  virtual ~SparsityEstimator() = default;

  virtual std::string name() const = 0;

  // Metadata for a base matrix. `data` (optional) lets MNC build exact
  // base histograms; the naive estimator ignores it.
  virtual ClassMeta MakeBase(const la::MatrixMeta& meta,
                             const matrix::Matrix* data) const = 0;

  // Output metadata of VREM operation `op` (a hadad::la::vrem relation
  // name) applied to `inputs`, or nullopt when the operation is unknown or
  // the inputs are insufficient. For two-output decompositions (qr, lu),
  // `output_index` selects the factor.
  virtual std::optional<ClassMeta> Propagate(
      const std::string& op, const std::vector<ClassMeta>& inputs,
      int output_index = 0) const = 0;
};

// Worst-case estimator [22]: derives output sparsity from input dimensions
// and nnz alone (no structural information, no runtime overhead).
class NaiveMetadataEstimator : public SparsityEstimator {
 public:
  std::string name() const override { return "naive"; }
  ClassMeta MakeBase(const la::MatrixMeta& meta,
                     const matrix::Matrix* data) const override;
  std::optional<ClassMeta> Propagate(const std::string& op,
                                     const std::vector<ClassMeta>& inputs,
                                     int output_index = 0) const override;
};

// MNC estimator: propagates row/column non-zero count histograms, which
// capture structures like single-non-zero-per-row that the worst-case
// estimator cannot see.
class MncEstimator : public SparsityEstimator {
 public:
  std::string name() const override { return "mnc"; }
  ClassMeta MakeBase(const la::MatrixMeta& meta,
                     const matrix::Matrix* data) const override;
  std::optional<ClassMeta> Propagate(const std::string& op,
                                     const std::vector<ClassMeta>& inputs,
                                     int output_index = 0) const override;
};

// Shape-only propagation shared by both estimators; returns the output
// MatrixMeta with nnz unset (negative), or nullopt for non-operation
// relations. Exposed for testing.
std::optional<la::MatrixMeta> PropagateShape(
    const std::string& op, const std::vector<la::MatrixMeta>& inputs,
    int output_index);

}  // namespace hadad::cost

#endif  // HADAD_COST_ESTIMATOR_H_
