#include "cost/estimator.h"

#include <algorithm>
#include <cmath>

#include "la/vrem.h"

namespace hadad::cost {

namespace {

namespace vrem = la::vrem;

bool Is(const std::string& op, const char* name) { return op == name; }

la::MatrixMeta ShapeOf(int64_t rows, int64_t cols) {
  la::MatrixMeta m;
  m.rows = rows;
  m.cols = cols;
  return m;
}

double Cells(const la::MatrixMeta& m) { return m.Cells(); }

}  // namespace

MncHistogram MncHistogram::FromMatrix(const matrix::Matrix& m) {
  MncHistogram h;
  if (m.is_sparse()) {
    auto rows = m.sparse().RowNnzCounts();
    auto cols = m.sparse().ColNnzCounts();
    h.row_nnz.assign(rows.begin(), rows.end());
    h.col_nnz.assign(cols.begin(), cols.end());
    return h;
  }
  // One pass over the dense values, counting what ToSparse() would store:
  // SparseMatrix::FromDense's test, under which a NaN does not count.
  const matrix::DenseMatrix& d = m.dense();
  h.row_nnz.assign(static_cast<size_t>(d.rows()), 0.0);
  h.col_nnz.assign(static_cast<size_t>(d.cols()), 0.0);
  for (int64_t r = 0; r < d.rows(); ++r) {
    const double* row = d.row(r);
    double count = 0.0;
    for (int64_t c = 0; c < d.cols(); ++c) {
      const double v = row[c];
      if (v != 0.0 && std::abs(v) > 0.0) {
        count += 1.0;
        h.col_nnz[static_cast<size_t>(c)] += 1.0;
      }
    }
    h.row_nnz[static_cast<size_t>(r)] = count;
  }
  return h;
}

std::optional<la::MatrixMeta> PropagateShape(
    const std::string& op, const std::vector<la::MatrixMeta>& in,
    int output_index) {
  using la::MatrixMeta;
  if (Is(op, vrem::kTr) || Is(op, vrem::kRev)) {
    if (in.size() != 1) return std::nullopt;
    MatrixMeta out = ShapeOf(in[0].rows, in[0].cols);
    if (Is(op, vrem::kTr)) std::swap(out.rows, out.cols);
    return out;
  }
  if (Is(op, vrem::kInvM) || Is(op, vrem::kExp) || Is(op, vrem::kAdj)) {
    if (in.size() != 1 || in[0].rows != in[0].cols) return std::nullopt;
    return ShapeOf(in[0].rows, in[0].cols);
  }
  if (Is(op, vrem::kCho) || Is(op, vrem::kQr) || Is(op, vrem::kLu) ||
      Is(op, vrem::kLup)) {
    if (in.size() != 1 || in[0].rows != in[0].cols) return std::nullopt;
    MatrixMeta out = ShapeOf(in[0].rows, in[0].cols);
    if (Is(op, vrem::kCho)) {
      out.lower_triangular = true;
    } else if (Is(op, vrem::kQr)) {
      if (output_index == 0) {
        out.orthogonal = true;
      } else {
        out.upper_triangular = true;
      }
    } else if (Is(op, vrem::kLup) && output_index == 2) {
      out.permutation = true;
      out.orthogonal = true;
    } else {
      if (output_index == 0) {
        out.lower_triangular = true;
      } else {
        out.upper_triangular = true;
      }
    }
    return out;
  }
  if (Is(op, vrem::kDet) || Is(op, vrem::kTrace) || Is(op, vrem::kSum) ||
      Is(op, vrem::kMin) || Is(op, vrem::kMax) || Is(op, vrem::kMean) ||
      Is(op, vrem::kVar)) {
    if (in.size() != 1) return std::nullopt;
    return ShapeOf(1, 1);
  }
  if (Is(op, vrem::kDiag)) {
    if (in.size() != 1) return std::nullopt;
    if (in[0].cols == 1 && in[0].rows > 1) {
      return ShapeOf(in[0].rows, in[0].rows);
    }
    if (in[0].rows != in[0].cols) return std::nullopt;
    return ShapeOf(in[0].rows, 1);
  }
  if (Is(op, vrem::kRowSums) || Is(op, vrem::kRowMin) ||
      Is(op, vrem::kRowMax) || Is(op, vrem::kRowMean) ||
      Is(op, vrem::kRowVar)) {
    if (in.size() != 1) return std::nullopt;
    return ShapeOf(in[0].rows, 1);
  }
  if (Is(op, vrem::kColSums) || Is(op, vrem::kColMin) ||
      Is(op, vrem::kColMax) || Is(op, vrem::kColMean) ||
      Is(op, vrem::kColVar)) {
    if (in.size() != 1) return std::nullopt;
    return ShapeOf(1, in[0].cols);
  }
  if (Is(op, vrem::kMultiM)) {
    if (in.size() != 2 || in[0].cols != in[1].rows) return std::nullopt;
    return ShapeOf(in[0].rows, in[1].cols);
  }
  if (Is(op, vrem::kMultiMS)) {
    // multiMS(s, M, R): first input is the scalar.
    if (in.size() != 2) return std::nullopt;
    return ShapeOf(in[1].rows, in[1].cols);
  }
  if (Is(op, vrem::kDivMS)) {
    if (in.size() != 2) return std::nullopt;
    return ShapeOf(in[0].rows, in[0].cols);
  }
  if (Is(op, vrem::kAddM) || Is(op, vrem::kMultiE) || Is(op, vrem::kDivM)) {
    if (in.size() != 2 || in[0].rows != in[1].rows ||
        in[0].cols != in[1].cols) {
      return std::nullopt;
    }
    return ShapeOf(in[0].rows, in[0].cols);
  }
  if (Is(op, vrem::kSumD)) {
    if (in.size() != 2) return std::nullopt;
    return ShapeOf(in[0].rows + in[1].rows, in[0].cols + in[1].cols);
  }
  if (Is(op, vrem::kProductD)) {
    if (in.size() != 2) return std::nullopt;
    return ShapeOf(in[0].rows * in[1].rows, in[0].cols * in[1].cols);
  }
  if (Is(op, vrem::kCbind)) {
    if (in.size() != 2 || in[0].rows != in[1].rows) return std::nullopt;
    return ShapeOf(in[0].rows, in[0].cols + in[1].cols);
  }
  if (Is(op, vrem::kMultiS) || Is(op, vrem::kAddS) || Is(op, vrem::kDivS)) {
    if (in.size() != 2) return std::nullopt;
    return ShapeOf(1, 1);
  }
  if (Is(op, vrem::kInvS)) {
    if (in.size() != 1) return std::nullopt;
    return ShapeOf(1, 1);
  }
  return std::nullopt;  // Not an operation relation (name/size/type/...).
}

// ---------------------------------------------------------------------------
// Naive worst-case estimator.
// ---------------------------------------------------------------------------

ClassMeta NaiveMetadataEstimator::MakeBase(const la::MatrixMeta& meta,
                                           const matrix::Matrix* data) const {
  ClassMeta out;
  out.shape = meta;
  if (data != nullptr) out.shape.nnz = static_cast<double>(data->Nnz());
  return out;
}

std::optional<ClassMeta> NaiveMetadataEstimator::Propagate(
    const std::string& op, const std::vector<ClassMeta>& inputs,
    int output_index) const {
  std::vector<la::MatrixMeta> shapes;
  shapes.reserve(inputs.size());
  for (const ClassMeta& c : inputs) shapes.push_back(c.shape);
  auto shape = PropagateShape(op, shapes, output_index);
  if (!shape.has_value()) return std::nullopt;
  ClassMeta out;
  out.shape = *shape;
  const double cells = Cells(out.shape);
  double nnz = cells;  // Default: worst case dense.
  if (Is(op, vrem::kTr) || Is(op, vrem::kRev)) {
    nnz = inputs[0].shape.NnzOrDense();
  } else if (Is(op, vrem::kMultiM)) {
    // Worst case for a product [22]: every non-zero of A can meet every
    // column of B and vice versa.
    const double a = inputs[0].shape.NnzOrDense();
    const double b = inputs[1].shape.NnzOrDense();
    nnz = std::min({cells, a * static_cast<double>(inputs[1].shape.cols),
                    b * static_cast<double>(inputs[0].shape.rows)});
  } else if (Is(op, vrem::kAddM)) {
    nnz = std::min(cells, inputs[0].shape.NnzOrDense() +
                              inputs[1].shape.NnzOrDense());
  } else if (Is(op, vrem::kMultiE)) {
    nnz = std::min(inputs[0].shape.NnzOrDense(),
                   inputs[1].shape.NnzOrDense());
  } else if (Is(op, vrem::kDivM) || Is(op, vrem::kDivMS)) {
    nnz = inputs[0].shape.NnzOrDense();
  } else if (Is(op, vrem::kMultiMS)) {
    nnz = inputs[1].shape.NnzOrDense();
  } else if (Is(op, vrem::kRowSums) || Is(op, vrem::kColSums) ||
             Is(op, vrem::kRowMin) || Is(op, vrem::kRowMax) ||
             Is(op, vrem::kRowMean) || Is(op, vrem::kRowVar) ||
             Is(op, vrem::kColMin) || Is(op, vrem::kColMax) ||
             Is(op, vrem::kColMean) || Is(op, vrem::kColVar)) {
    nnz = std::min(cells, inputs[0].shape.NnzOrDense());
  } else if (Is(op, vrem::kDiag)) {
    nnz = std::min(cells, inputs[0].shape.NnzOrDense());
  } else if (Is(op, vrem::kSumD)) {
    nnz = inputs[0].shape.NnzOrDense() + inputs[1].shape.NnzOrDense();
  } else if (Is(op, vrem::kProductD)) {
    nnz = inputs[0].shape.NnzOrDense() * inputs[1].shape.NnzOrDense();
  } else if (Is(op, vrem::kCbind)) {
    nnz = inputs[0].shape.NnzOrDense() + inputs[1].shape.NnzOrDense();
  } else if (Is(op, vrem::kCho) || Is(op, vrem::kLu) || Is(op, vrem::kQr) ||
             Is(op, vrem::kLup)) {
    // Triangular factors are at most half dense; permutations have one
    // non-zero per row; Q is dense.
    const double n = static_cast<double>(out.shape.rows);
    if (out.shape.permutation) {
      nnz = n;
    } else if (out.shape.lower_triangular || out.shape.upper_triangular) {
      nnz = n * (n + 1) / 2;
    } else {
      nnz = cells;
    }
  }
  out.shape.nnz = std::min(nnz, cells);
  return out;
}

// ---------------------------------------------------------------------------
// MNC estimator.
// ---------------------------------------------------------------------------

ClassMeta MncEstimator::MakeBase(const la::MatrixMeta& meta,
                                 const matrix::Matrix* data) const {
  ClassMeta out;
  out.shape = meta;
  if (data != nullptr) {
    out.shape.nnz = static_cast<double>(data->Nnz());
    out.mnc = std::make_shared<MncHistogram>(MncHistogram::FromMatrix(*data));
  }
  return out;
}

namespace {

// Uniform histogram for inputs that lack one (e.g. derived dense results).
MncHistogram UniformHistogram(const la::MatrixMeta& shape) {
  MncHistogram h;
  const double per_row =
      shape.rows == 0 ? 0.0 : shape.NnzOrDense() / shape.rows;
  const double per_col =
      shape.cols == 0 ? 0.0 : shape.NnzOrDense() / shape.cols;
  h.row_nnz.assign(static_cast<size_t>(shape.rows), per_row);
  h.col_nnz.assign(static_cast<size_t>(shape.cols), per_col);
  return h;
}

double Total(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

std::optional<ClassMeta> MncEstimator::Propagate(
    const std::string& op, const std::vector<ClassMeta>& inputs,
    int output_index) const {
  // Start from the worst-case result, then refine with histograms where the
  // structure helps (product, element-wise ops, partial aggregates).
  NaiveMetadataEstimator naive;
  auto base = naive.Propagate(op, inputs, output_index);
  if (!base.has_value()) return std::nullopt;
  ClassMeta out = *base;

  auto hist_of = [](const ClassMeta& c) -> MncHistogram {
    if (c.mnc != nullptr) return *c.mnc;
    return UniformHistogram(c.shape);
  };

  if (Is(op, vrem::kMultiM)) {
    const MncHistogram ha = hist_of(inputs[0]);
    const MncHistogram hb = hist_of(inputs[1]);
    // Expected non-zeros via the product-moment bound: each pairing of a
    // non-zero in A's column k with a non-zero in B's row k contributes at
    // most one output non-zero.
    double products = 0.0;
    const size_t k = std::min(ha.col_nnz.size(), hb.row_nnz.size());
    for (size_t i = 0; i < k; ++i) products += ha.col_nnz[i] * hb.row_nnz[i];
    MncHistogram h;
    const double avg_row_b =
        inputs[1].shape.rows == 0
            ? 0.0
            : inputs[1].shape.NnzOrDense() / inputs[1].shape.rows;
    const double avg_col_a =
        inputs[0].shape.cols == 0
            ? 0.0
            : inputs[0].shape.NnzOrDense() / inputs[0].shape.cols;
    h.row_nnz.reserve(ha.row_nnz.size());
    for (double r : ha.row_nnz) {
      h.row_nnz.push_back(
          std::min(static_cast<double>(out.shape.cols), r * avg_row_b));
    }
    h.col_nnz.reserve(hb.col_nnz.size());
    for (double c : hb.col_nnz) {
      h.col_nnz.push_back(
          std::min(static_cast<double>(out.shape.rows), c * avg_col_a));
    }
    const double est =
        std::min({products, Total(h.row_nnz), out.shape.NnzOrDense()});
    out.shape.nnz = std::max(0.0, est);
    out.mnc = std::make_shared<MncHistogram>(std::move(h));
    return out;
  }
  if (Is(op, vrem::kAddM)) {
    const MncHistogram ha = hist_of(inputs[0]);
    const MncHistogram hb = hist_of(inputs[1]);
    MncHistogram h;
    h.row_nnz.resize(ha.row_nnz.size());
    for (size_t i = 0; i < h.row_nnz.size(); ++i) {
      h.row_nnz[i] = std::min(static_cast<double>(out.shape.cols),
                              ha.row_nnz[i] + hb.row_nnz[i]);
    }
    h.col_nnz.resize(ha.col_nnz.size());
    for (size_t i = 0; i < h.col_nnz.size(); ++i) {
      h.col_nnz[i] = std::min(static_cast<double>(out.shape.rows),
                              ha.col_nnz[i] + hb.col_nnz[i]);
    }
    out.shape.nnz = std::min(Total(h.row_nnz), out.shape.NnzOrDense());
    out.mnc = std::make_shared<MncHistogram>(std::move(h));
    return out;
  }
  if (Is(op, vrem::kMultiE)) {
    const MncHistogram ha = hist_of(inputs[0]);
    const MncHistogram hb = hist_of(inputs[1]);
    MncHistogram h;
    h.row_nnz.resize(ha.row_nnz.size());
    for (size_t i = 0; i < h.row_nnz.size(); ++i) {
      h.row_nnz[i] = std::min(ha.row_nnz[i], hb.row_nnz[i]);
    }
    h.col_nnz.resize(ha.col_nnz.size());
    for (size_t i = 0; i < h.col_nnz.size(); ++i) {
      h.col_nnz[i] = std::min(ha.col_nnz[i], hb.col_nnz[i]);
    }
    out.shape.nnz = Total(h.row_nnz);
    out.mnc = std::make_shared<MncHistogram>(std::move(h));
    return out;
  }
  if (Is(op, vrem::kTr)) {
    if (inputs[0].mnc != nullptr) {
      MncHistogram h;
      h.row_nnz = inputs[0].mnc->col_nnz;
      h.col_nnz = inputs[0].mnc->row_nnz;
      out.mnc = std::make_shared<MncHistogram>(std::move(h));
    }
    return out;
  }
  if (Is(op, vrem::kRowSums)) {
    // A row sums to non-zero iff the row has any non-zero (cancellation
    // ignored, as in MNC).
    const MncHistogram ha = hist_of(inputs[0]);
    double nz_rows = 0.0;
    for (double r : ha.row_nnz) nz_rows += std::min(1.0, r);
    out.shape.nnz = nz_rows;
    return out;
  }
  if (Is(op, vrem::kColSums)) {
    const MncHistogram ha = hist_of(inputs[0]);
    double nz_cols = 0.0;
    for (double c : ha.col_nnz) nz_cols += std::min(1.0, c);
    out.shape.nnz = nz_cols;
    return out;
  }
  return out;
}

}  // namespace hadad::cost
