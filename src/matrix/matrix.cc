#include "matrix/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "matrix/blocked_kernels.h"
#include "matrix/decompositions.h"
#include "matrix/simd.h"

namespace hadad::matrix {

namespace {

std::string DimStr(const Matrix& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
}

Status DimMismatch(const char* op, const Matrix& a, const Matrix& b) {
  return Status::DimensionMismatch(std::string(op) + ": " + DimStr(a) +
                                   " vs " + DimStr(b));
}

DenseMatrix MultiplyDenseDense(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out(a.rows(), b.cols());
  const int64_t n = a.rows();
  const int64_t k = a.cols();
  const int64_t m = b.cols();
  for (int64_t i = 0; i < n; ++i) {
    double* out_row = out.row(i);
    const double* a_row = a.row(i);
    for (int64_t p = 0; p < k; ++p) {
      const double av = a_row[p];
      if (av == 0.0) continue;
      const double* b_row = b.row(p);
      for (int64_t j = 0; j < m; ++j) {
        out_row[j] += av * b_row[j];
      }
    }
  }
  return out;
}

DenseMatrix MultiplySparseDense(const SparseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out(a.rows(), b.cols());
  const int64_t m = b.cols();
  const auto& rptr = a.row_ptr();
  const auto& cidx = a.col_idx();
  const auto& vals = a.values();
  for (int64_t i = 0; i < a.rows(); ++i) {
    double* out_row = out.row(i);
    for (int64_t p = rptr[static_cast<size_t>(i)];
         p < rptr[static_cast<size_t>(i) + 1]; ++p) {
      const double av = vals[static_cast<size_t>(p)];
      const double* b_row = b.row(cidx[static_cast<size_t>(p)]);
      for (int64_t j = 0; j < m; ++j) {
        out_row[j] += av * b_row[j];
      }
    }
  }
  return out;
}

DenseMatrix MultiplyDenseSparse(const DenseMatrix& a, const SparseMatrix& b) {
  DenseMatrix out(a.rows(), b.cols());
  const auto& rptr = b.row_ptr();
  const auto& cidx = b.col_idx();
  const auto& vals = b.values();
  for (int64_t i = 0; i < a.rows(); ++i) {
    double* out_row = out.row(i);
    const double* a_row = a.row(i);
    for (int64_t p = 0; p < a.cols(); ++p) {
      const double av = a_row[p];
      if (av == 0.0) continue;
      for (int64_t q = rptr[static_cast<size_t>(p)];
           q < rptr[static_cast<size_t>(p) + 1]; ++q) {
        out_row[cidx[static_cast<size_t>(q)]] +=
            av * vals[static_cast<size_t>(q)];
      }
    }
  }
  return out;
}

// Gustavson's algorithm: row-by-row accumulation into a dense workspace.
SparseMatrix MultiplySparseSparse(const SparseMatrix& a,
                                  const SparseMatrix& b) {
  std::vector<Triplet> triplets;
  std::vector<double> acc(static_cast<size_t>(b.cols()), 0.0);
  std::vector<int64_t> touched;
  const auto& a_rptr = a.row_ptr();
  const auto& a_cidx = a.col_idx();
  const auto& a_vals = a.values();
  const auto& b_rptr = b.row_ptr();
  const auto& b_cidx = b.col_idx();
  const auto& b_vals = b.values();
  for (int64_t i = 0; i < a.rows(); ++i) {
    touched.clear();
    for (int64_t p = a_rptr[static_cast<size_t>(i)];
         p < a_rptr[static_cast<size_t>(i) + 1]; ++p) {
      const double av = a_vals[static_cast<size_t>(p)];
      const int64_t k = a_cidx[static_cast<size_t>(p)];
      for (int64_t q = b_rptr[static_cast<size_t>(k)];
           q < b_rptr[static_cast<size_t>(k) + 1]; ++q) {
        const int64_t j = b_cidx[static_cast<size_t>(q)];
        if (acc[static_cast<size_t>(j)] == 0.0) touched.push_back(j);
        acc[static_cast<size_t>(j)] += av * b_vals[static_cast<size_t>(q)];
      }
    }
    for (int64_t j : touched) {
      if (acc[static_cast<size_t>(j)] != 0.0) {
        triplets.push_back({i, j, acc[static_cast<size_t>(j)]});
      }
      acc[static_cast<size_t>(j)] = 0.0;
    }
  }
  return SparseMatrix::FromTriplets(a.rows(), b.cols(), std::move(triplets));
}

SparseMatrix AddSparseSparse(const SparseMatrix& a, const SparseMatrix& b,
                             double b_sign) {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(a.nnz() + b.nnz()));
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t p = a.row_ptr()[static_cast<size_t>(i)];
         p < a.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
      triplets.push_back({i, a.col_idx()[static_cast<size_t>(p)],
                          a.values()[static_cast<size_t>(p)]});
    }
  }
  for (int64_t i = 0; i < b.rows(); ++i) {
    for (int64_t p = b.row_ptr()[static_cast<size_t>(i)];
         p < b.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
      triplets.push_back({i, b.col_idx()[static_cast<size_t>(p)],
                          b_sign * b.values()[static_cast<size_t>(p)]});
    }
  }
  return SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets));
}

DenseMatrix AddDenseDense(const DenseMatrix& a, const DenseMatrix& b,
                          double b_sign) {
  DenseMatrix out(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + b_sign * pb[i];
  return out;
}

Result<Matrix> AddImpl(const Matrix& a, const Matrix& b, double b_sign) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return DimMismatch("add", a, b);
  }
  if (a.is_sparse() && b.is_sparse()) {
    return Matrix(AddSparseSparse(a.sparse(), b.sparse(), b_sign));
  }
  return Matrix(AddDenseDense(a.ToDense(), b.ToDense(), b_sign));
}

DenseMatrix TransposeDense(const DenseMatrix& a) {
  DenseMatrix out(a.cols(), a.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      out.At(j, i) = a.At(i, j);
    }
  }
  return out;
}

double InfNorm(const DenseMatrix& a) {
  double best = 0.0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < a.cols(); ++j) s += std::fabs(a.At(i, j));
    best = std::max(best, s);
  }
  return best;
}

// Determinant by cofactor expansion; used for adjugates of singular
// matrices where the det*inverse shortcut is unavailable. O(n!) — callers
// restrict to small n.
double CofactorDet(const DenseMatrix& a) {
  const int64_t n = a.rows();
  if (n == 1) return a.At(0, 0);
  if (n == 2) return a.At(0, 0) * a.At(1, 1) - a.At(0, 1) * a.At(1, 0);
  double det = 0.0;
  double sign = 1.0;
  for (int64_t j = 0; j < n; ++j) {
    DenseMatrix minor(n - 1, n - 1);
    for (int64_t r = 1; r < n; ++r) {
      int64_t cc = 0;
      for (int64_t c = 0; c < n; ++c) {
        if (c == j) continue;
        minor.At(r - 1, cc++) = a.At(r, c);
      }
    }
    det += sign * a.At(0, j) * CofactorDet(minor);
    sign = -sign;
  }
  return det;
}

double DeterminantFromPlu(const PackedPlu& plu) {
  double det = plu.sign;
  for (int64_t i = 0; i < plu.lu.rows(); ++i) det *= plu.lu.At(i, i);
  return det;
}

// Solves A X = I for all n right-hand sides at once, row by row: with
// A = P^T L U, X starts as P (row i holds a 1 at column perm[i]), the
// forward pass subtracts L(i,j) * row j from row i (j < i, ascending), and
// the back pass subtracts U(i,j) * row j (j > i, ascending) and divides
// row i by U(i,i). Each column sees exactly the operations, in the order,
// of a column-at-a-time substitution, so the runner may split the columns
// anywhere without changing a bit.
Result<Matrix> InverseFromPlu(const PackedPlu& plu, const RangeRunner& runner) {
  const DenseMatrix& lu = plu.lu;
  const int64_t n = lu.rows();
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(lu.At(i, i)) < 1e-13) {
      return Status::NotInvertible("singular matrix");
    }
  }
  DenseMatrix x(n, n);
  for (int64_t i = 0; i < n; ++i) {
    x.At(i, plu.perm[static_cast<size_t>(i)]) = 1.0;
  }
  const SimdOps& ops = ActiveOps();
  auto solve = [&](int64_t c0, int64_t c1) {
    const int64_t width = c1 - c0;
    for (int64_t i = 0; i < n; ++i) {
      const double* l_row = lu.row(i);
      double* x_row = x.row(i) + c0;
      for (int64_t j = 0; j < i; ++j) {
        ops.axpy(x_row, x.row(j) + c0, -l_row[j], width);
      }
    }
    for (int64_t i = n - 1; i >= 0; --i) {
      const double* u_row = lu.row(i);
      double* x_row = x.row(i) + c0;
      for (int64_t j = i + 1; j < n; ++j) {
        ops.axpy(x_row, x.row(j) + c0, -u_row[j], width);
      }
      const double pivot = u_row[i];
      for (int64_t c = 0; c < width; ++c) x_row[c] /= pivot;
    }
  };
  RunRange(runner, n, solve);
  return Matrix(std::move(x));
}

}  // namespace

void RunRange(const RangeRunner& runner, int64_t n,
              const std::function<void(int64_t, int64_t)>& body) {
  if (runner) {
    runner(n, body);
  } else {
    body(0, n);
  }
}

double Matrix::ScalarValue() const {
  HADAD_CHECK_MSG(IsScalar(), "ScalarValue on non-1x1 matrix");
  return At(0, 0);
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows() != other.rows() || cols() != other.cols()) return false;
  return ToDense().ApproxEquals(other.ToDense(), tol);
}

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    // LA-language convenience: a 1x1 operand acts as a scalar.
    if (a.IsScalar()) return ScalarMultiply(a.ScalarValue(), b);
    if (b.IsScalar()) return ScalarMultiply(b.ScalarValue(), a);
    return DimMismatch("multiply", a, b);
  }
  if (a.is_sparse() && b.is_sparse()) {
    return Matrix(MultiplySparseSparse(a.sparse(), b.sparse()));
  }
  if (a.is_sparse()) {
    return Matrix(MultiplySparseDense(a.sparse(), b.dense()));
  }
  if (b.is_sparse()) {
    return Matrix(MultiplyDenseSparse(a.dense(), b.sparse()));
  }
  return Matrix(MultiplyDenseDense(a.dense(), b.dense()));
}

Result<Matrix> Add(const Matrix& a, const Matrix& b) {
  return AddImpl(a, b, 1.0);
}

Result<Matrix> Subtract(const Matrix& a, const Matrix& b) {
  return AddImpl(a, b, -1.0);
}

Result<Matrix> ElementwiseMultiply(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    // Scalar broadcast, matching R's `M * s`.
    if (a.IsScalar()) return ScalarMultiply(a.ScalarValue(), b);
    if (b.IsScalar()) return ScalarMultiply(b.ScalarValue(), a);
    return DimMismatch("hadamard", a, b);
  }
  if (a.is_sparse() || b.is_sparse()) {
    const SparseMatrix& s = a.is_sparse() ? a.sparse() : b.sparse();
    const Matrix& o = a.is_sparse() ? b : a;
    std::vector<Triplet> triplets;
    triplets.reserve(static_cast<size_t>(s.nnz()));
    for (int64_t i = 0; i < s.rows(); ++i) {
      for (int64_t p = s.row_ptr()[static_cast<size_t>(i)];
           p < s.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        int64_t j = s.col_idx()[static_cast<size_t>(p)];
        double v = s.values()[static_cast<size_t>(p)] * o.At(i, j);
        if (v != 0.0) triplets.push_back({i, j, v});
      }
    }
    return Matrix(
        SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets)));
  }
  DenseMatrix out(a.rows(), a.cols());
  const double* pa = a.dense().data();
  const double* pb = b.dense().data();
  double* po = out.data();
  for (int64_t i = 0; i < out.size(); ++i) po[i] = pa[i] * pb[i];
  return Matrix(std::move(out));
}

Result<Matrix> ElementwiseDivide(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    if (b.IsScalar()) return ScalarMultiply(1.0 / b.ScalarValue(), a);
    return DimMismatch("divide", a, b);
  }
  if (a.is_sparse()) {
    // 0 / x stays 0 under sparse semantics (SystemML convention).
    const SparseMatrix& s = a.sparse();
    std::vector<Triplet> triplets;
    triplets.reserve(static_cast<size_t>(s.nnz()));
    for (int64_t i = 0; i < s.rows(); ++i) {
      for (int64_t p = s.row_ptr()[static_cast<size_t>(i)];
           p < s.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        int64_t j = s.col_idx()[static_cast<size_t>(p)];
        double denom = b.At(i, j);
        if (denom == 0.0) {
          return Status::InvalidArgument("divide: zero denominator");
        }
        triplets.push_back({i, j, s.values()[static_cast<size_t>(p)] / denom});
      }
    }
    return Matrix(
        SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets)));
  }
  DenseMatrix da = a.ToDense();
  DenseMatrix db = b.ToDense();
  DenseMatrix out(a.rows(), a.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    if (db.data()[i] == 0.0) {
      return Status::InvalidArgument("divide: zero denominator");
    }
    out.data()[i] = da.data()[i] / db.data()[i];
  }
  return Matrix(std::move(out));
}

Matrix ScalarMultiply(double s, const Matrix& a) {
  if (a.is_sparse()) {
    const SparseMatrix& sp = a.sparse();
    std::vector<Triplet> triplets;
    triplets.reserve(static_cast<size_t>(sp.nnz()));
    for (int64_t i = 0; i < sp.rows(); ++i) {
      for (int64_t p = sp.row_ptr()[static_cast<size_t>(i)];
           p < sp.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        double v = s * sp.values()[static_cast<size_t>(p)];
        if (v != 0.0) {
          triplets.push_back({i, sp.col_idx()[static_cast<size_t>(p)], v});
        }
      }
    }
    return Matrix(
        SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets)));
  }
  DenseMatrix out = a.dense();
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] *= s;
  return Matrix(std::move(out));
}

Matrix Transpose(const Matrix& a) {
  if (a.is_sparse()) return Matrix(a.sparse().Transpose());
  return Matrix(TransposeDense(a.dense()));
}

Matrix Reverse(const Matrix& a) {
  DenseMatrix d = a.ToDense();
  DenseMatrix out(d.rows(), d.cols());
  for (int64_t i = 0; i < d.rows(); ++i) {
    for (int64_t j = 0; j < d.cols(); ++j) {
      out.At(i, j) = d.At(d.rows() - 1 - i, j);
    }
  }
  if (a.is_sparse()) return Matrix(SparseMatrix::FromDense(out));
  return Matrix(std::move(out));
}

Result<Matrix> Inverse(const Matrix& a, const RangeRunner& runner) {
  if (!a.IsSquare()) {
    return Status::InvalidArgument("inverse requires a square matrix, got " +
                                   DimStr(a));
  }
  return InverseFromPlu(FactorPlu(a.ToDense()), runner);
}

Result<double> Determinant(const Matrix& a) {
  if (!a.IsSquare()) {
    return Status::InvalidArgument(
        "determinant requires a square matrix, got " + DimStr(a));
  }
  return DeterminantFromPlu(FactorPlu(a.ToDense()));
}

Result<double> Trace(const Matrix& a) {
  if (!a.IsSquare()) {
    return Status::InvalidArgument("trace requires a square matrix, got " +
                                   DimStr(a));
  }
  double t = 0.0;
  for (int64_t i = 0; i < a.rows(); ++i) t += a.At(i, i);
  return t;
}

Result<Matrix> Diag(const Matrix& a) {
  if (a.cols() == 1 && a.rows() > 1) {
    // Vector -> diagonal matrix (kept sparse: it is n x n with n non-zeros).
    std::vector<Triplet> triplets;
    for (int64_t i = 0; i < a.rows(); ++i) {
      double v = a.At(i, 0);
      if (v != 0.0) triplets.push_back({i, i, v});
    }
    return Matrix(
        SparseMatrix::FromTriplets(a.rows(), a.rows(), std::move(triplets)));
  }
  if (!a.IsSquare()) {
    return Status::InvalidArgument(
        "diag requires a square matrix or a column vector, got " + DimStr(a));
  }
  DenseMatrix out(a.rows(), 1);
  for (int64_t i = 0; i < a.rows(); ++i) out.At(i, 0) = a.At(i, i);
  return Matrix(std::move(out));
}

Result<Matrix> MatrixExp(const Matrix& a, const RangeRunner& runner) {
  if (!a.IsSquare()) {
    return Status::InvalidArgument("exp requires a square matrix, got " +
                                   DimStr(a));
  }
  DenseMatrix d = a.ToDense();
  const int64_t n = d.rows();
  // Scaling: bring the norm below 0.5 so the Taylor series converges fast.
  double norm = InfNorm(d);
  int squarings = 0;
  while (norm > 0.5 && squarings < 60) {
    norm /= 2.0;
    ++squarings;
  }
  const double scale = std::ldexp(1.0, -squarings);
  DenseMatrix scaled(n, n);
  for (int64_t i = 0; i < d.size(); ++i) {
    scaled.data()[i] = d.data()[i] * scale;
  }
  // Taylor series sum_k scaled^k / k!.
  DenseMatrix result = DenseMatrix::Identity(n);
  DenseMatrix term = DenseMatrix::Identity(n);
  for (int k = 1; k <= 30; ++k) {
    term = MultiplyDenseBlocked(term, scaled, runner);
    const double inv_fact = 1.0 / k;
    bool significant = false;
    for (int64_t i = 0; i < term.size(); ++i) {
      term.data()[i] *= inv_fact;
      result.data()[i] += term.data()[i];
      if (std::fabs(term.data()[i]) > 1e-17) significant = true;
    }
    if (!significant) break;
  }
  for (int s = 0; s < squarings; ++s) {
    result = MultiplyDenseBlocked(result, result, runner);
  }
  return Matrix(std::move(result));
}

Result<Matrix> Adjugate(const Matrix& a) {
  if (!a.IsSquare()) {
    return Status::InvalidArgument("adjugate requires a square matrix, got " +
                                   DimStr(a));
  }
  const int64_t n = a.rows();
  if (n == 1) return Matrix::Scalar(1.0);
  const PackedPlu plu = FactorPlu(a.ToDense());
  const double det = DeterminantFromPlu(plu);
  if (std::fabs(det) > 1e-10) {
    // adj(A) = det(A) * A^{-1}, both from the one factorization. A pivot
    // below the inverse's threshold still fails as NotInvertible.
    HADAD_ASSIGN_OR_RETURN(Matrix inv, InverseFromPlu(plu, nullptr));
    return ScalarMultiply(det, inv);
  }
  if (n > 8) {
    return Status::NotSupported(
        "adjugate of a singular matrix larger than 8x8");
  }
  DenseMatrix d = a.ToDense();
  DenseMatrix out(n, n);
  DenseMatrix minor(n - 1, n - 1);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int64_t rr = 0;
      for (int64_t r = 0; r < n; ++r) {
        if (r == i) continue;
        int64_t cc = 0;
        for (int64_t c = 0; c < n; ++c) {
          if (c == j) continue;
          minor.At(rr, cc++) = d.At(r, c);
        }
        ++rr;
      }
      const double sign = ((i + j) % 2 == 0) ? 1.0 : -1.0;
      out.At(j, i) = sign * CofactorDet(minor);  // Transposed cofactor.
    }
  }
  return Matrix(std::move(out));
}

Matrix DirectSum(const Matrix& a, const Matrix& b) {
  // Block-diagonal result is at least half zeros; keep it sparse when either
  // input is sparse.
  if (a.is_sparse() || b.is_sparse()) {
    std::vector<Triplet> triplets;
    SparseMatrix sa = a.ToSparse();
    SparseMatrix sb = b.ToSparse();
    for (int64_t i = 0; i < sa.rows(); ++i) {
      for (int64_t p = sa.row_ptr()[static_cast<size_t>(i)];
           p < sa.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        triplets.push_back({i, sa.col_idx()[static_cast<size_t>(p)],
                            sa.values()[static_cast<size_t>(p)]});
      }
    }
    for (int64_t i = 0; i < sb.rows(); ++i) {
      for (int64_t p = sb.row_ptr()[static_cast<size_t>(i)];
           p < sb.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        triplets.push_back({a.rows() + i,
                            a.cols() + sb.col_idx()[static_cast<size_t>(p)],
                            sb.values()[static_cast<size_t>(p)]});
      }
    }
    return Matrix(SparseMatrix::FromTriplets(
        a.rows() + b.rows(), a.cols() + b.cols(), std::move(triplets)));
  }
  DenseMatrix out(a.rows() + b.rows(), a.cols() + b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) out.At(i, j) = a.At(i, j);
  }
  for (int64_t i = 0; i < b.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      out.At(a.rows() + i, a.cols() + j) = b.At(i, j);
    }
  }
  return Matrix(std::move(out));
}

Result<Matrix> KroneckerProduct(const Matrix& a, const Matrix& b) {
  const int64_t rows = a.rows() * b.rows();
  const int64_t cols = a.cols() * b.cols();
  if (rows * cols > (int64_t{1} << 31)) {
    return Status::OutOfRange("kronecker result too large: " +
                              std::to_string(rows) + "x" +
                              std::to_string(cols));
  }
  if (a.is_sparse() && b.is_sparse()) {
    std::vector<Triplet> triplets;
    const SparseMatrix& sa = a.sparse();
    const SparseMatrix& sb = b.sparse();
    for (int64_t i = 0; i < sa.rows(); ++i) {
      for (int64_t p = sa.row_ptr()[static_cast<size_t>(i)];
           p < sa.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        const int64_t j = sa.col_idx()[static_cast<size_t>(p)];
        const double av = sa.values()[static_cast<size_t>(p)];
        for (int64_t r = 0; r < sb.rows(); ++r) {
          for (int64_t q = sb.row_ptr()[static_cast<size_t>(r)];
               q < sb.row_ptr()[static_cast<size_t>(r) + 1]; ++q) {
            triplets.push_back({i * sb.rows() + r,
                                j * sb.cols() +
                                    sb.col_idx()[static_cast<size_t>(q)],
                                av * sb.values()[static_cast<size_t>(q)]});
          }
        }
      }
    }
    return Matrix(SparseMatrix::FromTriplets(rows, cols, std::move(triplets)));
  }
  DenseMatrix da = a.ToDense();
  DenseMatrix db = b.ToDense();
  DenseMatrix out(rows, cols);
  for (int64_t i = 0; i < da.rows(); ++i) {
    for (int64_t j = 0; j < da.cols(); ++j) {
      const double av = da.At(i, j);
      if (av == 0.0) continue;
      for (int64_t r = 0; r < db.rows(); ++r) {
        for (int64_t c = 0; c < db.cols(); ++c) {
          out.At(i * db.rows() + r, j * db.cols() + c) = av * db.At(r, c);
        }
      }
    }
  }
  return Matrix(std::move(out));
}

double Sum(const Matrix& a) {
  if (a.is_sparse()) {
    double s = 0.0;
    for (double v : a.sparse().values()) s += v;
    return s;
  }
  double s = 0.0;
  const double* p = a.dense().data();
  for (int64_t i = 0; i < a.dense().size(); ++i) s += p[i];
  return s;
}

Matrix RowSums(const Matrix& a) {
  DenseMatrix out(a.rows(), 1);
  if (a.is_sparse()) {
    const SparseMatrix& s = a.sparse();
    for (int64_t i = 0; i < s.rows(); ++i) {
      double acc = 0.0;
      for (int64_t p = s.row_ptr()[static_cast<size_t>(i)];
           p < s.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        acc += s.values()[static_cast<size_t>(p)];
      }
      out.At(i, 0) = acc;
    }
  } else {
    for (int64_t i = 0; i < a.rows(); ++i) {
      double acc = 0.0;
      const double* row = a.dense().row(i);
      for (int64_t j = 0; j < a.cols(); ++j) acc += row[j];
      out.At(i, 0) = acc;
    }
  }
  return Matrix(std::move(out));
}

Matrix ColSums(const Matrix& a) {
  DenseMatrix out(1, a.cols());
  if (a.is_sparse()) {
    const SparseMatrix& s = a.sparse();
    for (int64_t i = 0; i < s.rows(); ++i) {
      for (int64_t p = s.row_ptr()[static_cast<size_t>(i)];
           p < s.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        out.At(0, s.col_idx()[static_cast<size_t>(p)]) +=
            s.values()[static_cast<size_t>(p)];
      }
    }
  } else {
    for (int64_t i = 0; i < a.rows(); ++i) {
      const double* row = a.dense().row(i);
      for (int64_t j = 0; j < a.cols(); ++j) out.At(0, j) += row[j];
    }
  }
  return Matrix(std::move(out));
}

namespace {

// Reduces over all cells; sparse matrices account for implicit zeros.
template <typename Fold>
double FullReduce(const Matrix& a, double init, Fold fold) {
  double acc = init;
  if (a.is_sparse()) {
    for (double v : a.sparse().values()) acc = fold(acc, v);
    if (a.sparse().nnz() < a.Cells()) acc = fold(acc, 0.0);
  } else {
    const double* p = a.dense().data();
    for (int64_t i = 0; i < a.dense().size(); ++i) acc = fold(acc, p[i]);
  }
  return acc;
}

}  // namespace

double Min(const Matrix& a) {
  return FullReduce(a, std::numeric_limits<double>::infinity(),
                    [](double x, double y) { return std::min(x, y); });
}

double Max(const Matrix& a) {
  return FullReduce(a, -std::numeric_limits<double>::infinity(),
                    [](double x, double y) { return std::max(x, y); });
}

double Mean(const Matrix& a) {
  int64_t n = a.Cells();
  return n == 0 ? 0.0 : Sum(a) / static_cast<double>(n);
}

double Var(const Matrix& a) {
  const int64_t n = a.Cells();
  if (n <= 1) return 0.0;
  const double mean = Mean(a);
  double ssq = 0.0;
  if (a.is_sparse()) {
    for (double v : a.sparse().values()) ssq += (v - mean) * (v - mean);
    ssq += static_cast<double>(n - a.sparse().nnz()) * mean * mean;
  } else {
    const double* p = a.dense().data();
    for (int64_t i = 0; i < a.dense().size(); ++i) {
      ssq += (p[i] - mean) * (p[i] - mean);
    }
  }
  return ssq / static_cast<double>(n - 1);
}

namespace {

// Row-wise reductions on the dense view. `stat` maps a row span to a value.
template <typename Stat>
Matrix RowStat(const Matrix& a, Stat stat) {
  DenseMatrix d = a.ToDense();
  DenseMatrix out(d.rows(), 1);
  for (int64_t i = 0; i < d.rows(); ++i) {
    out.At(i, 0) = stat(d.row(i), d.cols());
  }
  return Matrix(std::move(out));
}

template <typename Stat>
Matrix ColStat(const Matrix& a, Stat stat) {
  DenseMatrix d = a.ToDense();
  DenseMatrix t = TransposeDense(d);
  DenseMatrix out(1, d.cols());
  for (int64_t j = 0; j < d.cols(); ++j) {
    out.At(0, j) = stat(t.row(j), t.cols());
  }
  return Matrix(std::move(out));
}

double SpanMin(const double* p, int64_t n) {
  double m = p[0];
  for (int64_t i = 1; i < n; ++i) m = std::min(m, p[i]);
  return m;
}
double SpanMax(const double* p, int64_t n) {
  double m = p[0];
  for (int64_t i = 1; i < n; ++i) m = std::max(m, p[i]);
  return m;
}
double SpanMean(const double* p, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += p[i];
  return s / static_cast<double>(n);
}
double SpanVar(const double* p, int64_t n) {
  if (n <= 1) return 0.0;
  double mean = SpanMean(p, n);
  double ssq = 0.0;
  for (int64_t i = 0; i < n; ++i) ssq += (p[i] - mean) * (p[i] - mean);
  return ssq / static_cast<double>(n - 1);
}

}  // namespace

Matrix RowMins(const Matrix& a) { return RowStat(a, SpanMin); }
Matrix RowMaxs(const Matrix& a) { return RowStat(a, SpanMax); }
Matrix RowMeans(const Matrix& a) { return RowStat(a, SpanMean); }
Matrix RowVars(const Matrix& a) { return RowStat(a, SpanVar); }
Matrix ColMins(const Matrix& a) { return ColStat(a, SpanMin); }
Matrix ColMaxs(const Matrix& a) { return ColStat(a, SpanMax); }
Matrix ColMeans(const Matrix& a) { return ColStat(a, SpanMean); }
Matrix ColVars(const Matrix& a) { return ColStat(a, SpanVar); }

Result<Matrix> Cbind(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) return DimMismatch("cbind", a, b);
  if (a.is_sparse() && b.is_sparse()) {
    std::vector<Triplet> triplets;
    const SparseMatrix& sa = a.sparse();
    const SparseMatrix& sb = b.sparse();
    for (int64_t i = 0; i < sa.rows(); ++i) {
      for (int64_t p = sa.row_ptr()[static_cast<size_t>(i)];
           p < sa.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        triplets.push_back({i, sa.col_idx()[static_cast<size_t>(p)],
                            sa.values()[static_cast<size_t>(p)]});
      }
      for (int64_t p = sb.row_ptr()[static_cast<size_t>(i)];
           p < sb.row_ptr()[static_cast<size_t>(i) + 1]; ++p) {
        triplets.push_back({i, a.cols() + sb.col_idx()[static_cast<size_t>(p)],
                            sb.values()[static_cast<size_t>(p)]});
      }
    }
    return Matrix(SparseMatrix::FromTriplets(a.rows(), a.cols() + b.cols(),
                                             std::move(triplets)));
  }
  DenseMatrix out(a.rows(), a.cols() + b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) out.At(i, j) = a.At(i, j);
    for (int64_t j = 0; j < b.cols(); ++j) out.At(i, a.cols() + j) = b.At(i, j);
  }
  return Matrix(std::move(out));
}

int64_t ApproxBytes(const Matrix& a) {
  if (a.is_dense()) {
    return a.dense().size() * static_cast<int64_t>(sizeof(double));
  }
  const SparseMatrix& s = a.sparse();
  const int64_t per_entry = sizeof(double) + sizeof(int64_t);
  return s.nnz() * per_entry +
         (s.rows() + 1) * static_cast<int64_t>(sizeof(int64_t));
}

Status AppendRows(Matrix* base, const Matrix& rows) {
  if (base->cols() != rows.cols()) {
    return Status::DimensionMismatch("cannot append " + DimStr(rows) +
                                     " rows to a " + DimStr(*base) +
                                     " matrix");
  }
  if (rows.rows() == 0) return Status::OK();
  if (base->is_dense()) {
    base->mutable_dense().AppendRows(rows.ToDense());
  } else {
    base->mutable_sparse().AppendRows(rows.ToSparse());
  }
  return Status::OK();
}

Status TruncateRows(Matrix* base, int64_t rows) {
  if (rows < 0 || rows > base->rows()) {
    return Status::OutOfRange("cannot truncate " + DimStr(*base) + " to " +
                              std::to_string(rows) + " rows");
  }
  if (base->is_dense()) {
    base->mutable_dense().TruncateRows(rows);
  } else {
    base->mutable_sparse().TruncateRows(rows);
  }
  return Status::OK();
}

}  // namespace hadad::matrix
