#include "matrix/decompositions.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "matrix/simd.h"

namespace hadad::matrix {

Result<LuResult> LuDecompose(const Matrix& m) {
  if (!m.IsSquare()) {
    return Status::InvalidArgument("LU requires a square matrix");
  }
  const int64_t n = m.rows();
  DenseMatrix a = m.ToDense();
  DenseMatrix l = DenseMatrix::Identity(n);
  DenseMatrix u(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      double s = a.At(i, j);
      for (int64_t k = 0; k < i; ++k) s -= l.At(i, k) * u.At(k, j);
      u.At(i, j) = s;
    }
    if (std::fabs(u.At(i, i)) < 1e-13) {
      return Status::NotSupported(
          "LU without pivoting hit a zero pivot; use PLU");
    }
    for (int64_t j = i + 1; j < n; ++j) {
      double s = a.At(j, i);
      for (int64_t k = 0; k < i; ++k) s -= l.At(j, k) * u.At(k, i);
      l.At(j, i) = s / u.At(i, i);
    }
  }
  return LuResult{Matrix(std::move(l)), Matrix(std::move(u))};
}

PackedPlu FactorPlu(DenseMatrix a) {
  HADAD_CHECK_EQ(a.rows(), a.cols());
  const int64_t n = a.rows();
  PackedPlu out;
  out.perm.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out.perm[static_cast<size_t>(i)] = i;
  const SimdOps& ops = ActiveOps();
  for (int64_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest remaining entry in this column.
    int64_t pivot = col;
    double best = std::fabs(a.At(col, col));
    for (int64_t r = col + 1; r < n; ++r) {
      if (std::fabs(a.At(r, col)) > best) {
        best = std::fabs(a.At(r, col));
        pivot = r;
      }
    }
    if (pivot != col) {
      std::swap_ranges(a.row(col), a.row(col) + n, a.row(pivot));
      std::swap(out.perm[static_cast<size_t>(col)],
                out.perm[static_cast<size_t>(pivot)]);
      out.sign = -out.sign;
    }
    const double p = a.At(col, col);
    if (p == 0.0) continue;  // Singular; U keeps the zero pivot.
    const double* pivot_row = a.row(col) + col + 1;
    for (int64_t r = col + 1; r < n; ++r) {
      double* row = a.row(r);
      const double f = row[col] / p;
      row[col] = f;  // Store the L multiplier in place.
      // a(r, j) -= f * a(col, j): x - f*y and x + (-f)*y round alike.
      ops.axpy(row + col + 1, pivot_row, -f, n - col - 1);
    }
  }
  out.lu = std::move(a);
  return out;
}

Result<PluResult> PluDecompose(const Matrix& m) {
  if (!m.IsSquare()) {
    return Status::InvalidArgument("PLU requires a square matrix");
  }
  const int64_t n = m.rows();
  PackedPlu packed = FactorPlu(m.ToDense());
  DenseMatrix l = DenseMatrix::Identity(n);
  DenseMatrix u(n, n);
  for (int64_t i = 0; i < n; ++i) {
    const double* lu_row = packed.lu.row(i);
    std::copy(lu_row, lu_row + i, l.row(i));
    std::copy(lu_row + i, lu_row + n, u.row(i) + i);
  }
  PluResult out;
  out.l = Matrix(std::move(l));
  out.u = Matrix(std::move(u));
  out.perm = std::move(packed.perm);
  out.sign = packed.sign;
  return out;
}

Result<QrResult> QrDecompose(const Matrix& m) {
  if (!m.IsSquare()) {
    return Status::InvalidArgument("QR (as encoded in VREM) requires square");
  }
  const int64_t n = m.rows();
  DenseMatrix r = m.ToDense();
  DenseMatrix q = DenseMatrix::Identity(n);
  std::vector<double> v(static_cast<size_t>(n));
  for (int64_t col = 0; col < n - 1; ++col) {
    // If the column is already eliminated below the diagonal, skip the
    // reflection. This keeps QR(I) = [I, I] and QR(U) = [I, U] — the fixed
    // points the paper's MMC constraints (7)-(9) rely on.
    double below = 0.0;
    for (int64_t i = col + 1; i < n; ++i) {
      below += r.At(i, col) * r.At(i, col);
    }
    if (below < 1e-28) continue;
    // Householder vector for column `col` below the diagonal.
    double norm = below + r.At(col, col) * r.At(col, col);
    norm = std::sqrt(norm);
    if (norm < 1e-14) continue;
    const double alpha = (r.At(col, col) > 0) ? -norm : norm;
    // v = x - alpha * e1 over the trailing block.
    double vnorm_sq = 0.0;
    for (int64_t i = col; i < n; ++i) {
      v[static_cast<size_t>(i)] = r.At(i, col) - ((i == col) ? alpha : 0.0);
      vnorm_sq += v[static_cast<size_t>(i)] * v[static_cast<size_t>(i)];
    }
    if (vnorm_sq < 1e-28) continue;
    const double beta = 2.0 / vnorm_sq;
    // R <- (I - beta v v^T) R over rows col..n-1.
    for (int64_t j = col; j < n; ++j) {
      double dot = 0.0;
      for (int64_t i = col; i < n; ++i) {
        dot += v[static_cast<size_t>(i)] * r.At(i, j);
      }
      dot *= beta;
      for (int64_t i = col; i < n; ++i) {
        r.At(i, j) -= dot * v[static_cast<size_t>(i)];
      }
    }
    // Q <- Q (I - beta v v^T).
    for (int64_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (int64_t jj = col; jj < n; ++jj) {
        dot += q.At(i, jj) * v[static_cast<size_t>(jj)];
      }
      dot *= beta;
      for (int64_t jj = col; jj < n; ++jj) {
        q.At(i, jj) -= dot * v[static_cast<size_t>(jj)];
      }
    }
  }
  // Zero out numerical noise below the diagonal of R.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < i; ++j) r.At(i, j) = 0.0;
  }
  return QrResult{Matrix(std::move(q)), Matrix(std::move(r))};
}

Result<Matrix> CholeskyDecompose(const Matrix& m) {
  if (!m.IsSquare()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  if (!IsSymmetric(m, 1e-8)) {
    return Status::InvalidArgument("Cholesky requires a symmetric matrix");
  }
  const int64_t n = m.rows();
  DenseMatrix a = m.ToDense();
  DenseMatrix l(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      double s = a.At(i, j);
      for (int64_t k = 0; k < j; ++k) s -= l.At(i, k) * l.At(j, k);
      if (i == j) {
        if (s <= 0.0) {
          return Status::InvalidArgument(
              "Cholesky requires positive definiteness");
        }
        l.At(i, j) = std::sqrt(s);
      } else {
        l.At(i, j) = s / l.At(j, j);
      }
    }
  }
  return Matrix(std::move(l));
}

bool IsSymmetric(const Matrix& m, double tol) {
  if (!m.IsSquare()) return false;
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = i + 1; j < m.cols(); ++j) {
      if (std::fabs(m.At(i, j) - m.At(j, i)) > tol) return false;
    }
  }
  return true;
}

bool IsLowerTriangular(const Matrix& m, double tol) {
  if (!m.IsSquare()) return false;
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = i + 1; j < m.cols(); ++j) {
      if (std::fabs(m.At(i, j)) > tol) return false;
    }
  }
  return true;
}

bool IsUpperTriangular(const Matrix& m, double tol) {
  if (!m.IsSquare()) return false;
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < i; ++j) {
      if (std::fabs(m.At(i, j)) > tol) return false;
    }
  }
  return true;
}

bool IsOrthogonal(const Matrix& m, double tol) {
  if (!m.IsSquare()) return false;
  auto prod = Multiply(Transpose(m), m);
  if (!prod.ok()) return false;
  return prod->ApproxEquals(Matrix::Identity(m.rows()), tol);
}

}  // namespace hadad::matrix
