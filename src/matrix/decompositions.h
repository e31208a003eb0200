#ifndef HADAD_MATRIX_DECOMPOSITIONS_H_
#define HADAD_MATRIX_DECOMPOSITIONS_H_

#include <vector>

#include "common/status.h"
#include "matrix/matrix.h"

namespace hadad::matrix {

// M = L * U with L unit lower-triangular, U upper-triangular, no pivoting
// (Doolittle). Fails with NotSupported when a zero pivot is hit — use
// PluDecompose then.
struct LuResult {
  Matrix l;
  Matrix u;
};
Result<LuResult> LuDecompose(const Matrix& m);

// P * M = L * U with partial pivoting. perm[i] gives the source row of
// permuted row i; sign is det(P) in {-1, +1}.
struct PluResult {
  Matrix l;
  Matrix u;
  std::vector<int64_t> perm;
  double sign = 1.0;
};
Result<PluResult> PluDecompose(const Matrix& m);

// The partial-pivoting elimination behind PluDecompose, Determinant, Inverse
// and Adjugate, packed into one dense n x n buffer: L's multipliers strictly
// below the diagonal (its unit diagonal implied), U on and above it; perm
// and sign as in PluResult. A zero pivot leaves its column uneliminated and
// the zero in U. The trailing-row update runs as the active SIMD tier's
// axpy with -f, which matches a(r, j) -= f * a(col, j) bit for bit on
// every non-NaN value.
struct PackedPlu {
  DenseMatrix lu;
  std::vector<int64_t> perm;
  double sign = 1.0;
};
// `a` must be square.
PackedPlu FactorPlu(DenseMatrix a);

// M = Q * R with Q orthogonal, R upper-triangular (Householder reflections).
// Requires a square matrix, matching the paper's QR constraint (§6.2.5).
struct QrResult {
  Matrix q;
  Matrix r;
};
Result<QrResult> QrDecompose(const Matrix& m);

// M = L * L^T for a symmetric positive definite M; L lower-triangular.
Result<Matrix> CholeskyDecompose(const Matrix& m);

// Structural predicates used when declaring matrix `type` facts (§6.2.5):
// "S" symmetric positive definite, "L"/"U" triangular, "O" orthogonal.
bool IsSymmetric(const Matrix& m, double tol = 1e-9);
bool IsLowerTriangular(const Matrix& m, double tol = 1e-12);
bool IsUpperTriangular(const Matrix& m, double tol = 1e-12);
bool IsOrthogonal(const Matrix& m, double tol = 1e-8);

}  // namespace hadad::matrix

#endif  // HADAD_MATRIX_DECOMPOSITIONS_H_
