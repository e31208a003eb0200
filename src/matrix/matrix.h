#ifndef HADAD_MATRIX_MATRIX_H_
#define HADAD_MATRIX_MATRIX_H_

#include <cstdint>
#include <functional>
#include <variant>

#include "common/status.h"
#include "matrix/dense_matrix.h"
#include "matrix/sparse_matrix.h"

namespace hadad::matrix {

// Partitioning hook the parallel kernels use to split an index range (rows,
// or columns for the inverse's solves): runner(n, body) must invoke
// body(begin, end) over a disjoint cover of [0, n), possibly concurrently
// (exec::ThreadPool::ParallelFor adapts to this signature). A null runner
// means sequential: body(0, n).
//
// Every kernel that takes one assigns each output element to exactly one
// chunk and keeps that element's operation order independent of the
// partition, so results are bit-for-bit identical at every thread count.
using RangeRunner =
    std::function<void(int64_t n, const std::function<void(int64_t, int64_t)>&)>;

// Recommended partition grain (indices per chunk) for these kernels. Callers
// adapting a thread pool should split ranges at multiples of this so
// chunking stays independent of the worker count.
inline constexpr int64_t kRowGrain = 64;

// Runs `body` over [0, n) through `runner`, or as body(0, n) when it is null.
void RunRange(const RangeRunner& runner, int64_t n,
              const std::function<void(int64_t, int64_t)>& body);

// Physical representation wrapper: a matrix is stored dense (row-major) or
// sparse (CSR). Operations dispatch on representation and pick the natural
// output representation (e.g. sparse * dense -> dense, sparse (+) sparse ->
// sparse). Scalars are 1x1 dense matrices, matching the paper's treatment of
// numbers as degenerate matrices (§3).
class Matrix {
 public:
  Matrix() : rep_(DenseMatrix()) {}
  Matrix(DenseMatrix dense) : rep_(std::move(dense)) {}    // NOLINT
  Matrix(SparseMatrix sparse) : rep_(std::move(sparse)) {} // NOLINT

  static Matrix Scalar(double v) { return Matrix(DenseMatrix::Scalar(v)); }
  static Matrix Identity(int64_t n) { return Matrix(DenseMatrix::Identity(n)); }
  static Matrix Zero(int64_t rows, int64_t cols) {
    return Matrix(DenseMatrix::Zero(rows, cols));
  }

  bool is_dense() const { return std::holds_alternative<DenseMatrix>(rep_); }
  bool is_sparse() const { return !is_dense(); }

  const DenseMatrix& dense() const {
    HADAD_CHECK(is_dense());
    return std::get<DenseMatrix>(rep_);
  }
  const SparseMatrix& sparse() const {
    HADAD_CHECK(is_sparse());
    return std::get<SparseMatrix>(rep_);
  }

  // Mutable access for in-place maintenance (row append). Same
  // representation-checked contract as the const accessors.
  DenseMatrix& mutable_dense() {
    HADAD_CHECK(is_dense());
    return std::get<DenseMatrix>(rep_);
  }
  SparseMatrix& mutable_sparse() {
    HADAD_CHECK(is_sparse());
    return std::get<SparseMatrix>(rep_);
  }

  int64_t rows() const {
    return is_dense() ? dense().rows() : sparse().rows();
  }
  int64_t cols() const {
    return is_dense() ? dense().cols() : sparse().cols();
  }
  bool IsScalar() const { return rows() == 1 && cols() == 1; }
  bool IsSquare() const { return rows() == cols(); }

  // The value of a 1x1 matrix.
  double ScalarValue() const;

  double At(int64_t r, int64_t c) const {
    return is_dense() ? dense().At(r, c) : sparse().At(r, c);
  }

  // Exact count of non-zero cells.
  int64_t Nnz() const {
    return is_dense() ? dense().CountNonZeros() : sparse().nnz();
  }

  // Total cells (rows * cols). This is the "dense size" used by the naive
  // cost model for dense intermediates.
  int64_t Cells() const { return rows() * cols(); }

  DenseMatrix ToDense() const {
    return is_dense() ? dense() : sparse().ToDense();
  }
  SparseMatrix ToSparse() const {
    return is_sparse() ? sparse() : SparseMatrix::FromDense(dense());
  }

  // Value-based comparison up to tolerance, representation-agnostic.
  bool ApproxEquals(const Matrix& other, double tol = 1e-8) const;

 private:
  std::variant<DenseMatrix, SparseMatrix> rep_;
};

// ---------------------------------------------------------------------------
// Lops kernels (§6.1). Every operation the paper's 𝐿𝑜𝑝𝑠 set supports.
// All functions validate dimensions and return Status on misuse.
// ---------------------------------------------------------------------------

// Matrix product A * B (multiM). Also covers scalar * matrix when one side is
// 1x1 (delegates to ScalarMultiply), mirroring LA-language conveniences.
Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

// Element-wise sum / difference (addM).
Result<Matrix> Add(const Matrix& a, const Matrix& b);
Result<Matrix> Subtract(const Matrix& a, const Matrix& b);

// Hadamard product (multiE) and element-wise division (divM).
Result<Matrix> ElementwiseMultiply(const Matrix& a, const Matrix& b);
Result<Matrix> ElementwiseDivide(const Matrix& a, const Matrix& b);

// Scalar-matrix product s * A (multiMS).
Matrix ScalarMultiply(double s, const Matrix& a);

// Transposition (tr).
Matrix Transpose(const Matrix& a);

// Reverses the row order (SystemML's rev, used by MMC_StatAgg rules).
Matrix Reverse(const Matrix& a);

// Inverse (invM); requires a square, non-singular matrix. Solves all n
// right-hand sides at once on one packed PLU factorization; `runner` splits
// the columns of the solve.
Result<Matrix> Inverse(const Matrix& a, const RangeRunner& runner = nullptr);

// Determinant (det); requires square.
Result<double> Determinant(const Matrix& a);

// Trace; requires square.
Result<double> Trace(const Matrix& a);

// diag: for an n-vector, the n x n diagonal matrix; for a square matrix, its
// diagonal as an n x 1 vector (R semantics).
Result<Matrix> Diag(const Matrix& a);

// Matrix exponential e^A via scaling-and-squaring; requires square. The
// Taylor terms and squarings run on MultiplyDenseBlocked with `runner`.
Result<Matrix> MatrixExp(const Matrix& a, const RangeRunner& runner = nullptr);

// Adjugate (classical adjoint, adj): adj(A) with A * adj(A) = det(A) * I.
Result<Matrix> Adjugate(const Matrix& a);

// Direct sum (sumD): block-diagonal [[A, 0], [0, B]].
Matrix DirectSum(const Matrix& a, const Matrix& b);

// Direct (Kronecker) product (productD).
Result<Matrix> KroneckerProduct(const Matrix& a, const Matrix& b);

// Full and partial aggregations (sum / rowSums / colSums and the
// min/max/mean/var family needed by the SystemML MMC_StatAgg rules).
double Sum(const Matrix& a);
Matrix RowSums(const Matrix& a);   // n x 1
Matrix ColSums(const Matrix& a);   // 1 x m
double Min(const Matrix& a);
double Max(const Matrix& a);
double Mean(const Matrix& a);
double Var(const Matrix& a);       // sample variance over all cells
Matrix RowMins(const Matrix& a);
Matrix RowMaxs(const Matrix& a);
Matrix RowMeans(const Matrix& a);
Matrix RowVars(const Matrix& a);
Matrix ColMins(const Matrix& a);
Matrix ColMaxs(const Matrix& a);
Matrix ColMeans(const Matrix& a);
Matrix ColVars(const Matrix& a);

// Horizontal concatenation [A | B]; rows must match (used by Morpheus).
Result<Matrix> Cbind(const Matrix& a, const Matrix& b);

// Approximate resident payload size: dense cells, or the CSR value/index/
// row-pointer arrays. The adaptive view store budgets against this.
int64_t ApproxBytes(const Matrix& a);

// Appends the rows of `rows` below `*base` in place (the mutable data
// layer's row-append primitive). `rows` is converted to base's
// representation when they differ; column counts must match.
Status AppendRows(Matrix* base, const Matrix& rows);

// Keeps the first `rows` rows of `*base` in place — the inverse of
// AppendRows, used to roll a failed mutation back. OutOfRange when `rows`
// exceeds the current row count.
Status TruncateRows(Matrix* base, int64_t rows);

}  // namespace hadad::matrix

#endif  // HADAD_MATRIX_MATRIX_H_
