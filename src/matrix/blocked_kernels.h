#ifndef HADAD_MATRIX_BLOCKED_KERNELS_H_
#define HADAD_MATRIX_BLOCKED_KERNELS_H_

#include <cstdint>
#include <vector>

#include "matrix/dense_matrix.h"
#include "matrix/matrix.h"
#include "matrix/sparse_matrix.h"

namespace hadad::matrix {

// Row-partitioned kernels over a RangeRunner (matrix.h). Each assigns every
// output row to exactly one chunk and keeps its per-row accumulation order
// independent of the partition, so results are bit-for-bit identical at
// every thread count, and to the naive kernels in matrix.cc that they
// supersede on large inputs: Multiply's dense x dense loop (also after a
// Transpose, for the fused t(A) x B), its sparse x dense loop and
// Gustavson SpGEMM, the Add/ElementwiseMultiply/ScalarMultiply chain, and
// Sum/RowSums/ColSums/Mean/ColMeans over a materialized product. MatrixExp
// has no naive form left: it runs its products on MultiplyDenseBlocked.

// Cache-blocked, row-partitioned dense GEMM: out = a * b. Tiles the inner
// (k) dimension so the active rows of `b` stay hot in cache while a block of
// output rows is computed; parallelism partitions the output rows.
DenseMatrix MultiplyDenseBlocked(const DenseMatrix& a, const DenseMatrix& b,
                                 const RangeRunner& runner = nullptr);

// Transpose-fused dense GEMM: out = t(a) * b without materializing t(a).
// a is read row-wise (row p of `a` contributes a[p][i] to output row i), so
// the fused kernel streams both inputs sequentially.
DenseMatrix MultiplyTransposedDenseBlocked(const DenseMatrix& a,
                                           const DenseMatrix& b,
                                           const RangeRunner& runner = nullptr);

// Row-parallel CSR SpMM: out = a * b with a sparse, b dense. Covers SpMV as
// the b.cols() == 1 case. Each output row depends on one CSR row only.
DenseMatrix MultiplySparseDenseParallel(const SparseMatrix& a,
                                        const DenseMatrix& b,
                                        const RangeRunner& runner = nullptr);

// Parallel sparse x sparse product (SpGEMM): Gustavson per-row accumulation
// with one dense accumulator and one triplet buffer per chunk of output
// rows. Each output row is produced by exactly one chunk with the
// sequential per-row accumulation order, and triplet assembly sorts by
// (row, col) — so the result is bit-identical to the sequential Gustavson
// kernel in matrix.cc at every thread count.
SparseMatrix MultiplySparseSparseParallel(const SparseMatrix& a,
                                          const SparseMatrix& b,
                                          const RangeRunner& runner = nullptr);

// ---------------------------------------------------------------------------
// Fused elementwise programs (operator fusion).
// ---------------------------------------------------------------------------
// A chain of elementwise operators (add / hadamard / scalar-multiply) over
// same-shape dense operands is evaluated in ONE pass: per output row, a tiny
// stack machine interprets the program with row-sized scratch buffers that
// stay cache-hot, instead of allocating one full intermediate matrix per
// operator. Per-element operation order equals applying the operators one at
// a time, so results are bit-identical to the unfused evaluation — at every
// thread count (rows are partitioned, each row belongs to one chunk).
//
// This is the physical form of la::ElemProgram; exec/ lowers the semantic
// program (which still carries la::OpKind for the non-dense fallback) into
// these steps so the matrix layer stays independent of la/.

// A program input: a same-shape dense operand, or a broadcast scalar
// (dense == nullptr) whose single value applies to every element.
struct FusedInput {
  const DenseMatrix* dense = nullptr;
  double scalar = 0.0;
};

struct FusedStep {
  enum class Code {
    kPushInput,  // Push inputs[input] (broadcast when scalar).
    kPushConst,  // Push the literal `value`.
    kAdd,        // Pop rhs then lhs, push lhs + rhs.
    kMul,        // Pop rhs then lhs, push lhs * rhs.
  };
  Code code = Code::kPushInput;
  int32_t input = 0;
  double value = 0.0;
};

struct FusedElementwiseProgram {
  std::vector<FusedStep> steps;
  int32_t max_stack = 0;  // Peak operand-stack depth (scratch buffer count).
};

// Evaluates `program` over `inputs` into a rows x cols dense matrix. Every
// non-scalar input must be rows x cols. Row-parallel via `runner`; the
// result never depends on the partition.
DenseMatrix EvalFusedElementwise(const FusedElementwiseProgram& program,
                                 const std::vector<FusedInput>& inputs,
                                 int64_t rows, int64_t cols,
                                 const RangeRunner& runner = nullptr);

// ---------------------------------------------------------------------------
// Aggregation-pushdown (reducing) GEMM kernels.
// ---------------------------------------------------------------------------
// sum / rowSums / colSums of a dense product a * b, computed WITHOUT
// materializing the product: each kernel streams product rows through a
// bounded buffer and reduces on the fly. Per-cell dot products accumulate in
// ascending-k order with the same zero-skip as MultiplyDenseBlocked, and the
// reduction visits cells in exactly the order the unfused aggregate
// (matrix.cc Sum/RowSums/ColSums over the materialized product) would — so
// all three are bit-identical to the unfused pipeline at every thread count.

// rowSums(a * b) as an a.rows() x 1 matrix. Row-parallel; O(b.cols()) extra
// memory per chunk.
DenseMatrix GemmRowSums(const DenseMatrix& a, const DenseMatrix& b,
                        const RangeRunner& runner = nullptr);

// colSums(a * b) as a 1 x b.cols() matrix. Column-parallel (each chunk owns
// a column range and accumulates rows in ascending order); O(chunk width)
// extra memory per chunk.
DenseMatrix GemmColSums(const DenseMatrix& a, const DenseMatrix& b,
                        const RangeRunner& runner = nullptr);

// sum(a * b): the full reduction. Product rows are computed block-by-block
// (rows within a block in parallel) and folded into one accumulator in flat
// row-major order — the exact association of matrix::Sum over the
// materialized product.
double GemmSum(const DenseMatrix& a, const DenseMatrix& b,
               const RangeRunner& runner = nullptr);

// mean(a * b) = GemmSum / cell count. matrix::Mean divides once after the
// complete flat sum, so this is bit-identical to Mean over the materialized
// product (0.0 for an empty product, matching matrix::Mean).
double GemmMean(const DenseMatrix& a, const DenseMatrix& b,
                const RangeRunner& runner = nullptr);

// colMeans(a * b) as a 1 x b.cols() matrix: the GemmColSums fold with each
// finished column sum divided by a.rows() once at store time — the exact
// association of matrix::ColMeans (ascending-row SpanMean per column) over
// the materialized product. Column-parallel like GemmColSums.
DenseMatrix GemmColMeans(const DenseMatrix& a, const DenseMatrix& b,
                         const RangeRunner& runner = nullptr);

}  // namespace hadad::matrix

#endif  // HADAD_MATRIX_BLOCKED_KERNELS_H_
