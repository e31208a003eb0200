#include "matrix/blocked_kernels.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "matrix/simd.h"

namespace hadad::matrix {

DenseMatrix MultiplyDenseBlocked(const DenseMatrix& a, const DenseMatrix& b,
                                 const RangeRunner& runner) {
  HADAD_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix out(a.rows(), b.cols());
  const int64_t k = a.cols();
  const int64_t m = b.cols();
  // Row microkernels + inner-dimension tile depth of the active SIMD tier:
  // ops.k_tile rows of `b` stay hot while a chunk of output rows
  // accumulates. Tiling and dispatch never reorder a cell's ascending-k
  // accumulation, so results are tier- and partition-independent.
  const SimdOps& ops = ActiveOps();
  RunRange(runner, a.rows(), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t kk = 0; kk < k; kk += ops.k_tile) {
      const int64_t kend = std::min(k, kk + ops.k_tile);
      for (int64_t i = row_begin; i < row_end; ++i) {
        double* out_row = out.row(i);
        const double* a_row = a.row(i);
        for (int64_t p = kk; p < kend; ++p) {
          const double av = a_row[p];
          if (av == 0.0) continue;
          ops.axpy(out_row, b.row(p), av, m);
        }
      }
    }
  });
  return out;
}

DenseMatrix MultiplyTransposedDenseBlocked(const DenseMatrix& a,
                                           const DenseMatrix& b,
                                           const RangeRunner& runner) {
  HADAD_CHECK_EQ(a.rows(), b.rows());
  DenseMatrix out(a.cols(), b.cols());
  const int64_t k = a.rows();  // Shared dimension: rows of both inputs.
  const int64_t m = b.cols();
  const SimdOps& ops = ActiveOps();
  RunRange(runner, a.cols(), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t kk = 0; kk < k; kk += ops.k_tile) {
      const int64_t kend = std::min(k, kk + ops.k_tile);
      for (int64_t i = row_begin; i < row_end; ++i) {
        double* out_row = out.row(i);
        for (int64_t p = kk; p < kend; ++p) {
          const double av = a.At(p, i);
          if (av == 0.0) continue;
          ops.axpy(out_row, b.row(p), av, m);
        }
      }
    }
  });
  return out;
}

DenseMatrix MultiplySparseDenseParallel(const SparseMatrix& a,
                                        const DenseMatrix& b,
                                        const RangeRunner& runner) {
  HADAD_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix out(a.rows(), b.cols());
  const int64_t m = b.cols();
  const auto& rptr = a.row_ptr();
  const auto& cidx = a.col_idx();
  const auto& vals = a.values();
  const SimdOps& ops = ActiveOps();
  RunRange(runner, a.rows(), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      double* out_row = out.row(i);
      for (int64_t p = rptr[static_cast<size_t>(i)];
           p < rptr[static_cast<size_t>(i) + 1]; ++p) {
        ops.axpy(out_row, b.row(cidx[static_cast<size_t>(p)]),
                 vals[static_cast<size_t>(p)], m);
      }
    }
  });
  return out;
}

SparseMatrix MultiplySparseSparseParallel(const SparseMatrix& a,
                                          const SparseMatrix& b,
                                          const RangeRunner& runner) {
  HADAD_CHECK_EQ(a.cols(), b.rows());
  const auto& a_rptr = a.row_ptr();
  const auto& a_cidx = a.col_idx();
  const auto& a_vals = a.values();
  const auto& b_rptr = b.row_ptr();
  const auto& b_cidx = b.col_idx();
  const auto& b_vals = b.values();

  // Each chunk owns a private accumulator and triplet buffer. Determinism
  // does not depend on chunk completion order: every output row is
  // produced by exactly one chunk with the sequential per-row accumulation
  // order, and FromTriplets sorts by (row, col) — so the assembled result
  // is bit-identical to the sequential kernel however the buffers land.
  std::mutex mu;
  std::vector<Triplet> triplets;
  RunRange(runner, a.rows(), [&](int64_t row_begin, int64_t row_end) {
    std::vector<Triplet> buf;
    std::vector<double> acc(static_cast<size_t>(b.cols()), 0.0);
    std::vector<int64_t> touched;
    for (int64_t i = row_begin; i < row_end; ++i) {
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
          buf.push_back({i, j, acc[static_cast<size_t>(j)]});
        }
        acc[static_cast<size_t>(j)] = 0.0;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    triplets.insert(triplets.end(), buf.begin(), buf.end());
  });
  return SparseMatrix::FromTriplets(a.rows(), b.cols(), std::move(triplets));
}

namespace {

// Computes row `i` of a * b into `out_row` (length b.cols()), matching
// MultiplyDenseBlocked's per-cell bits: ascending-k accumulation with the
// zero-skip on a's entries (k-tiling never reorders a single cell's sum).
void ProductRow(const DenseMatrix& a, const DenseMatrix& b, int64_t i,
                double* out_row, const SimdOps& ops) {
  const int64_t k = a.cols();
  const int64_t m = b.cols();
  std::fill(out_row, out_row + m, 0.0);
  const double* a_row = a.row(i);
  for (int64_t p = 0; p < k; ++p) {
    const double av = a_row[p];
    if (av == 0.0) continue;
    ops.axpy(out_row, b.row(p), av, m);
  }
}

}  // namespace

DenseMatrix EvalFusedElementwise(const FusedElementwiseProgram& program,
                                 const std::vector<FusedInput>& inputs,
                                 int64_t rows, int64_t cols,
                                 const RangeRunner& runner) {
  DenseMatrix out(rows, cols);
  const size_t scratch_count = static_cast<size_t>(program.max_stack);
  const SimdOps& ops = ActiveOps();
  RunRange(runner, rows, [&](int64_t row_begin, int64_t row_end) {
    // One operand-stack value: a row view (borrowed input row or owned
    // scratch buffer) or a broadcast scalar.
    struct Val {
      const double* vec = nullptr;  // Null: broadcast scalar.
      double scalar = 0.0;
      int owned = -1;  // Scratch index backing `vec`, or -1 if borrowed.
    };
    std::vector<std::vector<double>> scratch(
        scratch_count, std::vector<double>(static_cast<size_t>(cols)));
    std::vector<Val> stack;
    std::vector<int> free_bufs;
    stack.reserve(scratch_count);
    for (int64_t i = row_begin; i < row_end; ++i) {
      stack.clear();
      free_bufs.clear();
      for (size_t s = 0; s < scratch_count; ++s) {
        free_bufs.push_back(static_cast<int>(s));
      }
      for (const FusedStep& step : program.steps) {
        switch (step.code) {
          case FusedStep::Code::kPushInput: {
            const FusedInput& in = inputs[static_cast<size_t>(step.input)];
            if (in.dense != nullptr) {
              stack.push_back(Val{in.dense->row(i), 0.0, -1});
            } else {
              stack.push_back(Val{nullptr, in.scalar, -1});
            }
            break;
          }
          case FusedStep::Code::kPushConst:
            stack.push_back(Val{nullptr, step.value, -1});
            break;
          case FusedStep::Code::kAdd:
          case FusedStep::Code::kMul: {
            const Val b = stack.back();
            stack.pop_back();
            const Val a = stack.back();
            stack.pop_back();
            const bool mul = step.code == FusedStep::Code::kMul;
            if (a.vec == nullptr && b.vec == nullptr) {
              // Scalar (x) scalar: the same value for every element, so one
              // evaluation matches the per-element result exactly.
              stack.push_back(Val{nullptr,
                                  mul ? a.scalar * b.scalar
                                      : a.scalar + b.scalar,
                                  -1});
              break;
            }
            // Reuse an operand's scratch as the destination when possible;
            // in-place is safe (element j reads only element j).
            int dest;
            if (a.owned >= 0) {
              dest = a.owned;
              if (b.owned >= 0) free_bufs.push_back(b.owned);
            } else if (b.owned >= 0) {
              dest = b.owned;
            } else {
              dest = free_bufs.back();
              free_bufs.pop_back();
            }
            double* d = scratch[static_cast<size_t>(dest)].data();
            // Dispatched row ops; `d` may exactly alias an operand (in-place
            // reuse above), which the SimdOps contract permits.
            if (a.vec != nullptr && b.vec != nullptr) {
              (mul ? ops.mul_vv : ops.add_vv)(d, a.vec, b.vec, cols);
            } else {
              const double* v = a.vec != nullptr ? a.vec : b.vec;
              const double s = a.vec != nullptr ? b.scalar : a.scalar;
              (mul ? ops.mul_vs : ops.add_vs)(d, v, s, cols);
            }
            stack.push_back(Val{d, 0.0, dest});
            break;
          }
        }
      }
      HADAD_CHECK_MSG(stack.size() == 1 && stack.back().vec != nullptr,
                      "fused elementwise program left a non-vector result");
      const double* result = stack.back().vec;
      std::copy(result, result + cols, out.row(i));
    }
  });
  return out;
}

DenseMatrix GemmRowSums(const DenseMatrix& a, const DenseMatrix& b,
                        const RangeRunner& runner) {
  HADAD_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix out(a.rows(), 1);
  const int64_t m = b.cols();
  const SimdOps& ops = ActiveOps();
  RunRange(runner, a.rows(), [&](int64_t row_begin, int64_t row_end) {
    std::vector<double> buf(static_cast<size_t>(m));
    for (int64_t i = row_begin; i < row_end; ++i) {
      ProductRow(a, b, i, buf.data(), ops);
      double acc = 0.0;
      for (int64_t j = 0; j < m; ++j) acc += buf[static_cast<size_t>(j)];
      out.At(i, 0) = acc;
    }
  });
  return out;
}

DenseMatrix GemmColSums(const DenseMatrix& a, const DenseMatrix& b,
                        const RangeRunner& runner) {
  HADAD_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix out(1, b.cols());
  const int64_t n = a.rows();
  const int64_t k = a.cols();
  // Partition the OUTPUT COLUMNS: each chunk accumulates its columns over
  // every row in ascending order — the exact per-column association of
  // ColSums over the materialized product (partial sums per row chunk would
  // re-associate and break bit-identity).
  const SimdOps& ops = ActiveOps();
  RunRange(runner, b.cols(), [&](int64_t col_begin, int64_t col_end) {
    const int64_t width = col_end - col_begin;
    std::vector<double> buf(static_cast<size_t>(width));
    std::vector<double> acc(static_cast<size_t>(width), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      std::fill(buf.begin(), buf.end(), 0.0);
      const double* a_row = a.row(i);
      for (int64_t p = 0; p < k; ++p) {
        const double av = a_row[p];
        if (av == 0.0) continue;
        ops.axpy(buf.data(), b.row(p) + col_begin, av, width);
      }
      // acc[j] += buf[j]: per-column fold, independent across columns.
      ops.add_vv(acc.data(), acc.data(), buf.data(), width);
    }
    for (int64_t j = 0; j < width; ++j) {
      out.At(0, col_begin + j) = acc[static_cast<size_t>(j)];
    }
  });
  return out;
}

double GemmSum(const DenseMatrix& a, const DenseMatrix& b,
               const RangeRunner& runner) {
  HADAD_CHECK_EQ(a.cols(), b.rows());
  const int64_t n = a.rows();
  const int64_t m = b.cols();
  // Flat row-major accumulation into ONE accumulator (the association of
  // matrix::Sum over the materialized product) is inherently sequential, so
  // only the dot products parallelize: product rows are computed a block at
  // a time into a bounded buffer, then folded in order.
  const int64_t block = 8 * kRowGrain;
  DenseMatrix buf(std::min(block, std::max<int64_t>(n, 1)), m);
  const SimdOps& ops = ActiveOps();
  double acc = 0.0;
  for (int64_t i0 = 0; i0 < n; i0 += block) {
    const int64_t bn = std::min(block, n - i0);
    RunRange(runner, bn, [&](int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        ProductRow(a, b, i0 + r, buf.row(r), ops);
      }
    });
    for (int64_t r = 0; r < bn; ++r) {
      const double* row = buf.row(r);
      for (int64_t j = 0; j < m; ++j) acc += row[j];
    }
  }
  return acc;
}

double GemmMean(const DenseMatrix& a, const DenseMatrix& b,
                const RangeRunner& runner) {
  // matrix::Mean divides ONCE after the complete flat sum, so dividing
  // GemmSum by the product's cell count reproduces its bits exactly
  // (including the empty-product convention of 0.0).
  const int64_t cells = a.rows() * b.cols();
  if (cells == 0) return 0.0;
  return GemmSum(a, b, runner) / static_cast<double>(cells);
}

DenseMatrix GemmColMeans(const DenseMatrix& a, const DenseMatrix& b,
                         const RangeRunner& runner) {
  HADAD_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix out(1, b.cols());
  const int64_t n = a.rows();
  const int64_t k = a.cols();
  // GemmColSums with a per-column divide at store time. matrix::ColMeans
  // (ColStat -> SpanMean) sums each column over ascending rows and divides
  // the finished sum by n once — exactly this kernel's fold + final /n.
  const SimdOps& ops = ActiveOps();
  RunRange(runner, b.cols(), [&](int64_t col_begin, int64_t col_end) {
    const int64_t width = col_end - col_begin;
    std::vector<double> buf(static_cast<size_t>(width));
    std::vector<double> acc(static_cast<size_t>(width), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      std::fill(buf.begin(), buf.end(), 0.0);
      const double* a_row = a.row(i);
      for (int64_t p = 0; p < k; ++p) {
        const double av = a_row[p];
        if (av == 0.0) continue;
        ops.axpy(buf.data(), b.row(p) + col_begin, av, width);
      }
      ops.add_vv(acc.data(), acc.data(), buf.data(), width);
    }
    const double denom = static_cast<double>(n);
    for (int64_t j = 0; j < width; ++j) {
      out.At(0, col_begin + j) = acc[static_cast<size_t>(j)] / denom;
    }
  });
  return out;
}

}  // namespace hadad::matrix
