#include "engine/evaluator.h"

#include "matrix/decompositions.h"

namespace hadad::engine {

using la::Expr;
using la::OpKind;
using matrix::Matrix;

Result<Matrix> ApplyOp(const Expr& e, const std::vector<const Matrix*>& in,
                       const matrix::RangeRunner& runner) {
  switch (e.kind()) {
    case OpKind::kTranspose:
      return matrix::Transpose(*in[0]);
    case OpKind::kInverse:
      return matrix::Inverse(*in[0], runner);
    case OpKind::kDet: {
      HADAD_ASSIGN_OR_RETURN(double d, matrix::Determinant(*in[0]));
      return Matrix::Scalar(d);
    }
    case OpKind::kTrace: {
      HADAD_ASSIGN_OR_RETURN(double t, matrix::Trace(*in[0]));
      return Matrix::Scalar(t);
    }
    case OpKind::kDiag:
      return matrix::Diag(*in[0]);
    case OpKind::kExp:
      return matrix::MatrixExp(*in[0], runner);
    case OpKind::kAdjoint:
      return matrix::Adjugate(*in[0]);
    case OpKind::kRev:
      return matrix::Reverse(*in[0]);
    case OpKind::kSum:
      return Matrix::Scalar(matrix::Sum(*in[0]));
    case OpKind::kRowSums:
      return matrix::RowSums(*in[0]);
    case OpKind::kColSums:
      return matrix::ColSums(*in[0]);
    case OpKind::kMin:
      return Matrix::Scalar(matrix::Min(*in[0]));
    case OpKind::kMax:
      return Matrix::Scalar(matrix::Max(*in[0]));
    case OpKind::kMean:
      return Matrix::Scalar(matrix::Mean(*in[0]));
    case OpKind::kVar:
      return Matrix::Scalar(matrix::Var(*in[0]));
    case OpKind::kRowMins:
      return matrix::RowMins(*in[0]);
    case OpKind::kRowMaxs:
      return matrix::RowMaxs(*in[0]);
    case OpKind::kRowMeans:
      return matrix::RowMeans(*in[0]);
    case OpKind::kRowVars:
      return matrix::RowVars(*in[0]);
    case OpKind::kColMins:
      return matrix::ColMins(*in[0]);
    case OpKind::kColMaxs:
      return matrix::ColMaxs(*in[0]);
    case OpKind::kColMeans:
      return matrix::ColMeans(*in[0]);
    case OpKind::kColVars:
      return matrix::ColVars(*in[0]);
    case OpKind::kCholesky:
      return matrix::CholeskyDecompose(*in[0]);
    case OpKind::kQrQ: {
      HADAD_ASSIGN_OR_RETURN(matrix::QrResult qr,
                             matrix::QrDecompose(*in[0]));
      return qr.q;
    }
    case OpKind::kQrR: {
      HADAD_ASSIGN_OR_RETURN(matrix::QrResult qr,
                             matrix::QrDecompose(*in[0]));
      return qr.r;
    }
    case OpKind::kLuL: {
      HADAD_ASSIGN_OR_RETURN(matrix::LuResult lu, matrix::LuDecompose(*in[0]));
      return lu.l;
    }
    case OpKind::kLuU: {
      HADAD_ASSIGN_OR_RETURN(matrix::LuResult lu, matrix::LuDecompose(*in[0]));
      return lu.u;
    }
    case OpKind::kPluL: {
      HADAD_ASSIGN_OR_RETURN(matrix::PluResult plu,
                             matrix::PluDecompose(*in[0]));
      return plu.l;
    }
    case OpKind::kPluU: {
      HADAD_ASSIGN_OR_RETURN(matrix::PluResult plu,
                             matrix::PluDecompose(*in[0]));
      return plu.u;
    }
    case OpKind::kPluP: {
      HADAD_ASSIGN_OR_RETURN(matrix::PluResult plu,
                             matrix::PluDecompose(*in[0]));
      // Permutation matrix: row i of P M is row perm[i] of M.
      std::vector<matrix::Triplet> triplets;
      for (size_t i = 0; i < plu.perm.size(); ++i) {
        triplets.push_back({static_cast<int64_t>(i), plu.perm[i], 1.0});
      }
      return matrix::Matrix(matrix::SparseMatrix::FromTriplets(
          in[0]->rows(), in[0]->rows(), std::move(triplets)));
    }
    case OpKind::kMultiply:
      return matrix::Multiply(*in[0], *in[1]);
    case OpKind::kAdd:
      return matrix::Add(*in[0], *in[1]);
    case OpKind::kHadamard:
      return matrix::ElementwiseMultiply(*in[0], *in[1]);
    case OpKind::kDivide:
      return matrix::ElementwiseDivide(*in[0], *in[1]);
    case OpKind::kDirectSum:
      return matrix::DirectSum(*in[0], *in[1]);
    case OpKind::kKronecker:
      return matrix::KroneckerProduct(*in[0], *in[1]);
    case OpKind::kCbind:
      return matrix::Cbind(*in[0], *in[1]);
    case OpKind::kMatrixRef:
    case OpKind::kScalarConst:
      break;
  }
  return Status::Internal("unhandled operator in evaluator");
}

}  // namespace hadad::engine
