#include "reference_evaluator.h"

#include <utility>
#include <vector>

#include "common/timer.h"

namespace hadad::reference {

namespace {

using la::Expr;
using la::OpKind;
using matrix::Matrix;

class Evaluator {
 public:
  Evaluator(engine::WorkspaceView workspace, engine::ExecStats* stats)
      : workspace_(workspace), stats_(stats) {}

  Result<Matrix> Eval(const Expr& e, bool is_root) {
    switch (e.kind()) {
      case OpKind::kMatrixRef: {
        HADAD_ASSIGN_OR_RETURN(const Matrix* m, workspace_.Get(e.name()));
        return *m;
      }
      case OpKind::kScalarConst:
        return Matrix::Scalar(e.scalar_value());
      default:
        break;
    }
    std::vector<Matrix> kids;
    kids.reserve(e.children().size());
    for (const la::ExprPtr& c : e.children()) {
      HADAD_ASSIGN_OR_RETURN(Matrix m, Eval(*c, /*is_root=*/false));
      kids.push_back(std::move(m));
    }
    std::vector<const Matrix*> kid_ptrs;
    kid_ptrs.reserve(kids.size());
    for (const Matrix& m : kids) kid_ptrs.push_back(&m);
    HADAD_ASSIGN_OR_RETURN(Matrix out, engine::ApplyOp(e, kid_ptrs));
    if (stats_ != nullptr) {
      ++stats_->operators;
      if (!is_root) {
        stats_->intermediate_nnz += static_cast<double>(out.Nnz());
      }
    }
    return out;
  }

 private:
  engine::WorkspaceView workspace_;
  engine::ExecStats* stats_;
};

}  // namespace

Result<Matrix> Evaluate(const Expr& expr, engine::WorkspaceView workspace,
                        engine::ExecStats* stats) {
  Timer timer;
  Evaluator evaluator(workspace, stats);
  Result<Matrix> out = evaluator.Eval(expr, /*is_root=*/true);
  if (stats != nullptr) stats->seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace hadad::reference
