#ifndef HADAD_TESTS_REFERENCE_EVALUATOR_H_
#define HADAD_TESTS_REFERENCE_EVALUATOR_H_

// The tests' oracle: a tree-walking evaluator, independent of the exec::
// DAG engine the library executes on. It evaluates an expression bottom-up
// in the exact syntactic order given — the paper's "as stated" semantics
// (§7.1): no reordering, no simplification, no CSE, no fusion, one
// engine::ApplyOp per operator node.

#include "common/status.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "la/expr.h"
#include "matrix/matrix.h"

namespace hadad::reference {

// Evaluates `expr` over `workspace` (a live Workspace, implicitly
// converted, or a pinned Snapshot). `stats`, when non-null, receives the
// wall-clock seconds, the operator count and the summed nnz of every
// intermediate (each internal node but the root); its DAG fields stay
// zero.
Result<matrix::Matrix> Evaluate(const la::Expr& expr,
                                engine::WorkspaceView workspace,
                                engine::ExecStats* stats = nullptr);

}  // namespace hadad::reference

#endif  // HADAD_TESTS_REFERENCE_EVALUATOR_H_
