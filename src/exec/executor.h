#ifndef HADAD_EXEC_EXECUTOR_H_
#define HADAD_EXEC_EXECUTOR_H_

#include <memory>

#include "common/status.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "exec/cancel.h"
#include "exec/plan.h"
#include "exec/scheduler.h"
#include "exec/thread_pool.h"
#include "la/expr.h"
#include "matrix/matrix.h"
#include "morpheus/engine.h"

namespace hadad::exec {

// The parallel physical engine's front door: owns one ThreadPool across
// runs (spawning threads per query would dominate small pipelines) and
// compiles + schedules each expression. Thread-safe: concurrent Run()s
// share the pool.
//
//   exec::Executor executor(engine::ExecOptions{.threads = 8});
//   auto result = executor.Run(expr, workspace, &stats);
class Executor {
 public:
  // `normalized`, when non-null, is the registry of normalized matrices
  // every compile resolves names through (their uses lower to nm_*
  // kernels). Borrowed and immutable; it must outlive the executor.
  explicit Executor(const engine::ExecOptions& options = {},
                    const morpheus::MorpheusEngine* normalized = nullptr);

  // The resolved degree of parallelism (>= 1). Thread-safe (immutable).
  int threads() const { return pool_->threads(); }
  // The options this executor was built with. Thread-safe (immutable).
  const engine::ExecOptions& options() const { return options_; }

  // Compile (CSE + kernel selection + operator fusion) and execute over
  // `workspace`. `leaf_meta`, when non-null, answers leaf rows, cols and
  // nnz without rescanning the workspace (api::Session passes
  // pacb::Optimizer::LeafResolver() under its state lock; see
  // exec::Compile); it only needs to outlive this call. Thread-safe:
  // concurrent Run()s share the pool; the caller must ensure `workspace`
  // does not mutate mid-call.
  Result<matrix::Matrix> Run(
      const la::ExprPtr& expr, engine::WorkspaceView workspace,
      engine::ExecStats* stats = nullptr,
      const cost::LeafMetaFn* leaf_meta = nullptr) const;

  // The physical plan Run() would execute; exposed for tests, Explain, and
  // api::Session's per-plan DAG cache. Thread-safe when `leaf_meta` is
  // (otherwise a pure function of its arguments plus the frozen compile
  // options).
  Result<CompiledPlan> Compile(
      const la::ExprPtr& expr, engine::WorkspaceView workspace,
      const cost::LeafMetaFn* leaf_meta = nullptr) const;

  // Executes an already-compiled plan (api::PreparedQuery caches one per
  // plan so the hit path skips DAG recompilation). The plan must have been
  // compiled against a workspace whose referenced names still resolve.
  // `trace`, when non-null and enabled, receives one "kernel" span per
  // executed operator node, parented under trace->parent (see
  // Scheduler::Run). `cancel`, when non-null, is checked before every node
  // launch; a cancelled/past-deadline token aborts with the typed serving
  // error (see Scheduler::Run). Thread-safe under the same
  // workspace-stability contract as Run().
  Result<matrix::Matrix> RunCompiled(
      const CompiledPlan& plan, engine::WorkspaceView workspace,
      engine::ExecStats* stats = nullptr,
      const obs::TraceContext* trace = nullptr,
      const CancelToken* cancel = nullptr) const;

 private:
  engine::ExecOptions options_;
  CompileOptions compile_options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hadad::exec

#endif  // HADAD_EXEC_EXECUTOR_H_
