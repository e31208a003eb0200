#include "exec/executor.h"

namespace hadad::exec {

Executor::Executor(const engine::ExecOptions& options,
                   const morpheus::MorpheusEngine* normalized)
    : options_(options) {
  compile_options_.enable_cse = options.enable_cse;
  compile_options_.normalized = normalized;
  compile_options_.parallel_cell_threshold = options.parallel_cell_threshold;
  compile_options_.enable_fusion = options.enable_fusion;
  pool_ = std::make_unique<ThreadPool>(options.threads);
}

Result<CompiledPlan> Executor::Compile(
    const la::ExprPtr& expr, engine::WorkspaceView workspace,
    const cost::LeafMetaFn* leaf_meta,
    const std::set<std::string>* fusion_barriers) const {
  CompileOptions options = compile_options_;
  options.fusion_barriers = fusion_barriers;
  return exec::Compile(expr, workspace, leaf_meta, options);
}

Result<matrix::Matrix> Executor::Run(
    const la::ExprPtr& expr, engine::WorkspaceView workspace,
    engine::ExecStats* stats, const cost::LeafMetaFn* leaf_meta,
    const std::set<std::string>* fusion_barriers) const {
  HADAD_ASSIGN_OR_RETURN(
      CompiledPlan plan, Compile(expr, workspace, leaf_meta, fusion_barriers));
  return RunCompiled(plan, workspace, stats);
}

Result<matrix::Matrix> Executor::RunCompiled(
    const CompiledPlan& plan, engine::WorkspaceView workspace,
    engine::ExecStats* stats, const obs::TraceContext* trace,
    const CancelToken* cancel) const {
  Scheduler scheduler(pool_.get());
  return scheduler.Run(plan, workspace, stats, trace, cancel);
}

}  // namespace hadad::exec

namespace hadad::engine {

// Declared in engine/evaluator.h; lives here so engine/ carries no link-time
// dependency cycle — the exec subsystem implements the overload.
Result<matrix::Matrix> Execute(const la::Expr& expr,
                               WorkspaceView workspace,
                               const ExecOptions& options, ExecStats* stats) {
  // The Expr tree is immutable and outlives this call; alias it without
  // taking ownership so callers keep passing `const la::Expr&`.
  la::ExprPtr alias(&expr, [](const la::Expr*) {});
  exec::Executor executor(options);
  return executor.Run(alias, workspace, stats);
}

}  // namespace hadad::engine
