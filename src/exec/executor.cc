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
    const cost::LeafMetaFn* leaf_meta) const {
  return exec::Compile(expr, workspace, leaf_meta, compile_options_);
}

Result<matrix::Matrix> Executor::Run(const la::ExprPtr& expr,
                                     engine::WorkspaceView workspace,
                                     engine::ExecStats* stats,
                                     const cost::LeafMetaFn* leaf_meta) const {
  HADAD_ASSIGN_OR_RETURN(CompiledPlan plan,
                         Compile(expr, workspace, leaf_meta));
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
