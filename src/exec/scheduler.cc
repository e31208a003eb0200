#include "exec/scheduler.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "matrix/blocked_kernels.h"
#include "matrix/simd.h"

namespace hadad::exec {

namespace {

using matrix::Matrix;

// Result slot of one plan node: either a borrowed pointer into the
// workspace (kLoad — no copy) or an owned intermediate.
struct Slot {
  const Matrix* view = nullptr;
  std::optional<Matrix> owned;

  const Matrix* get() const { return owned.has_value() ? &*owned : view; }
  void Set(Matrix m) {
    owned.emplace(std::move(m));
    view = nullptr;
  }
  void Release() {
    owned.reset();
    view = nullptr;
  }
};

// Adapts the shared pool to the matrix kernels' RangeRunner signature with
// a fixed grain, so chunking (and results) never depend on thread count.
matrix::RangeRunner PoolRunner(ThreadPool* pool) {
  if (pool == nullptr || pool->worker_count() == 0) return nullptr;
  return [pool](int64_t n, const std::function<void(int64_t, int64_t)>& body) {
    pool->ParallelFor(n, matrix::kRowGrain, body);
  };
}

// Per-run mutable state, shared by all node tasks.
struct RunState {
  const CompiledPlan* plan = nullptr;
  ThreadPool* pool = nullptr;
  bool collect_stats = false;
  // Non-null when tracing: node tasks additionally capture their start
  // timestamp (recorder time base) and executing thread, written to the
  // per-node vectors below — each node is written by exactly one task, so
  // no lock is needed until the post-run batch emission.
  obs::TraceRecorder* recorder = nullptr;
  // Non-null when the run is cancellable (server requests).
  const CancelToken* cancel = nullptr;

  std::vector<Slot> slots;
  std::vector<std::atomic<int>> pending;         // Unfinished inputs.
  std::vector<std::atomic<int>> consumers_left;  // For early release.
  std::vector<double> node_seconds;
  std::vector<double> node_nnz;
  std::vector<int64_t> node_start_us;
  std::vector<uint64_t> node_thread;

  std::atomic<bool> failed{false};
  common::Mutex error_mu;
  Status error HADAD_GUARDED_BY(error_mu);

  common::Mutex done_mu;
  common::CondVar done_cv;
  // Scheduled-but-unfinished node tasks.
  int64_t outstanding HADAD_GUARDED_BY(done_mu) = 0;

  explicit RunState(size_t n)
      : slots(n), pending(n), consumers_left(n), node_seconds(n, 0.0),
        node_nnz(n, 0.0), node_start_us(n, 0), node_thread(n, 0) {}

  void Fail(Status status) {
    bool expected = false;
    if (failed.compare_exchange_strong(expected, true)) {
      common::MutexLock lock(&error_mu);
      error = std::move(status);
    }
  }
};

// Evaluates a kFusedElementwise node. Fast path: every same-shape input is
// dense — the whole chain runs as one row-parallel pass with cache-hot
// scratch rows. Otherwise the program is interpreted one operator at a time
// over whole matrices with the exact matrix:: kernels the unfused plan
// would have used, so results (and errors) match the unfused plan
// bit-for-bit in every representation mix.
Result<Matrix> EvalFusedElementwise(const PlanNode& node,
                                    const la::ElemProgram& program,
                                    const matrix::FusedElementwiseProgram&
                                        kernel_program,
                                    const std::vector<const Matrix*>& in,
                                    ThreadPool* pool) {
  const int64_t rows = node.meta.shape.rows;
  const int64_t cols = node.meta.shape.cols;
  bool all_dense = true;
  std::vector<matrix::FusedInput> inputs(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const Matrix& m = *in[i];
    if (m.rows() == 1 && m.cols() == 1) {
      inputs[i].scalar = m.At(0, 0);  // Broadcast scalar (any rep).
    } else if (m.is_dense() && m.rows() == rows && m.cols() == cols) {
      inputs[i].dense = &m.dense();
    } else {
      all_dense = false;
      break;
    }
  }
  if (all_dense) {
    return Matrix(matrix::EvalFusedElementwise(kernel_program, inputs, rows,
                                               cols, PoolRunner(pool)));
  }

  // Matrix-level fallback: replay the original operators in program order.
  // Inputs are borrowed, never copied — only operator results are owned.
  using StackVal = std::variant<const Matrix*, Matrix>;
  const auto deref = [](const StackVal& v) -> const Matrix& {
    return std::holds_alternative<const Matrix*>(v)
               ? *std::get<const Matrix*>(v)
               : std::get<Matrix>(v);
  };
  std::vector<StackVal> stack;
  for (const la::ElemStep& step : program.steps) {
    switch (step.kind) {
      case la::ElemStep::Kind::kPushInput:
        stack.emplace_back(in[static_cast<size_t>(step.input)]);
        break;
      case la::ElemStep::Kind::kPushConst:
        stack.emplace_back(Matrix::Scalar(step.value));
        break;
      case la::ElemStep::Kind::kApply: {
        StackVal b = std::move(stack.back());
        stack.pop_back();
        StackVal a = std::move(stack.back());
        stack.pop_back();
        Result<Matrix> r =
            step.op == la::OpKind::kAdd ? matrix::Add(deref(a), deref(b))
            : step.op == la::OpKind::kHadamard
                ? matrix::ElementwiseMultiply(deref(a), deref(b))
                : matrix::Multiply(deref(a), deref(b));
        if (!r.ok()) return r.status();
        stack.emplace_back(std::move(r).value());
        break;
      }
    }
  }
  HADAD_CHECK_MSG(stack.size() == 1, "fused program left a non-unit stack");
  if (std::holds_alternative<Matrix>(stack.back())) {
    return std::move(std::get<Matrix>(stack.back()));
  }
  return *std::get<const Matrix*>(stack.back());  // Bare input: copy once.
}

// Evaluates an nm_* node: the normalized-matrix kernel of the node's kind
// (Morpheus's rewrite rules), on the pool's range runner. A node over t(M)
// runs the kernel on its transposed input and transposes the output.
Result<Matrix> EvalNormalized(const PlanNode& node,
                              const std::vector<const Matrix*>& in,
                              const matrix::RangeRunner& runner) {
  const morpheus::NormalizedMatrix& nm = *node.normalized;
  std::optional<Matrix> transposed_input;
  const Matrix* x = in.empty() ? nullptr : in[0];
  if (node.transposed && x != nullptr) {
    transposed_input = matrix::Transpose(*x);
    x = &*transposed_input;
  }
  Result<Matrix> out = Status::Internal("unreachable");
  switch (node.kernel) {
    case KernelKind::kNmColSums:
      out = nm.ColSums(runner);
      break;
    case KernelKind::kNmRowSums:
      out = nm.RowSums(runner);
      break;
    case KernelKind::kNmSum: {
      HADAD_ASSIGN_OR_RETURN(double sum, nm.Sum(runner));
      return Matrix::Scalar(sum);
    }
    case KernelKind::kNmRightMultiply:
      out = nm.RightMultiply(*x, runner);
      break;
    case KernelKind::kNmLeftMultiply:
      out = nm.LeftMultiply(*x, runner);
      break;
    default:
      out = nm.Materialize();
      break;
  }
  if (!out.ok() || !node.transposed) return out;
  return matrix::Transpose(*out);
}

Result<Matrix> EvalNode(RunState& state, int32_t id) {
  const PlanNode& node = state.plan->nodes[static_cast<size_t>(id)];
  std::vector<const Matrix*> in;
  in.reserve(node.inputs.size());
  for (int32_t input : node.inputs) {
    const Matrix* m = state.slots[static_cast<size_t>(input)].get();
    HADAD_CHECK_MSG(m != nullptr, "input slot released before use");
    in.push_back(m);
  }

  switch (node.kernel) {
    case KernelKind::kLoad: {
      // Resolved during setup; unreachable here.
      return Status::Internal("load node reached EvalNode");
    }
    case KernelKind::kScalarConst:
      return Matrix::Scalar(node.expr->scalar_value());
    case KernelKind::kGemmBlocked:
      if (in[0]->is_dense() && in[1]->is_dense()) {
        return Matrix(matrix::MultiplyDenseBlocked(in[0]->dense(),
                                                   in[1]->dense(),
                                                   PoolRunner(state.pool)));
      }
      break;  // Estimate was wrong about representation: generic fallback.
    case KernelKind::kSpmm:
      if (in[0]->is_sparse() && in[1]->is_dense()) {
        return Matrix(matrix::MultiplySparseDenseParallel(
            in[0]->sparse(), in[1]->dense(), PoolRunner(state.pool)));
      }
      break;
    case KernelKind::kSpGemm:
      if (in[0]->is_sparse() && in[1]->is_sparse()) {
        return Matrix(matrix::MultiplySparseSparseParallel(
            in[0]->sparse(), in[1]->sparse(), PoolRunner(state.pool)));
      }
      break;
    case KernelKind::kGemmFusedTranspose:
      if (in[0]->is_dense() && in[1]->is_dense()) {
        return Matrix(matrix::MultiplyTransposedDenseBlocked(
            in[0]->dense(), in[1]->dense(), PoolRunner(state.pool)));
      }
      // Fallback must reproduce t(A) %*% B, not A %*% B.
      {
        const Matrix t = matrix::Transpose(*in[0]);
        return matrix::Multiply(t, *in[1]);
      }
    case KernelKind::kFusedElementwise:
      return EvalFusedElementwise(
          node, state.plan->programs[static_cast<size_t>(node.program)],
          state.plan->kernel_programs[static_cast<size_t>(node.program)], in,
          state.pool);
    case KernelKind::kGemmSumReduce:
    case KernelKind::kGemmRowSumsReduce:
    case KernelKind::kGemmColSumsReduce:
    case KernelKind::kGemmMeanReduce:
    case KernelKind::kGemmColMeansReduce: {
      if (in[0]->is_dense() && in[1]->is_dense()) {
        const matrix::DenseMatrix& a = in[0]->dense();
        const matrix::DenseMatrix& b = in[1]->dense();
        matrix::RangeRunner runner = PoolRunner(state.pool);
        switch (node.kernel) {
          case KernelKind::kGemmSumReduce:
            return Matrix::Scalar(matrix::GemmSum(a, b, runner));
          case KernelKind::kGemmRowSumsReduce:
            return Matrix(matrix::GemmRowSums(a, b, runner));
          case KernelKind::kGemmColSumsReduce:
            return Matrix(matrix::GemmColSums(a, b, runner));
          case KernelKind::kGemmMeanReduce:
            return Matrix::Scalar(matrix::GemmMean(a, b, runner));
          default:
            return Matrix(matrix::GemmColMeans(a, b, runner));
        }
      }
      // Representation estimate was wrong: reproduce the unfused pipeline
      // exactly — materialize the product with the kernel the unfused plan
      // would have fallen back to, then aggregate.
      HADAD_ASSIGN_OR_RETURN(Matrix product,
                             matrix::Multiply(*in[0], *in[1]));
      switch (node.kernel) {
        case KernelKind::kGemmSumReduce:
          return Matrix::Scalar(matrix::Sum(product));
        case KernelKind::kGemmRowSumsReduce:
          return matrix::RowSums(product);
        case KernelKind::kGemmColSumsReduce:
          return matrix::ColSums(product);
        case KernelKind::kGemmMeanReduce:
          return Matrix::Scalar(matrix::Mean(product));
        default:
          return matrix::ColMeans(product);
      }
    }
    case KernelKind::kNmColSums:
    case KernelKind::kNmRowSums:
    case KernelKind::kNmSum:
    case KernelKind::kNmRightMultiply:
    case KernelKind::kNmLeftMultiply:
    case KernelKind::kNmMaterialize:
      return EvalNormalized(node, in, PoolRunner(state.pool));
    case KernelKind::kGeneric:
      break;
  }
  return engine::ApplyOp(*node.expr, in, PoolRunner(state.pool));
}

// Runs node `id`'s kernel, stores its result, releases exhausted inputs,
// and returns the consumers that became ready.
std::vector<int32_t> CompleteNode(RunState& state, int32_t id) {
  const PlanNode& node = state.plan->nodes[static_cast<size_t>(id)];
  // Cooperative cancellation point: a timed-out or client-cancelled run
  // stops here, before the kernel launches — the in-flight kernels on
  // other workers finish (they are not interruptible) and the dependency
  // counters below still drain, so the pool is never wedged.
  if (state.cancel != nullptr &&
      !state.failed.load(std::memory_order_acquire)) {
    Status proceed = state.cancel->CheckProceed();
    if (!proceed.ok()) state.Fail(std::move(proceed));
  }
  if (!state.failed.load(std::memory_order_acquire)) {
    if (state.recorder != nullptr) {
      state.node_start_us[static_cast<size_t>(id)] =
          state.recorder->NowMicros();
      state.node_thread[static_cast<size_t>(id)] =
          std::hash<std::thread::id>{}(std::this_thread::get_id());
    }
    Timer timer;
    Result<Matrix> out = EvalNode(state, id);
    if (out.ok()) {
      state.node_seconds[static_cast<size_t>(id)] = timer.ElapsedSeconds();
      if (state.collect_stats && id != state.plan->root &&
          node.kernel != KernelKind::kLoad) {
        state.node_nnz[static_cast<size_t>(id)] =
            static_cast<double>(out.value().Nnz());
      }
      state.slots[static_cast<size_t>(id)].Set(std::move(out).value());
    } else {
      state.Fail(out.status());
    }
  }

  // Release inputs whose consumers have all finished (even on failure, so
  // memory drains); never release the root.
  for (int32_t input : node.inputs) {
    if (state.consumers_left[static_cast<size_t>(input)].fetch_sub(
            1, std::memory_order_acq_rel) == 1 &&
        input != state.plan->root) {
      state.slots[static_cast<size_t>(input)].Release();
    }
  }

  std::vector<int32_t> ready;
  if (!state.failed.load(std::memory_order_acquire)) {
    for (int32_t consumer : node.consumers) {
      if (state.pending[static_cast<size_t>(consumer)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        ready.push_back(consumer);
      }
    }
  }
  return ready;
}

void ScheduleNode(RunState& state, int32_t id);

// Runs node `id`, then continues on this thread with the first consumer
// that became ready (the others go to the pool): a chain pays no dispatch
// per link, and its intermediates stay in this thread's allocator arena.
void NodeTask(RunState& state, int32_t id) {
  for (;;) {
    std::vector<int32_t> ready = CompleteNode(state, id);
    {
      common::MutexLock lock(&state.done_mu);
      state.outstanding += static_cast<int64_t>(ready.size()) - 1;
      if (state.outstanding == 0) state.done_cv.notify_all();
    }
    if (ready.empty()) return;
    for (size_t i = 1; i < ready.size(); ++i) ScheduleNode(state, ready[i]);
    id = ready[0];
  }
}

void ScheduleNode(RunState& state, int32_t id) {
  state.pool->Submit([&state, id] { NodeTask(state, id); });
}

void FillStats(const RunState& state, const CompiledPlan& plan,
               engine::ExecStats* stats) {
  stats->cse_hits = plan.cse_hits;
  stats->plan_nodes = static_cast<int64_t>(plan.nodes.size());
  stats->fused_nodes = plan.fused_nodes;
  stats->fused_ops_eliminated = plan.fused_ops_eliminated;
  stats->node_timings.resize(plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    stats->node_timings[i].seconds = state.node_seconds[i];
    stats->node_timings[i].nnz = state.node_nnz[i];
  }
  std::map<std::string, engine::OpTiming> by_op;
  std::vector<double> span(plan.nodes.size(), 0.0);
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    const double secs = state.node_seconds[i];
    double input_span = 0.0;
    for (int32_t in : node.inputs) {
      input_span = std::max(input_span, span[static_cast<size_t>(in)]);
    }
    span[i] = input_span + secs;
    if (node.kernel == KernelKind::kLoad ||
        node.kernel == KernelKind::kScalarConst) {
      continue;
    }
    ++stats->operators;
    stats->intermediate_nnz += state.node_nnz[i];
    stats->total_operator_seconds += secs;
    engine::OpTiming& t = by_op[la::OpName(node.op)];
    t.op = la::OpName(node.op);
    ++t.count;
    t.seconds += secs;
  }
  stats->critical_path_seconds =
      plan.root >= 0 ? span[static_cast<size_t>(plan.root)] : 0.0;
  stats->op_timings.reserve(by_op.size());
  for (auto& [name, timing] : by_op) stats->op_timings.push_back(timing);
  std::sort(stats->op_timings.begin(), stats->op_timings.end(),
            [](const engine::OpTiming& a, const engine::OpTiming& b) {
              return a.seconds > b.seconds;
            });
}

// Publishes one "kernel" span per executed operator node, batched after
// the run from the timings the node tasks captured in-line. Loads are
// skipped (borrowed views, no kernel ran).
void EmitKernelSpans(const RunState& state, const CompiledPlan& plan,
                     const obs::TraceContext& trace) {
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    if (node.kernel == KernelKind::kLoad) continue;
    if (state.node_thread[i] == 0) continue;  // Never ran (aborted run).
    std::vector<std::pair<std::string, std::string>> attrs;
    attrs.reserve(6);
    attrs.emplace_back("node", "#" + std::to_string(i));
    attrs.emplace_back("op", la::OpName(node.op));
    attrs.emplace_back("tier", matrix::TierName(matrix::ActiveTier()));
    attrs.emplace_back("rows", std::to_string(node.meta.shape.rows));
    attrs.emplace_back("cols", std::to_string(node.meta.shape.cols));
    attrs.emplace_back(
        "nnz", std::to_string(static_cast<int64_t>(state.node_nnz[i])));
    trace.recorder->AddCompleteSpan(
        KernelName(node.kernel), "kernel", trace.parent, state.node_start_us[i],
        static_cast<int64_t>(state.node_seconds[i] * 1e6),
        state.node_thread[i], std::move(attrs));
  }
}

}  // namespace

Result<Matrix> Scheduler::Run(const CompiledPlan& plan,
                              engine::WorkspaceView workspace,
                              engine::ExecStats* stats,
                              const obs::TraceContext* trace,
                              const CancelToken* cancel) const {
  Timer timer;
  if (plan.root < 0 || plan.nodes.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  // A request that spent its whole deadline queued fails before any node
  // is scheduled.
  if (cancel != nullptr) HADAD_RETURN_IF_ERROR(cancel->CheckProceed());
  const bool tracing = trace != nullptr && trace->recorder != nullptr &&
                       trace->recorder->enabled();
  RunState state(plan.nodes.size());
  state.plan = &plan;
  state.pool = pool_;
  state.collect_stats = stats != nullptr || tracing;
  state.recorder = tracing ? trace->recorder : nullptr;
  state.cancel = cancel;

  // Resolve loads up front (borrowed views, no copy) and wire counters.
  std::vector<int32_t> initial_ready;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    state.pending[i].store(static_cast<int>(node.inputs.size()),
                           std::memory_order_relaxed);
    state.consumers_left[i].store(static_cast<int>(node.consumers.size()),
                                  std::memory_order_relaxed);
    if (node.kernel == KernelKind::kLoad) {
      HADAD_ASSIGN_OR_RETURN(const Matrix* m,
                             workspace.Get(node.expr->name()));
      state.slots[i].view = m;
    }
  }
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    if (node.kernel == KernelKind::kLoad) {
      // Already resolved: only propagate readiness to consumers.
      for (int32_t consumer : node.consumers) {
        if (state.pending[static_cast<size_t>(consumer)].fetch_sub(
                1, std::memory_order_relaxed) == 1) {
          initial_ready.push_back(consumer);
        }
      }
    } else if (node.inputs.empty()) {
      initial_ready.push_back(static_cast<int32_t>(i));
    }
  }

  const bool parallel = pool_ != nullptr && pool_->worker_count() > 0;
  if (!parallel) {
    // Sequential: nodes are already in topological order.
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
      if (plan.nodes[i].kernel == KernelKind::kLoad) continue;
      CompleteNode(state, static_cast<int32_t>(i));
      if (state.failed.load(std::memory_order_relaxed)) break;
    }
  } else {
    {
      common::MutexLock lock(&state.done_mu);
      state.outstanding = static_cast<int64_t>(initial_ready.size());
    }
    // A plan whose root is a bare load has no tasks at all. Otherwise the
    // caller runs one ready node (and its chain) itself instead of only
    // waiting: a one-node plan pays no dispatch at all.
    if (!initial_ready.empty()) {
      for (size_t i = 1; i < initial_ready.size(); ++i) {
        ScheduleNode(state, initial_ready[i]);
      }
      NodeTask(state, initial_ready[0]);
      common::MutexLock lock(&state.done_mu);
      while (state.outstanding != 0) state.done_cv.wait(lock);
    }
  }

  if (state.failed.load(std::memory_order_acquire)) {
    common::MutexLock lock(&state.error_mu);
    return state.error;
  }
  Slot& root_slot = state.slots[static_cast<size_t>(plan.root)];
  HADAD_CHECK_MSG(root_slot.get() != nullptr,
                  "scheduler finished without a root result");
  // Move an owned root out; a bare-load root copies the workspace matrix.
  Matrix result = root_slot.owned.has_value() ? std::move(*root_slot.owned)
                                              : *root_slot.view;
  if (stats != nullptr) {
    stats->threads = pool_ == nullptr ? 1 : pool_->threads();
    stats->kernel_tier = matrix::TierName(matrix::ActiveTier());
    FillStats(state, plan, stats);
    stats->seconds = timer.ElapsedSeconds();
  }
  if (tracing) EmitKernelSpans(state, plan, *trace);
  return result;
}

}  // namespace hadad::exec
