#ifndef HADAD_EXEC_SCHEDULER_H_
#define HADAD_EXEC_SCHEDULER_H_

#include "common/status.h"
#include "engine/evaluator.h"
#include "engine/workspace.h"
#include "exec/cancel.h"
#include "exec/plan.h"
#include "exec/thread_pool.h"
#include "matrix/matrix.h"
#include "obs/trace.h"

namespace hadad::exec {

// Executes a CompiledPlan over a workspace. Inter-operator parallelism:
// every node carries a dependency count; when it drops to zero the node is
// ready. The calling thread runs one initially ready node, and a thread
// that finishes a node continues with one newly ready consumer; the other
// ready nodes are submitted to the pool, so independent subtrees run
// concurrently while chains (and one-node plans) pay no dispatch.
// Intra-operator parallelism: the blocked kernels split their row range via
// ThreadPool::ParallelFor. With a pool in inline mode (<= 1 thread) the DAG
// runs sequentially in topological order — same kernels, same results.
//
// An intermediate is freed as soon as its last consumer finished, so peak
// memory tracks the DAG frontier, not the whole plan.
class Scheduler {
 public:
  explicit Scheduler(ThreadPool* pool) : pool_(pool) {}

  // Runs `plan`; on success returns the root node's result. The first
  // kernel error aborts the run (queued nodes finish, new ones are not
  // scheduled) and is returned. When `stats` is set, fills the per-operator
  // breakdown (op_timings, node_timings, work/span, cse_hits, plan_nodes,
  // threads). When `trace` carries a recorder, one "kernel" span per
  // executed operator node is published under `trace->parent` — measured
  // in-line (start timestamp + thread captured per node task) but emitted
  // in one batch after the run, so tracing adds no lock traffic to the
  // execution critical path. `cancel`, when non-null, is consulted before
  // every node launch: a cancelled or past-deadline token aborts the run
  // through the same first-error machinery as a kernel failure — queued
  // nodes finish, new ones are not scheduled, and the typed
  // Cancelled/DeadlineExceeded status is returned once the pool drains.
  // `workspace` may be a live Workspace (implicitly converted; the caller
  // keeps it stable for the duration) or a pinned engine::Snapshot — the
  // MVCC read path, needing no lock at all.
  Result<matrix::Matrix> Run(const CompiledPlan& plan,
                             engine::WorkspaceView workspace,
                             engine::ExecStats* stats = nullptr,
                             const obs::TraceContext* trace = nullptr,
                             const CancelToken* cancel = nullptr) const;

 private:
  ThreadPool* pool_;
};

}  // namespace hadad::exec

#endif  // HADAD_EXEC_SCHEDULER_H_
