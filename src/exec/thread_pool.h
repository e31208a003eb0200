#ifndef HADAD_EXEC_THREAD_POOL_H_
#define HADAD_EXEC_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hadad::exec {

// Fixed-size worker pool shared by the DAG scheduler (inter-operator
// parallelism: independent plan nodes run on different workers) and the
// blocked kernels (intra-operator parallelism via ParallelFor).
//
// `threads` is the total degree of parallelism: the pool spawns that many
// workers; `threads <= 1` spawns none and every entry point runs inline on
// the caller, which keeps single-threaded execution allocation- and
// lock-free on the hot path and makes the 1-thread configuration byte-
// identical to sequential execution.
class ThreadPool {
 public:
  // `threads <= 0` resolves to std::thread::hardware_concurrency().
  // `always_spawn` forces spawning workers even at 1 thread, so Submit()
  // returns before the task runs — background services (the adaptive view
  // materializer) need a real worker where query execution wants the
  // inline fast path.
  explicit ThreadPool(int threads, bool always_spawn = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The resolved degree of parallelism (>= 1).
  int threads() const { return threads_; }
  // Number of spawned workers (threads(), or 0 in inline mode).
  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Enqueues `task` for a worker. In inline mode the task runs on the
  // calling thread before Submit returns.
  void Submit(std::function<void()> task) HADAD_EXCLUDES(mu_);

  // Runs body(begin, end) over a partition of [0, n) into contiguous chunks
  // of at most `grain` items, blocking until every chunk completed. The
  // caller participates (claims chunks itself), so ParallelFor may be called
  // from inside a pool task without deadlock. Chunk boundaries depend only
  // on `grain`, never on the worker count: any kernel whose per-item work is
  // deterministic produces bit-identical results at every thread count.
  void ParallelFor(int64_t n, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

 private:
  void WorkerLoop() HADAD_EXCLUDES(mu_);

  // Immutable after the constructor returns (workers only dequeue; they
  // never touch these), so reads need no capability.
  int threads_ = 1;
  std::vector<std::thread> workers_;

  common::Mutex mu_;
  common::CondVar cv_;
  std::deque<std::function<void()>> queue_ HADAD_GUARDED_BY(mu_);
  bool stop_ HADAD_GUARDED_BY(mu_) = false;
};

}  // namespace hadad::exec

#endif  // HADAD_EXEC_THREAD_POOL_H_
