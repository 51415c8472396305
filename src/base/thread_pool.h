// A persistent pool of worker threads for blocking fork-join loops.
//
// The design-space odometer (see dtas/design_space.cpp) is the motivating
// user: it repeatedly fans a contiguous combination range out into shards,
// and spawning std::threads per odometer call would cost more than a small
// shard is worth. The pool keeps its workers parked on a condition
// variable between runs, so the steady-state cost of a fork-join is two
// lock acquisitions per task.
//
// run(n, fn) executes fn(i) for every i in [0, n) across the workers *and
// the calling thread*, returning only when every call has finished — a
// pool constructed with W workers therefore applies W+1 threads of
// compute. Tasks are claimed dynamically from a shared counter, so uneven
// shards self-level. All coordination is mutex/condition-variable based
// (no lock-free tricks), which keeps the pool trivially clean under
// ThreadSanitizer.
//
// run() must only be called from one thread at a time, with one
// exception: a task already executing on a pool may call run() on that
// same pool. Such a nested fork-join is detected (a thread-local tracks
// which pool the current thread is executing for) and executed inline on
// the calling thread — the batch still completes, there is just no extra
// parallelism to hand it, and crucially no deadlock: the outer generation
// keeps every worker busy, so queueing a nested generation could wait
// forever. This is what lets node-parallel design-space evaluation nest
// its per-node odometer sharding on the same pool, including under the
// server's queued (submit/drain) mode.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "base/annotations.h"

namespace bridge::base {

class ThreadPool {
 public:
  /// Spawns `workers` parked threads (0 is valid: run() then executes
  /// everything on the calling thread).
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Deleter of a leased pool: parks it on the process-wide idle list
  /// (or destroys it when the list is full) instead of joining threads.
  struct Recycle {
    void operator()(ThreadPool* pool) const;
  };
  using Lease = std::unique_ptr<ThreadPool, Recycle>;

  /// A pool of `workers` threads for one owner at a time: an idle pool of
  /// that size from the process-wide list, or a new one. Short-lived
  /// owners (one DesignSpace per synthesis) thereby reuse parked threads
  /// instead of spawning and joining them on every call. The one-caller
  /// rule of run() applies per lease; no two leases share a pool.
  static Lease lease(int workers);

  /// fn calls completed across every run() so far (all slots).
  long tasks_executed() const;
  /// Largest task count any single run() was asked for — the deepest the
  /// task queue has ever been, since run() enqueues its whole batch up
  /// front and blocks until it drains.
  int peak_queue_depth() const;
  /// Fork-join rounds executed (run() calls with at least one task).
  long runs() const;

  /// Run fn(task, slot) for every task in [0, num_tasks); blocks until all
  /// calls have returned. The caller participates as one of the compute
  /// threads. `slot` identifies the executing thread — 0 for the caller,
  /// 1..workers() for pool threads — so callers can keep one reusable
  /// scratch state per thread rather than per task. If any fn call throws,
  /// the remaining tasks still run to completion and the first exception
  /// is rethrown from run() once every task has finished — workers never
  /// outlive the fn object or the caller's captured state.
  ///
  /// Called from inside a task of this same pool, the batch executes
  /// inline on the calling thread (slot passed to fn stays the outer
  /// task's execution context, reported as 0): see the header comment. On
  /// the inline path an exception aborts the remaining tasks and
  /// propagates immediately — the caller is the only executor, so there
  /// is no batch to drain first.
  void run(int num_tasks, const std::function<void(int, int)>& fn);

  /// Convenience overload for callers that don't need the thread slot.
  void run(int num_tasks, const std::function<void(int)>& fn) {
    run(num_tasks, [&fn](int task, int) { fn(task); });
  }

  /// Queue one task for whichever worker frees up first; returns
  /// immediately. This is the server-scheduler mode: unlike run(), the
  /// caller does not participate, so `fn` executes on a worker slot in
  /// 1..workers() — a pool used this way needs workers() >= 1. Callers
  /// keeping per-slot state (one synthesis session per worker) index it
  /// by the slot argument. `fn` must not throw; anything it does throw
  /// is swallowed (submitted tasks have no join point to rethrow from).
  /// submit() and run() may not be used concurrently on one pool.
  void submit(std::function<void(int)> fn);

  /// Block until every submitted task has finished (queued and in
  /// flight). Safe to call with none outstanding.
  void drain();

 private:
  void worker_loop(int slot);

  /// Invoke fn, capturing the first exception instead of letting it
  /// escape (worker threads must never throw; the caller rethrows late).
  void invoke(const std::function<void(int, int)>& fn, int task, int slot);

  /// The pool (if any) the current thread is executing a task for — set
  /// around every fork-join invoke and submitted-task body, consulted by
  /// run() to detect same-pool nesting. Thread-local so concurrent tasks
  /// on different pools (a server worker driving a design-space pool)
  /// stay independent.
  static thread_local const ThreadPool* current_pool_;

  mutable Mutex mu_;
  CondVar work_cv_;  // workers wait for a new generation
  CondVar done_cv_;  // run() waits for completion
  // fn_ is only non-null while a run is in flight.
  const std::function<void(int, int)>* fn_ BRIDGE_GUARDED_BY(mu_) = nullptr;
  // First exception thrown by an fn call.
  std::exception_ptr error_ BRIDGE_GUARDED_BY(mu_);
  int num_tasks_ BRIDGE_GUARDED_BY(mu_) = 0;
  int next_task_ BRIDGE_GUARDED_BY(mu_) = 0;
  // Tasks not yet finished (claimed or unclaimed).
  int pending_ BRIDGE_GUARDED_BY(mu_) = 0;
  long generation_ BRIDGE_GUARDED_BY(mu_) = 0;
  bool stop_ BRIDGE_GUARDED_BY(mu_) = false;
  // Queued-task mode (submit/drain). Workers prefer the queue over a
  // fork-join generation and, on shutdown, finish every queued task
  // before exiting — a submitted task is never silently dropped.
  std::deque<std::function<void(int)>> submitted_ BRIDGE_GUARDED_BY(mu_);
  int submitted_in_flight_ BRIDGE_GUARDED_BY(mu_) = 0;
  // Introspection (mirrored into obs::Registry under
  // "base.thread_pool.*" so the metrics layer sees every pool at once).
  long tasks_executed_ BRIDGE_GUARDED_BY(mu_) = 0;
  int peak_queue_depth_ BRIDGE_GUARDED_BY(mu_) = 0;
  long runs_ BRIDGE_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> threads_;
};

}  // namespace bridge::base
