#include "base/thread_pool.h"

#include <algorithm>

#include "base/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bridge::base {

namespace {

/// Pool metrics, resolved once. Task latency is recorded per *task* (a
/// task is a whole odometer shard or comparable unit — coarse enough
/// that one clock pair per task is noise).
struct PoolMetrics {
  obs::Counter& tasks = obs::Registry::global().counter(
      "base.thread_pool.tasks_executed");
  obs::Counter& runs =
      obs::Registry::global().counter("base.thread_pool.runs");
  obs::Gauge& queue_depth =
      obs::Registry::global().gauge("base.thread_pool.queue_depth");
  obs::Histogram& task_latency_us = obs::Registry::global().histogram(
      "base.thread_pool.task_latency_us");

  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

}  // namespace

thread_local const ThreadPool* ThreadPool::current_pool_ = nullptr;

namespace {

/// Scoped set/restore of a thread-local pool marker. Restore (rather than
/// clear) keeps cross-pool nesting honest: a design-space pool task that
/// itself runs on a server pool thread must restore the server pool as
/// the thread's context, not null.
struct CurrentPoolScope {
  const ThreadPool*& slot;
  const ThreadPool* prev;
  CurrentPoolScope(const ThreadPool*& s, const ThreadPool* p)
      : slot(s), prev(s) {
    slot = p;
  }
  ~CurrentPoolScope() { slot = prev; }
};

}  // namespace

namespace {

/// Pools handed back by leases, waiting for the next lease of their size.
/// Leaked deliberately, like the template cache: a lease may be returned
/// during static destruction, and parked workers need no join at exit.
struct IdlePools {
  static constexpr std::size_t kMaxIdle = 8;
  Mutex mu;
  std::vector<ThreadPool*> pools BRIDGE_GUARDED_BY(mu);

  static IdlePools& get() {
    static IdlePools* idle = new IdlePools;
    return *idle;
  }
};

}  // namespace

ThreadPool::Lease ThreadPool::lease(int workers) {
  workers = std::max(workers, 0);
  IdlePools& idle = IdlePools::get();
  {
    LockGuard lock(idle.mu);
    for (auto it = idle.pools.begin(); it != idle.pools.end(); ++it) {
      if ((*it)->workers() == workers) {
        ThreadPool* pool = *it;
        idle.pools.erase(it);
        return Lease(pool);
      }
    }
  }
  return Lease(new ThreadPool(workers));
}

void ThreadPool::Recycle::operator()(ThreadPool* pool) const {
  IdlePools& idle = IdlePools::get();
  {
    LockGuard lock(idle.mu);
    if (idle.pools.size() < IdlePools::kMaxIdle) {
      idle.pools.push_back(pool);
      return;
    }
  }
  delete pool;
}

ThreadPool::ThreadPool(int workers) {
  if (workers < 0) workers = 0;
  threads_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    // Slot 0 is the caller inside run(); workers take 1..workers().
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

long ThreadPool::tasks_executed() const {
  LockGuard lock(mu_);
  return tasks_executed_;
}

int ThreadPool::peak_queue_depth() const {
  LockGuard lock(mu_);
  return peak_queue_depth_;
}

long ThreadPool::runs() const {
  LockGuard lock(mu_);
  return runs_;
}

void ThreadPool::invoke(const std::function<void(int, int)>& fn, int task,
                        int slot) {
  obs::Span span("pool.task", "base");
  const std::int64_t t0 = obs::Tracer::now_ns();
  CurrentPoolScope nested_guard(current_pool_, this);
  try {
    // Inside the try: an injected fault takes the exact path a throwing
    // task takes — captured below, batch drains, run() rethrows.
    FaultInjector::global().probe("base.thread_pool.task");
    fn(task, slot);
  } catch (...) {
    LockGuard lock(mu_);
    if (error_ == nullptr) error_ = std::current_exception();
  }
  PoolMetrics::get().task_latency_us.record(
      static_cast<double>(obs::Tracer::now_ns() - t0) / 1000.0);
}

void ThreadPool::run(int num_tasks, const std::function<void(int, int)>& fn) {
  if (num_tasks <= 0) return;
  PoolMetrics& metrics = PoolMetrics::get();
  if (current_pool_ == this) {
    // Nested fork-join from inside one of this pool's own tasks: every
    // other thread may be busy with (or waiting on) the outer generation,
    // so handing the batch to the shared counters could deadlock. Execute
    // inline instead — correctness is identical, the batch just runs at
    // this thread's parallelism. Slot 0 because the nested caller's own
    // per-slot scratch is the only one it may touch.
    for (int task = 0; task < num_tasks; ++task) fn(task, /*slot=*/0);
    {
      LockGuard lock(mu_);
      tasks_executed_ += num_tasks;
      ++runs_;
    }
    metrics.tasks.add(num_tasks);
    metrics.runs.add(1);
    return;
  }
  {
    LockGuard lock(mu_);
    fn_ = &fn;
    error_ = nullptr;
    num_tasks_ = num_tasks;
    next_task_ = 0;
    pending_ = num_tasks;
    ++generation_;
    ++runs_;
    peak_queue_depth_ = std::max(peak_queue_depth_, num_tasks);
  }
  metrics.runs.add(1);
  metrics.queue_depth.set(num_tasks);  // folds into the registry peak
  work_cv_.notify_all();
  // The caller is a compute thread too: claim tasks until none are left.
  for (;;) {
    int task;
    {
      LockGuard lock(mu_);
      if (next_task_ >= num_tasks_) break;
      task = next_task_++;
    }
    invoke(fn, task, /*slot=*/0);
    {
      LockGuard lock(mu_);
      --pending_;
    }
  }
  // Wait until every claimed task has finished (workers included) before
  // letting fn — and anything it captures — go out of scope.
  UniqueLock lock(mu_);
  while (pending_ != 0) done_cv_.wait(lock);
  fn_ = nullptr;
  tasks_executed_ += num_tasks_;
  metrics.tasks.add(num_tasks_);
  metrics.queue_depth.set(0);
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::submit(std::function<void(int)> fn) {
  {
    LockGuard lock(mu_);
    submitted_.push_back(std::move(fn));
    peak_queue_depth_ = std::max(
        peak_queue_depth_,
        static_cast<int>(submitted_.size()) + submitted_in_flight_);
  }
  work_cv_.notify_one();
}

void ThreadPool::drain() {
  UniqueLock lock(mu_);
  while (!submitted_.empty() || submitted_in_flight_ != 0) {
    done_cv_.wait(lock);
  }
}

void ThreadPool::worker_loop(int slot) {
  long seen = 0;
  UniqueLock lock(mu_);
  for (;;) {
    while (!(stop_ || !submitted_.empty() ||
             (generation_ != seen && next_task_ < num_tasks_))) {
      work_cv_.wait(lock);
    }
    if (!submitted_.empty()) {
      std::function<void(int)> task = std::move(submitted_.front());
      submitted_.pop_front();
      ++submitted_in_flight_;
      lock.unlock();
      {
        obs::Span span("pool.task", "base");
        const std::int64_t t0 = obs::Tracer::now_ns();
        CurrentPoolScope nested_guard(current_pool_, this);
        try {
          // No fault probe here: a fault that fired before task(slot)
          // would skip the task entirely, and submitted tasks have
          // waiters (a server reader blocked on its completion signal)
          // that a skipped task would strand. Submitted work carries its
          // own probe sites inside the task body ("server.request").
          task(slot);
        } catch (...) {
          // Submitted tasks have no join point to rethrow from; their
          // contract is to not throw, so a stray exception dies here
          // rather than poison an unrelated run().
        }
        PoolMetrics::get().task_latency_us.record(
            static_cast<double>(obs::Tracer::now_ns() - t0) / 1000.0);
      }
      lock.lock();
      ++tasks_executed_;
      PoolMetrics::get().tasks.add(1);
      --submitted_in_flight_;
      if (submitted_.empty() && submitted_in_flight_ == 0) {
        done_cv_.notify_all();
      }
      continue;
    }
    if (stop_) return;
    seen = generation_;
    while (next_task_ < num_tasks_) {
      const int task = next_task_++;
      const std::function<void(int, int)>* fn = fn_;
      lock.unlock();
      invoke(*fn, task, slot);
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace bridge::base
