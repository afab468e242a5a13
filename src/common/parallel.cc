#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace randrecon {
namespace {

/// True while this thread is executing a pool task: a nested parallel
/// call from inside a task runs inline instead of re-entering the pool
/// (re-entering would self-deadlock on the single-job mutex).
thread_local bool t_inside_pool_task = false;

/// Persistent pool of workers executing indexed tasks. A parallel call
/// publishes one job (a function over task indices), wakes the workers,
/// takes part in the work itself, and waits for completion. Workers are
/// spawned lazily up to the largest count any call has asked for.
///
/// Tasks are coarse (one per contiguous chunk, at most a few dozen per
/// job), so indices are claimed under the mutex; the lock cost is
/// invisible next to the chunk work, and holding the claim and the
/// generation check together closes the stale-worker race: a worker that
/// wakes up late sees a generation mismatch and goes back to sleep
/// instead of touching a finished job's function object.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool();  // Leaked deliberately:
    return *pool;  // workers must never race static destruction order.
  }

  /// Runs task(t) for every t in [0, num_tasks), using up to
  /// `num_workers` threads (including the caller). Blocks until done.
  void Run(size_t num_tasks, size_t num_workers,
           const std::function<void(size_t)>& task) {
    if (num_tasks == 0) return;
    if (num_workers <= 1 || num_tasks == 1 || t_inside_pool_task) {
      for (size_t t = 0; t < num_tasks; ++t) task(t);
      return;
    }
    std::lock_guard<std::mutex> run_lock(run_mutex_);  // One job at a time.
    EnsureWorkers(num_workers - 1);
    uint64_t generation;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_ = &task;
      num_tasks_ = num_tasks;
      next_task_ = 0;
      pending_ = num_tasks;
      generation = ++generation_;
    }
    work_cv_.notify_all();
    RunTasks(generation);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] { return pending_ == 0; });
      task_ = nullptr;
    }
  }

 private:
  ThreadPool() = default;

  void EnsureWorkers(size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < count) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return generation_ != seen_generation; });
        seen_generation = generation_;
      }
      RunTasks(seen_generation);
    }
  }

  /// Claims and executes task indices of job `generation` until that job
  /// has none left (or has already been retired).
  void RunTasks(uint64_t generation) {
    for (;;) {
      const std::function<void(size_t)>* task;
      size_t t;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (generation_ != generation || task_ == nullptr) return;
        if (next_task_ >= num_tasks_) return;
        t = next_task_++;
        task = task_;
      }
      t_inside_pool_task = true;
      try {
        (*task)(t);
      } catch (...) {
        // A task that throws (e.g. bad_alloc in a kernel's pack buffer)
        // would otherwise leave pending_ stuck and task_ dangling for
        // concurrent workers. This library treats failures as fatal
        // (see common/check.h), so fail fast instead of unwinding.
        std::abort();
      }
      t_inside_pool_task = false;
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex run_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(size_t)>* task_ = nullptr;
  size_t num_tasks_ = 0;
  size_t next_task_ = 0;
  size_t pending_ = 0;
  uint64_t generation_ = 0;
};

size_t AutoThreadCount() {
  if (const char* env = std::getenv("RANDRECON_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace

size_t EffectiveThreadCount(const ParallelOptions& options, size_t items) {
  if (items <= 1) return 1;
  size_t threads = options.num_threads > 0
                       ? static_cast<size_t>(options.num_threads)
                       : AutoThreadCount();
  if (items < options.min_parallel_items) threads = 1;
  return threads < items ? (threads == 0 ? 1 : threads) : items;
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body,
                 const ParallelOptions& options) {
  RR_CHECK_LE(begin, end);
  const size_t items = end - begin;
  if (items == 0) return;
  const size_t threads = EffectiveThreadCount(options, items);
  if (threads == 1) {
    body(begin, end);
    return;
  }
  // Even contiguous partition: each chunk's work is self-contained and
  // writes to disjoint data, so any assignment of chunks to workers (and
  // any chunk count) produces identical results.
  const size_t base = items / threads;
  const size_t extra = items % threads;
  ThreadPool::Instance().Run(threads, threads, [&](size_t t) {
    const size_t chunk_begin = begin + t * base + (t < extra ? t : extra);
    const size_t chunk_size = base + (t < extra ? 1 : 0);
    if (chunk_size > 0) body(chunk_begin, chunk_begin + chunk_size);
  });
}

void ParallelForEach(size_t begin, size_t end,
                     const std::function<void(size_t)>& body,
                     const ParallelOptions& options) {
  RR_CHECK_LE(begin, end);
  const size_t items = end - begin;
  if (items == 0) return;
  const size_t threads = EffectiveThreadCount(options, items);
  ThreadPool::Instance().Run(items, threads,
                             [&](size_t t) { body(begin + t); });
}

}  // namespace randrecon
