// thread_pool.hpp — a small fixed-size worker pool with blocking joins.
// The primitives are submit/wait_idle, a completion Latch for the sweep
// scheduler's task graph, and a deterministic parallel_reduce (integer
// sums commute, so the reduction is bit-reproducible regardless of
// scheduling).
//
// One level of parallelism: the pool runs plan nodes (the sweep engine's
// pipeline stages) and the ANNS/clustering reductions, and nothing else;
// every NFI, FFI and dynamics kernel runs serially on the thread that
// calls it. A join never sleeps while the pool has queued work: it pops
// and runs tasks (try_run_one) until its own count is done, so a fan-out
// from inside a task cannot strand its chunks behind other tasks with
// every worker blocked.
//
// Observability: when obs tracing or metrics are runtime-enabled, every
// task is stamped at submit and the workers record queue-wait and run-time
// histograms (pool.queue_wait_ns / pool.run_ns), per-worker busy-time
// counters (pool.worker.N.busy_ns — utilization is busy/wall), and one
// trace span per executed task. When both are disabled the overhead is a
// single relaxed atomic load per submit and per task.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sfc::util {

/// CPUs this process may run on: the sched_getaffinity count where the
/// platform has one, else std::thread::hardware_concurrency(); at least 1.
unsigned available_cpus() noexcept;

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means available_cpus(). An explicit
  /// count is kept as given, even above the CPU count.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished.
  void wait_idle();

  /// Pop and run one queued task on the calling thread; false when the
  /// queue was empty. This is the work-helping primitive behind the
  /// deadlock-free joins: a thread waiting on a Latch makes progress on
  /// whatever is queued instead of sleeping.
  bool try_run_one();

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  /// A queued task plus its submit timestamp (0 when obs is disabled —
  /// the workers then skip all clock sampling).
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  void worker_loop(unsigned index);
  /// Execute one dequeued task (obs instrumentation included) and settle
  /// the in-flight accounting. Shared by worker_loop and try_run_one.
  void run_task(Task&& task);

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Single-use completion latch: count_down() from any thread, wait()
/// until the count reaches zero. wait_and_help() is the form every
/// pool-side join should use — instead of sleeping it drains queued
/// tasks from the pool, so a join executed *on* a pool worker (a nested
/// fan-out) can never deadlock the pool.
class Latch {
 public:
  explicit Latch(std::size_t count) : remaining_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void count_down(std::size_t n = 1) {
    std::lock_guard<std::mutex> lk(mutex_);
    remaining_ -= n;
    if (remaining_ == 0) cv_.notify_all();
  }

  bool done() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return remaining_ == 0;
  }

  void wait() {
    std::unique_lock<std::mutex> lk(mutex_);
    cv_.wait(lk, [this] { return remaining_ == 0; });
  }

  /// Wait for the count to reach zero, running queued tasks from `pool`
  /// while it has any. The short timed sleep between polls covers the
  /// window where the queue is momentarily empty but running tasks are
  /// about to submit more — those submits carry no latch signal, so an
  /// untimed wait could stall.
  void wait_and_help(ThreadPool& pool) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mutex_);
        if (remaining_ == 0) return;
      }
      if (pool.try_run_one()) continue;
      std::unique_lock<std::mutex> lk(mutex_);
      if (remaining_ == 0) return;
      cv_.wait_for(lk, std::chrono::microseconds(200));
    }
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t remaining_;
};

/// Deterministic sum-reduction over [begin, end): split the range into
/// roughly `pool.size() * 4` chunks of at least `grain` indices, run
/// `body(chunk_begin, chunk_end)` for each on the pool and accumulate the
/// partials with operator+= in chunk order. T must be an additive monoid
/// (we use integer/size pairs). Blocks until every chunk is done, helping
/// with queued work while it waits, so a call from a pool task is safe;
/// runs directly when the range is one chunk or the pool has one worker.
template <typename T, typename ChunkFn>
T parallel_reduce_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         std::size_t grain, T init, ChunkFn body) {
  const std::size_t n = end - begin;
  if (n == 0) return init;
  const std::size_t workers = pool.size();
  std::size_t chunks = workers == 0 ? 1 : workers * 4;
  std::size_t chunk_size = (n + chunks - 1) / chunks;
  if (chunk_size < grain) chunk_size = grain;
  chunks = (n + chunk_size - 1) / chunk_size;

  if (chunks <= 1 || workers <= 1) {
    T acc = init;
    acc += body(begin, end);
    return acc;
  }

  std::vector<T> partials(chunks, init);
  Latch latch(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = lo + chunk_size < end ? lo + chunk_size : end;
    pool.submit([&, c, lo, hi] {
      partials[c] = body(lo, hi);
      latch.count_down();
    });
  }
  latch.wait_and_help(pool);
  T acc = init;
  for (auto& p : partials) acc += p;
  return acc;
}

}  // namespace sfc::util
