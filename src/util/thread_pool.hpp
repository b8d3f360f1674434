// thread_pool.hpp — a small fixed-size worker pool with blocking fan-out
// helpers. The ACD engine's inner loops (one network-distance lookup per
// communication) are embarrassingly parallel over particles/cells, so the
// primitives we need are parallel_for over an index range, a deterministic
// parallel_reduce (integer sums commute, so the reduction is
// bit-reproducible regardless of scheduling), and a completion Latch for
// the sweep scheduler's task graph.
//
// One level of parallelism: the sweep engine runs whole pipeline stages
// as pool tasks, and a stage's kernels run on the thread that runs the
// stage; only coordinator-side callers (the direct path, AcdInstance,
// DynamicAcd) hand the pool to a kernel. Nested fan-out stays safe all
// the same: a join never sleeps when the calling thread may legally
// execute queued tasks — it pops and runs tasks (try_run_one) until its
// own chunks are done, so a fan-out from inside a task cannot strand its
// chunks behind other tasks with every worker blocked. Helping is
// restricted to workers of the *same* pool and to non-worker threads
// (the coordinator): a worker of a different pool keeps the blocking
// wait, so per-worker shard slots (RankPairShards) stay exclusive.
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
  /// deadlock-free nested fan-outs: a thread waiting on a Latch makes
  /// progress on whatever is queued instead of sleeping.
  bool try_run_one();

  /// Whether the calling thread is one of *this* pool's workers.
  bool current_thread_in_pool() const noexcept;

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

  /// Sentinel returned by current_worker_index() off-pool.
  static constexpr unsigned kNotAWorker = ~0u;

  /// Index of the calling thread within the pool that spawned it
  /// (0..size()-1), or kNotAWorker when the caller is not a pool worker
  /// (e.g. the coordinating thread). Fan-out kernels use this to keep
  /// per-worker shards without synchronization: each chunk writes only
  /// the shard of the worker executing it, and the coordinator gets a
  /// slot of its own (see RankPairShards).
  static unsigned current_worker_index() noexcept;

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
  /// while it has any (null pool = plain wait). The short timed sleep
  /// between polls covers the window where the queue is momentarily
  /// empty but running tasks are about to submit more — those submits
  /// carry no latch signal, so an untimed wait could stall.
  void wait_and_help(ThreadPool* pool) {
    if (pool == nullptr) {
      wait();
      return;
    }
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mutex_);
        if (remaining_ == 0) return;
      }
      if (pool->try_run_one()) continue;
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

/// Grain sentinel: derive the minimum chunk size from the range length
/// and worker count instead of hardcoding one at the call site.
inline constexpr std::size_t kAutoGrain = 0;

/// Auto-grain policy: aim for ~8 chunks per worker (load balance against
/// skewed per-index cost) but never below a floor that keeps the
/// submit/notify overhead amortized.
inline std::size_t resolve_grain(std::size_t grain, std::size_t n,
                                 std::size_t workers) noexcept {
  if (grain != kAutoGrain) return grain;
  constexpr std::size_t kGrainFloor = 256;
  const std::size_t target = n / (workers * 8 + 1);
  return target > kGrainFloor ? target : kGrainFloor;
}

/// Whether a join on `pool` may run queued tasks while waiting: yes for
/// the pool's own workers and for non-worker threads (each gets a
/// distinct shard slot in the fan-out kernels); no for workers of a
/// *different* pool, whose worker index could collide with this pool's.
inline bool can_help(const ThreadPool& pool) noexcept {
  return pool.current_thread_in_pool() ||
         ThreadPool::current_worker_index() == ThreadPool::kNotAWorker;
}

/// Split [begin, end) into roughly `pool.size() * 4` chunks (but at least
/// `grain` indices each; kAutoGrain picks a size) and run
/// `body(chunk_begin, chunk_end)` on the pool. Blocks until all chunks
/// are done (helping with queued work while it waits, so nested calls
/// from pool tasks are safe). Falls back to a direct call when the range
/// is small or the pool has a single worker.
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         std::size_t grain,
                         const std::function<void(std::size_t, std::size_t)>& body);

/// Deterministic sum-reduction over [begin, end): `body` returns the partial
/// value for a chunk; partials are accumulated with operator+= in chunk
/// order. T must be an additive monoid (we use integer/size pairs).
template <typename T, typename ChunkFn>
T parallel_reduce_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         std::size_t grain, T init, ChunkFn body) {
  const std::size_t n = end - begin;
  if (n == 0) return init;
  const std::size_t workers = pool.size();
  grain = resolve_grain(grain, n, workers);
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
  latch.wait_and_help(can_help(pool) ? &pool : nullptr);
  T acc = init;
  for (auto& p : partials) acc += p;
  return acc;
}

}  // namespace sfc::util
