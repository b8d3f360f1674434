#include "util/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sfc::util {
namespace {

/// Obs instrumentation is active when any subsystem is runtime-enabled
/// (tracing wants task spans, metrics wants the latency histograms, the
/// flight recorder wants both feeding its rings).
bool obs_active() noexcept {
  return obs::tracing_enabled() || obs::metrics_enabled() ||
         obs::flight_enabled();
}

obs::Histogram& queue_wait_histogram() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("pool.queue_wait_ns");
  return h;
}

obs::Histogram& run_histogram() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("pool.run_ns");
  return h;
}

/// Identity of the executing thread within its owning pool, for the
/// per-worker busy metrics. Workers are created by exactly one pool and
/// never migrate, so plain thread_locals set once in worker_loop are
/// enough; the owning pool is recorded alongside so a worker helping a
/// different pool's join is not counted as that pool's worker. The index
/// is meaningful only while t_worker_pool is set.
thread_local unsigned t_worker_index = 0;
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

unsigned available_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = available_cpus();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const std::uint64_t enqueue_ns = obs_active() ? obs::now_ns() : 0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    tasks_.push(Task{std::move(task), enqueue_ns});
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mutex_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

bool ThreadPool::try_run_one() {
  Task task;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  run_task(std::move(task));
  return true;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::run_task(Task&& task) {
  if (task.enqueue_ns != 0) {
    const std::uint64_t start = obs::now_ns();
    {
      const obs::Span span("pool/task");
      task.fn();
    }
    const std::uint64_t run_ns = obs::now_ns() - start;
    if (obs::metrics_enabled()) {
      queue_wait_histogram().record(start - task.enqueue_ns);
      run_histogram().record(run_ns);
      // Per-worker utilization counters only for actual pool workers; a
      // helping coordinator has no worker slot to attribute to. The
      // instruments are resolved once per worker thread and cached.
      if (t_worker_pool == this) {
        thread_local obs::Counter* busy_ns = nullptr;
        thread_local obs::Counter* tasks_run = nullptr;
        if (busy_ns == nullptr) {
          const std::string worker =
              "pool.worker." + std::to_string(t_worker_index);
          busy_ns = &obs::Registry::instance().counter(worker + ".busy_ns");
          tasks_run = &obs::Registry::instance().counter(worker + ".tasks");
        }
        busy_ns->add(run_ns);
        tasks_run->add(1);
      }
    }
  } else {
    task.fn();
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (--in_flight_ == 0) cv_idle_.notify_all();
  }
}

void ThreadPool::worker_loop(unsigned index) {
  t_worker_index = index;
  t_worker_pool = this;
  obs::Tracer::instance().set_thread_name("pool-worker-" +
                                          std::to_string(index));
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    run_task(std::move(task));
  }
}

}  // namespace sfc::util
