#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace sora::util {
namespace {
// Set while executing a pool task; nested parallel_for runs inline instead
// of blocking a worker on the same pool (which could deadlock).
thread_local bool t_inside_worker = false;

struct PoolMetrics {
  obs::Counter* tasks;
  obs::Gauge* queue_depth;
  obs::Histogram* task_seconds;
};

const PoolMetrics& pool_metrics() {
  static const PoolMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    return PoolMetrics{
        &reg.counter("sora_threadpool_tasks_total",
                     "Tasks executed by the shared thread pool"),
        &reg.gauge("sora_threadpool_queue_depth",
                   "Tasks waiting in the pool queue"),
        &reg.histogram("sora_threadpool_task_seconds", "seconds",
                       "Wall-clock task execution time",
                       obs::exponential_buckets(1e-6, 4.0, 14)),
    };
  }();
  return metrics;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  SORA_CHECK(task != nullptr);
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SORA_CHECK_MSG(!stopping_, "submit after shutdown");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  if (obs::metrics_enabled())
    pool_metrics().queue_depth->set(static_cast<double>(depth));
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    std::size_t depth;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
      ++in_flight_;
    }
    const bool obs_on = obs::metrics_enabled();
    if (obs_on) pool_metrics().queue_depth->set(static_cast<double>(depth));
    t_inside_worker = true;
    {
      double task_seconds = 0.0;
      {
        ScopedTimer task_timer(obs_on ? &task_seconds : nullptr);
        task();
      }
      if (obs_on) {
        pool_metrics().tasks->inc();
        pool_metrics().task_seconds->observe(task_seconds);
      }
    }
    t_inside_worker = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("SORA_THREADS")) {
      const long n = std::atol(env);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{0};
  }());
  return pool;
}

// ---------------------------------------------------------------------------
// parallel_for

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(grain, 1);
  ThreadPool& pool = ThreadPool::shared();

  // Serial fast path: tiny ranges, single-thread pools, or nested
  // parallelism (see t_inside_worker) run inline.
  if (end - begin <= grain || pool.thread_count() == 1 || t_inside_worker) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  struct Shared {
    std::mutex mu;
    std::exception_ptr first_error;
    std::condition_variable done_cv;
    std::size_t pending = 0;
    // Set when a chunk throws: queued chunks that have not started yet
    // drain immediately instead of running the full batch before the
    // rethrow. Chunks already executing finish their current body.
    std::atomic<bool> cancelled{false};
  };
  auto shared = std::make_shared<Shared>();

  std::size_t chunks = 0;
  for (std::size_t lo = begin; lo < end; lo += grain) ++chunks;
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->pending = chunks;
  }

  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(end, lo + grain);
    pool.submit([shared, lo, hi, &body] {
      if (!shared->cancelled.load(std::memory_order_acquire)) {
        try {
          for (std::size_t i = lo; i < hi; ++i) {
            if (shared->cancelled.load(std::memory_order_relaxed)) break;
            body(i);
          }
        } catch (...) {
          shared->cancelled.store(true, std::memory_order_release);
          std::lock_guard<std::mutex> lock(shared->mu);
          if (!shared->first_error)
            shared->first_error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(shared->mu);
      if (--shared->pending == 0) shared->done_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->done_cv.wait(lock, [&] { return shared->pending == 0; });
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

}  // namespace sora::util
