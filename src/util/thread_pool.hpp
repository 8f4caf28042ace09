// Fixed-size thread pool with a shared queue, plus a blocking parallel_for.
// The experiment harness parallelises across sweep points and seeds; the
// per-slot P2 solve itself stays single-threaded for reproducibility.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sora::util {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a task; it runs on some worker thread.
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished.
  void wait_idle();

  /// Process-wide shared pool (lazily created, SORA_THREADS env overrides
  /// the size).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [begin, end) across the shared pool in fixed
/// `grain`-sized chunks; blocks until done. Exceptions from body are
/// captured and the first one rethrown. A call from inside a pool task runs
/// inline instead of blocking a worker on its own pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

}  // namespace sora::util
