// Fixed-size thread pool with a shared queue, plus blocking parallel_for
// helpers and waitable task groups. The experiment harness parallelises
// across sweep points, and the blocked dense Cholesky spreads its large
// trailing updates here; the per-slot P2 solve itself stays single-threaded
// for reproducibility.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
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

  /// True when the calling thread is a pool worker executing a task. Nested
  /// fan-outs consult this and run inline instead of blocking a worker on
  /// its own pool (which could deadlock).
  static bool in_worker();

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

/// A waitable group of tasks on a pool: run() enqueues, wait() blocks until
/// every task run so far has finished and rethrows the first captured
/// exception. Unlike ThreadPool::wait_idle(), waiting is scoped to THIS
/// group, so independent groups can share one pool without waiting on each
/// other's work. Nested use (run() from inside a pool worker) executes the
/// task inline, so a task may itself own a TaskGroup. A group is reusable
/// after wait() returns. Not thread-safe for concurrent run()/wait() from
/// different client threads.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::shared()) : pool_(pool) {}
  ~TaskGroup() { wait_no_throw(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue `fn` (or run it inline on single-thread pools and when already
  /// inside a pool worker). Exceptions are captured for the next wait().
  void run(std::function<void()> fn);

  /// Block until every task run so far has finished; rethrow the first
  /// captured exception. The group is reusable afterwards.
  void wait();

 private:
  void wait_no_throw();

  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::size_t pending_ = 0;
  std::exception_ptr first_error_;
};

/// How parallel_for carves its range into tasks.
///
/// kStatic cuts the range into fixed `grain`-sized chunks up front — lowest
/// overhead, but with heterogeneous per-index costs the largest item lands in
/// some chunk whose unlucky worker serializes the tail while the rest of the
/// pool idles. kGuided hands out chunks on demand from a shared cursor,
/// starting large and shrinking toward `grain` as the range drains, so
/// expensive indices stop stalling the batch; the calling thread also
/// participates. Use kGuided when per-index work varies a lot (e.g. the rows
/// of a triangular trailing update, whose lengths grow with the index).
enum class ForSchedule { kStatic, kGuided };

/// Runs body(i) for i in [begin, end) across the shared pool; blocks until
/// done. Exceptions from body are captured and the first one rethrown.
/// grain controls how many consecutive indices each task takes (the minimum
/// chunk under kGuided).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1,
                  ForSchedule schedule = ForSchedule::kStatic);

}  // namespace sora::util
