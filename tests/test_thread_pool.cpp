// util::ThreadPool under load: every submitted task runs exactly once,
// parallel_for covers its range and rethrows the first body exception, and
// destruction drains outstanding work instead of dropping it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace sora::util {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&hits, i] { hits[i].fetch_add(1); });
  pool.wait_idle();
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 50 * (round + 1));
  }
}

TEST(ThreadPool, SingleThreadedPoolPreservesSubmissionOrder) {
  // With one worker the shared queue is FIFO, so results arrive in
  // submission order — the ordering contract sweep harnesses rely on when
  // SORA_THREADS=1 is used to get deterministic logs.
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  std::vector<int> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1);
      });
    // No wait_idle(): the destructor must finish the backlog, not drop it.
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeWithGrains) {
  for (const std::size_t grain : {1u, 3u, 16u, 1000u}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(
        0, hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); },
        grain);
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  bool touched = false;
  parallel_for(5, 5, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  std::atomic<int> completed{0};
  try {
    parallel_for(0, 64, [&completed](std::size_t i) {
      if (i == 13) throw std::runtime_error("boom at 13");
      completed.fetch_add(1);
    });
    FAIL() << "expected the body exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 13");
  }
  // The pool survives the exception and keeps serving work.
  std::atomic<int> after{0};
  parallel_for(0, 8, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, ParallelForCancelsQueuedChunksAfterError) {
  // A poisoned batch must return promptly: once the first chunk throws,
  // queued chunks drain without running their bodies instead of executing
  // the full batch before the rethrow. Chunk 0 is dequeued first (FIFO), so
  // the error is captured while the bulk of the batch is still queued; only
  // the handful of chunks already in flight may still run.
  constexpr std::size_t kTotal = 2048;
  std::atomic<std::size_t> executed{0};
  try {
    parallel_for(
        0, kTotal,
        [&executed](std::size_t i) {
          if (i == 0) throw std::runtime_error("poisoned batch");
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          executed.fetch_add(1);
        },
        /*grain=*/1);
    FAIL() << "expected the poisoned chunk to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "poisoned batch");
  }
  EXPECT_LT(executed.load(), kTotal / 2)
      << "cancellation should skip most queued chunks";
  // The pool is healthy afterwards.
  std::atomic<std::size_t> after{0};
  parallel_for(0, 16, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 16u);
}

TEST(ThreadPool, ManyWaitersUnderLoad) {
  // Hammer submit/wait_idle from several client threads at once: no lost
  // wakeups, no task left behind.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&pool, &total] {
      for (int i = 0; i < 50; ++i) pool.submit([&total] { total.fetch_add(1); });
      pool.wait_idle();
    });
  for (auto& t : clients) t.join();
  pool.wait_idle();
  EXPECT_EQ(total.load(), 4 * 50);
}

}  // namespace
}  // namespace sora::util
