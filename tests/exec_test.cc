#include "exec/task_executor.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace redoop {
namespace exec {
namespace {

TEST(TaskExecutorTest, SubmitReturnsResult) {
  TaskExecutor pool(2);
  auto future = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(future.Take(), 42);
}

TEST(TaskExecutorTest, ManyPayloadsAllComplete) {
  TaskExecutor pool(4);
  constexpr int kTasks = 500;
  std::vector<TaskFuture<int64_t>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([i] { return static_cast<int64_t>(i) * i; }));
  }
  int64_t sum = 0;
  for (auto& f : futures) sum += f.Take();
  int64_t expected = 0;
  for (int64_t i = 0; i < kTasks; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(TaskExecutorTest, MoveOnlyResultAndCapture) {
  TaskExecutor pool(2);
  auto input = std::make_unique<std::string>("payload");
  auto future = pool.Submit(
      [input = std::move(input)] { return std::make_unique<std::string>(*input + "-done"); });
  std::unique_ptr<std::string> out = future.Take();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, "payload-done");
}

TEST(TaskExecutorTest, HelpingWaitDrainsQueueWithSingleWorker) {
  // One worker, many queued payloads: Take() on the *last* submission must
  // not deadlock — the waiting thread steals and executes pending tickets.
  TaskExecutor pool(1);
  std::atomic<int> ran{0};
  std::vector<TaskFuture<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&ran, i] {
      ran.fetch_add(1);
      return i;
    }));
  }
  EXPECT_EQ(futures.back().Take(), 63);
  for (int i = 0; i < 63; ++i) EXPECT_EQ(futures[static_cast<size_t>(i)].Take(), i);
  EXPECT_EQ(ran.load(), 64);
}

TEST(TaskExecutorTest, DestructorCompletesUnjoinedPayloads) {
  std::atomic<int> ran{0};
  {
    TaskExecutor pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&ran] { return ran.fetch_add(1); });
    }
    // No Take()/Wait(): the destructor must still run every ticket.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(TaskExecutorTest, IdleWorkersWakeForEveryPost) {
  // Completion is polled through a counter, never a helping Wait, so only
  // the workers run payloads. Each round posts a few payloads just as the
  // workers go idle after the last round: a post whose wakeup is lost
  // leaves its payload queued with every worker asleep, and the round
  // never completes.
  TaskExecutor pool(2);
  std::atomic<int64_t> done{0};
  int64_t posted = 0;
  for (int round = 0; round < 4000; ++round) {
    for (int i = 0; i <= round % 3; ++i) {
      pool.Submit([&done] {
        return done.fetch_add(1, std::memory_order_acq_rel);
      });
      ++posted;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (done.load(std::memory_order_acquire) < posted) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "round " << round << ": " << posted - done.load()
          << " payload(s) never ran";
      std::this_thread::yield();
    }
  }
}

TEST(TaskExecutorTest, ThreadCountClampedToAtLeastOne) {
  TaskExecutor pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
  EXPECT_GE(TaskExecutor::DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace exec
}  // namespace redoop
