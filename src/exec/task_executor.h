#ifndef REDOOP_EXEC_TASK_EXECUTOR_H_
#define REDOOP_EXEC_TASK_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace redoop {
namespace exec {

class TaskExecutor;

namespace internal {

/// Shared completion state of one submitted payload. The body runs exactly
/// once (on a worker, on a stealing waiter, or inline during drain); `done`
/// flips under `mu` and is the only cross-thread signal.
struct Ticket {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::function<void()> body;
};

}  // namespace internal

/// Handle to a payload's result. Take() blocks until the payload ran, but
/// the waiting thread *helps*: while the ticket is still queued it steals
/// and executes other pending payloads instead of sleeping, so a
/// single-producer caller never idles behind its own queue.
template <typename T>
class TaskFuture {
 public:
  TaskFuture() = default;

  bool valid() const { return ticket_ != nullptr; }

  /// Blocks (helping) until the payload completed, then moves the result
  /// out. Call at most once on a valid future.
  T Take();

  /// Blocks (helping) until the payload completed; result stays in place.
  void Wait();

 private:
  friend class TaskExecutor;
  TaskFuture(TaskExecutor* executor, std::shared_ptr<internal::Ticket> ticket,
             std::shared_ptr<std::optional<T>> box)
      : executor_(executor),
        ticket_(std::move(ticket)),
        box_(std::move(box)) {}

  TaskExecutor* executor_ = nullptr;
  std::shared_ptr<internal::Ticket> ticket_;
  std::shared_ptr<std::optional<T>> box_;
};

/// Work-stealing thread pool for the deterministic offload layer: payloads
/// are pure closures, so *which* thread runs one (and in what order) is
/// invisible to the simulation — results re-join the event loop at
/// deterministic points. One external producer (the simulator thread)
/// distributes payloads round-robin over per-worker deques; owners pop
/// LIFO for cache locality, thieves and helping waiters steal FIFO.
class TaskExecutor {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit TaskExecutor(int32_t threads);
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  int32_t thread_count() const { return static_cast<int32_t>(workers_.size()); }

  /// max(1, std::thread::hardware_concurrency()) — the `threads = 0` ("auto")
  /// resolution shared by the CLI, JobRunner and SyntheticFeed.
  static int32_t DefaultThreadCount();

  /// Submits a nullary payload; returns a future for its result. Safe from
  /// any thread, though the engine only submits from the simulator thread.
  template <typename F>
  auto Submit(F fn) -> TaskFuture<std::invoke_result_t<F&>> {
    using T = std::invoke_result_t<F&>;
    auto box = std::make_shared<std::optional<T>>();
    auto ticket = std::make_shared<internal::Ticket>();
    // The payload may hold move-only captures; park it behind a shared_ptr
    // so the copyable std::function wrapper can carry it.
    auto payload = std::make_shared<F>(std::move(fn));
    ticket->body = [payload, box] { box->emplace((*payload)()); };
    Post(ticket);
    return TaskFuture<T>(this, std::move(ticket), std::move(box));
  }

  /// Blocks until `ticket` completed, executing other pending payloads
  /// while it is still queued (used by TaskFuture; exposed for tests).
  void WaitHelping(internal::Ticket* ticket);

 private:
  struct WorkerDeque {
    std::mutex mu;
    std::deque<std::shared_ptr<internal::Ticket>> items;
  };

  void Post(std::shared_ptr<internal::Ticket> ticket);
  std::shared_ptr<internal::Ticket> PopOwn(size_t worker);
  /// Steals the oldest pending payload from any deque (nullptr if none).
  std::shared_ptr<internal::Ticket> StealAny();
  static void RunTicket(internal::Ticket* ticket);
  void WorkerLoop(size_t index);

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<int64_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_deque_{0};
  std::vector<std::thread> workers_;
};

template <typename T>
T TaskFuture<T>::Take() {
  Wait();
  T value = std::move(**box_);
  box_->reset();
  return value;
}

template <typename T>
void TaskFuture<T>::Wait() {
  if (ticket_ == nullptr) return;
  executor_->WaitHelping(ticket_.get());
}

}  // namespace exec
}  // namespace redoop

#endif  // REDOOP_EXEC_TASK_EXECUTOR_H_
