#include "exec/task_executor.h"

#include <algorithm>

namespace redoop {
namespace exec {

int32_t TaskExecutor::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<int32_t>(1, static_cast<int32_t>(hw));
}

TaskExecutor::TaskExecutor(int32_t threads) {
  const size_t n = static_cast<size_t>(std::max<int32_t>(1, threads));
  deques_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskExecutor::~TaskExecutor() {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Satisfy any futures still queued (callers that never joined): run the
  // leftovers inline so no ticket is abandoned un-done.
  while (auto ticket = StealAny()) RunTicket(ticket.get());
}

void TaskExecutor::Post(std::shared_ptr<internal::Ticket> ticket) {
  const size_t target =
      next_deque_.fetch_add(1, std::memory_order_relaxed) % deques_.size();
  {
    std::lock_guard<std::mutex> lock(deques_[target]->mu);
    deques_[target]->items.push_back(std::move(ticket));
  }
  {
    // Publish under idle_mu_: a worker that just found `pending_ == 0`
    // holds idle_mu_ until its wait has started, so this raise lands
    // either before its predicate check or after it sleeps, and the
    // notify below cannot fall into the gap between the two.
    std::lock_guard<std::mutex> lock(idle_mu_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  idle_cv_.notify_one();
}

std::shared_ptr<internal::Ticket> TaskExecutor::PopOwn(size_t worker) {
  WorkerDeque& dq = *deques_[worker];
  std::lock_guard<std::mutex> lock(dq.mu);
  if (dq.items.empty()) return nullptr;
  auto ticket = std::move(dq.items.back());
  dq.items.pop_back();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return ticket;
}

std::shared_ptr<internal::Ticket> TaskExecutor::StealAny() {
  for (auto& dq_ptr : deques_) {
    WorkerDeque& dq = *dq_ptr;
    std::lock_guard<std::mutex> lock(dq.mu);
    if (dq.items.empty()) continue;
    auto ticket = std::move(dq.items.front());
    dq.items.pop_front();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return ticket;
  }
  return nullptr;
}

void TaskExecutor::RunTicket(internal::Ticket* ticket) {
  std::function<void()> body = std::move(ticket->body);
  ticket->body = nullptr;
  body();
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->done = true;
  }
  ticket->cv.notify_all();
}

void TaskExecutor::WorkerLoop(size_t index) {
  for (;;) {
    std::shared_ptr<internal::Ticket> ticket = PopOwn(index);
    if (ticket == nullptr) ticket = StealAny();
    if (ticket != nullptr) {
      RunTicket(ticket.get());
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void TaskExecutor::WaitHelping(internal::Ticket* ticket) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(ticket->mu);
      if (ticket->done) return;
    }
    auto other = StealAny();
    if (other == nullptr) break;  // `ticket` is running or done: safe to block.
    RunTicket(other.get());
  }
  std::unique_lock<std::mutex> lock(ticket->mu);
  ticket->cv.wait(lock, [ticket] { return ticket->done; });
}

}  // namespace exec
}  // namespace redoop
