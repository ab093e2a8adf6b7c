#ifndef RECBENCH_TRACING_H_
#define RECBENCH_TRACING_H_

// Outside-in tracing: spans recorded from the benchmark's own files around
// calls into the program's public interfaces (BatchFeed, Mapper, Reducer;
// the RunRecurrence parent span is taken by the caller). Nothing inside the
// program is instrumented.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/recurring_query.h"
#include "mapreduce/mapper.h"
#include "mapreduce/reducer.h"
#include "stats.h"

namespace recbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Child span kinds below a RunRecurrence span.
enum class SpanKind { kFeed = 0, kMap = 1, kReduce = 2 };
inline constexpr int kSpanKinds = 3;

/// Everything recorded for one kind since the last Drain.
struct KindTotals {
  int64_t calls = 0;
  int64_t items = 0;  // Reduce: values in the groups; feed: records served.
  int64_t busy_ns = 0;
  std::vector<Interval> spans;
};

/// Process-wide span sink with one buffer per recording thread, so engine
/// threads append without contention. Buffers are owned here (not by the
/// threads), because engine worker threads end with their driver while the
/// recorder outlives every episode.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  /// Recording is off by default; a disabled recorder costs one relaxed
  /// load per call.
  void SetEnabled(bool enabled);
  bool enabled() const;

  void Record(SpanKind kind, int64_t begin_ns, int64_t end_ns, int64_t items);

  /// Moves out and clears every thread's buffers. The caller guarantees no
  /// thread records concurrently (engine threads are idle between
  /// RunRecurrence calls; their task completion synchronises with the
  /// caller through the executor's mutex).
  std::vector<KindTotals> Drain();

 private:
  struct ThreadBuffer {
    KindTotals kinds[kSpanKinds];
  };
  ThreadBuffer* LocalBuffer();

  std::mutex mu_;  // Guards buffers_ (registration and Drain).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<bool> enabled_{false};
};

/// Times every Map call into SpanKind::kMap.
class TracedMapper : public redoop::Mapper {
 public:
  explicit TracedMapper(std::shared_ptr<const redoop::Mapper> inner)
      : inner_(std::move(inner)) {}
  void Map(const redoop::Record& record,
           redoop::MapContext* context) const override;

 private:
  std::shared_ptr<const redoop::Mapper> inner_;
};

/// Times every reduce-group call into SpanKind::kReduce. Forwards the
/// flat-input preference so the engine takes the same path it takes for
/// the undecorated reducer.
class TracedReducer : public redoop::Reducer {
 public:
  explicit TracedReducer(std::shared_ptr<const redoop::Reducer> inner)
      : inner_(std::move(inner)) {}
  void Reduce(const std::string& key,
              std::span<const redoop::KeyValue> values,
              redoop::ReduceContext* context) const override;
  bool PrefersFlatInput() const override { return inner_->PrefersFlatInput(); }
  void ReduceFlat(std::string_view key, const redoop::KvRange& values,
                  redoop::ReduceContext* context) const override;

 private:
  std::shared_ptr<const redoop::Reducer> inner_;
};

/// A copy of `query` whose mapper, per-source mappers, reducer, combiner
/// and finalizer (those that are set) are wrapped in the traced
/// decorators. One instance shared between roles stays shared. The
/// pipeline signature is left untouched.
redoop::RecurringQuery TraceQuery(const redoop::RecurringQuery& query);

}  // namespace recbench

#endif  // RECBENCH_TRACING_H_
