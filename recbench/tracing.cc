#include "tracing.h"

#include <map>

namespace recbench {

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool SpanRecorder::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

SpanRecorder::ThreadBuffer* SpanRecorder::LocalBuffer() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
  }
  return local;
}

void SpanRecorder::Record(SpanKind kind, int64_t begin_ns, int64_t end_ns,
                          int64_t items) {
  if (!enabled()) return;
  KindTotals& totals = LocalBuffer()->kinds[static_cast<int>(kind)];
  ++totals.calls;
  totals.items += items;
  totals.busy_ns += end_ns - begin_ns;
  totals.spans.push_back({begin_ns, end_ns});
}

std::vector<KindTotals> SpanRecorder::Drain() {
  std::vector<KindTotals> out(kSpanKinds);
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    for (int k = 0; k < kSpanKinds; ++k) {
      KindTotals& from = buffer->kinds[k];
      KindTotals& to = out[k];
      to.calls += from.calls;
      to.items += from.items;
      to.busy_ns += from.busy_ns;
      to.spans.insert(to.spans.end(), from.spans.begin(), from.spans.end());
      from.calls = from.items = from.busy_ns = 0;
      from.spans.clear();  // Keeps capacity for the next recurrence.
    }
  }
  return out;
}

void TracedMapper::Map(const redoop::Record& record,
                       redoop::MapContext* context) const {
  const int64_t begin = NowNs();
  inner_->Map(record, context);
  SpanRecorder::Get().Record(SpanKind::kMap, begin, NowNs(), 1);
}

void TracedReducer::Reduce(const std::string& key,
                           std::span<const redoop::KeyValue> values,
                           redoop::ReduceContext* context) const {
  const int64_t begin = NowNs();
  inner_->Reduce(key, values, context);
  SpanRecorder::Get().Record(SpanKind::kReduce, begin, NowNs(),
                             static_cast<int64_t>(values.size()));
}

void TracedReducer::ReduceFlat(std::string_view key,
                               const redoop::KvRange& values,
                               redoop::ReduceContext* context) const {
  const int64_t begin = NowNs();
  inner_->ReduceFlat(key, values, context);
  SpanRecorder::Get().Record(SpanKind::kReduce, begin, NowNs(),
                             static_cast<int64_t>(values.size()));
}

redoop::RecurringQuery TraceQuery(const redoop::RecurringQuery& query) {
  redoop::RecurringQuery traced = query;
  std::map<const void*, std::shared_ptr<const redoop::Mapper>> mappers;
  std::map<const void*, std::shared_ptr<const redoop::Reducer>> reducers;
  auto wrap_mapper = [&](std::shared_ptr<const redoop::Mapper>& m) {
    if (m == nullptr) return;
    auto& slot = mappers[m.get()];
    if (slot == nullptr) slot = std::make_shared<const TracedMapper>(m);
    m = slot;
  };
  auto wrap_reducer = [&](std::shared_ptr<const redoop::Reducer>& r) {
    if (r == nullptr) return;
    auto& slot = reducers[r.get()];
    if (slot == nullptr) slot = std::make_shared<const TracedReducer>(r);
    r = slot;
  };
  wrap_mapper(traced.config.mapper);
  for (auto& [source, mapper] : traced.source_mappers) wrap_mapper(mapper);
  wrap_reducer(traced.config.reducer);
  wrap_reducer(traced.config.combiner);
  wrap_reducer(traced.finalizer);
  return traced;
}

}  // namespace recbench
