#ifndef REDOOP_MAPREDUCE_REDUCER_H_
#define REDOOP_MAPREDUCE_REDUCER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mapreduce/kv.h"
#include "mapreduce/kv_arena.h"

namespace redoop {

/// Collects a reduce function's output pairs. Like MapContext, storage is
/// a flat arena; the std::string Emit signature is an adapter that copies
/// bytes once, so existing reducers compile and behave unchanged while the
/// engine keeps the output flat end-to-end (cache payloads, merges).
class ReduceContext {
 public:
  ReduceContext() = default;

  void Emit(std::string_view key, std::string_view value,
            int32_t logical_bytes) {
    buffer_.Append(key, value, logical_bytes);
  }
  void Emit(std::string_view key, std::string_view value) {
    buffer_.Append(key, value);
  }

  /// Materializes the collected pairs as strings, in emission order.
  /// Compatibility/testing surface — the engine consumes flat() instead.
  std::vector<KeyValue> output() const { return buffer_.ToKeyValues(); }
  std::vector<KeyValue> TakeOutput() {
    std::vector<KeyValue> out = buffer_.ToKeyValues();
    buffer_.Clear();
    return out;
  }

  const FlatKvBuffer& flat() const { return buffer_; }
  FlatKvBuffer TakeFlat() { return std::move(buffer_); }
  void Clear() { buffer_.Clear(); }

 private:
  FlatKvBuffer buffer_;
};

/// User reduce function: consumes one key group (all shuffled values for a
/// key, in deterministic sorted order) and emits zero or more output pairs.
/// The group is a KvRange view into the merged reduce input (or a
/// map-side combine group); it and its string_views are only valid for
/// the duration of the call. Implementations must be stateless.
///
/// ReduceFlat is the one function a reducer implements and the only one
/// the engine calls. Reduce is an adapter for callers that hold string
/// pairs: it copies the group into a flat buffer once and forwards.
class Reducer {
 public:
  virtual ~Reducer() = default;

  virtual void ReduceFlat(std::string_view key, const KvRange& values,
                          ReduceContext* context) const = 0;

  /// String adapter over ReduceFlat. Virtual only because recbench's
  /// TracedReducer overrides it and recbench's reference calls it; the
  /// recbench port to the flat API (ROADMAP item 3, step 1) deletes it.
  virtual void Reduce(const std::string& key,
                      std::span<const KeyValue> values,
                      ReduceContext* context) const {
    const FlatKvBuffer group = FlatKvBuffer::FromKeyValues(values);
    ReduceFlat(key, KvRange(group, 0, group.size()), context);
  }

  /// Unread by the engine, which always calls ReduceFlat. Kept only
  /// because recbench's TracedReducer overrides it; the recbench port
  /// (ROADMAP item 3, step 1) deletes it.
  virtual bool PrefersFlatInput() const { return true; }
};

/// Null reducer: consumes everything, emits nothing. Used by Redoop's
/// pane-caching pass, whose only purpose is materializing the shuffled,
/// sorted reducer inputs as caches — it never touches a single pair.
class NullReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    (void)key;
    (void)values;
    (void)context;
  }
};

/// Identity reducer: re-emits every value under its key.
class IdentityReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    for (size_t i = 0; i < values.size(); ++i) {
      context->Emit(key, values.value(i), values.logical_bytes(i));
    }
  }
};

/// Per-key composition `second ∘ first`: runs `first` on the key group,
/// then feeds its output through `second`. This is how a single-job
/// baseline expresses a Redoop query whose finalization differs from its
/// reduce body (reduce per pane, finalize per window == reduce then
/// finalize when the whole window is one group).
class ComposedReducer : public Reducer {
 public:
  ComposedReducer(std::shared_ptr<const Reducer> first,
                  std::shared_ptr<const Reducer> second)
      : first_(std::move(first)), second_(std::move(second)) {}

  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    ReduceContext intermediate;
    first_->ReduceFlat(key, values, &intermediate);
    const FlatKvBuffer& staged = intermediate.flat();
    if (staged.empty()) return;
    second_->ReduceFlat(key, KvRange(staged, 0, staged.size()), context);
  }

 private:
  std::shared_ptr<const Reducer> first_;
  std::shared_ptr<const Reducer> second_;
};

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_REDUCER_H_
