#ifndef REDOOP_MAPREDUCE_KV_H_
#define REDOOP_MAPREDUCE_KV_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace redoop {

/// An intermediate or output key/value pair. `logical_bytes` is its size in
/// the simulated world (drives shuffle/sort/reduce costs).
struct KeyValue {
  std::string key;
  std::string value;
  int32_t logical_bytes = 0;

  KeyValue() = default;
  KeyValue(std::string k, std::string v, int32_t bytes)
      : key(std::move(k)), value(std::move(v)), logical_bytes(bytes) {}
  /// Convenience: sizes the pair from its string lengths plus framing.
  KeyValue(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)),
        logical_bytes(static_cast<int32_t>(key.size() + value.size() + 8)) {}

  friend bool operator==(const KeyValue& a, const KeyValue& b) {
    return a.key == b.key && a.value == b.value &&
           a.logical_bytes == b.logical_bytes;
  }
};

/// The deterministic (key, value) total order used everywhere after the
/// shuffle: map output sorts, cached runs, and the reduce-side merge all agree
/// on it, so results are byte-identical across schedules.
struct KeyValueLess {
  bool operator()(const KeyValue& a, const KeyValue& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.value < b.value;
  }
};

/// Total logical size of a span of pairs.
int64_t TotalLogicalBytes(std::span<const KeyValue> kvs);

/// Sorts by (key, value) — see KeyValueLess.
void SortByKey(std::vector<KeyValue>* kvs);

/// True when `kvs` is non-decreasing under KeyValueLess.
bool IsSortedByKey(std::span<const KeyValue> kvs);

/// K-way merge of sorted runs into one sorted vector (loser tree, one
/// comparison path of log2(k) per output element instead of the
/// O(N log N) comparison sort the concat+SortByKey path pays).
///
/// Each run must individually be sorted under KeyValueLess. Pairs that
/// compare equal are emitted in run order (earlier run first), then in
/// within-run order — i.e. the merge is stable with respect to the
/// concatenation order of `runs`, which keeps reduce groups deterministic.
std::vector<KeyValue> MergeSortedRuns(
    std::span<const std::span<const KeyValue>> runs);

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_KV_H_
