#include "mapreduce/job_result.h"

namespace redoop {

std::vector<KeyValue> JobResult::MergedOutput() const {
  return MergeToKeyValues(partition_outputs);
}

std::vector<KeyValue> MergeToKeyValues(
    std::span<const std::shared_ptr<const FlatKvBuffer>> runs) {
  std::vector<KvRange> ranges;
  ranges.reserve(runs.size());
  for (const auto& run : runs) ranges.emplace_back(*run, 0, run->size());
  return MergeFlatRuns(ranges).ToKeyValues();
}

}  // namespace redoop
