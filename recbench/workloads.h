#ifndef RECBENCH_WORKLOADS_H_
#define RECBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/batch_feed.h"
#include "core/recurring_query.h"
#include "core/redoop_driver.h"
#include "dfs/record.h"

namespace recbench {

/// Paper geometry (§6): 30 slaves, 5-hour windows at overlap 0.9, 16
/// reducers, one input batch every 10 minutes.
inline constexpr int32_t kNodes = 30;
inline constexpr redoop::Timestamp kWin = 18000;
inline constexpr redoop::Timestamp kSlide = 1800;
inline constexpr redoop::Timestamp kBatchInterval = 600;
inline constexpr int32_t kReducers = 16;
/// Engine worker threads for every workload.
inline constexpr int32_t kEngineThreads = 2;

struct WorkloadSpec {
  std::string name;
  /// FFG two-source equi-join (kPanePairJoin) instead of WCC aggregation
  /// (kPerPaneMerge).
  bool join = false;
  /// Records per second per source.
  double rps = 0.0;
  int32_t record_bytes = 0;
  /// CacheOptions::budget_bytes; 0 = unbounded.
  int64_t budget_bytes = 0;
  /// Recurrences run before timing starts, as set-up: recurrence 0 maps
  /// every pane of the first window and fills the caches.
  int64_t cold_recurrences = 1;
  /// Timed recurrences per episode (a fresh cluster and driver).
  int64_t steady_recurrences = 0;

  int64_t total_recurrences() const {
    return cold_recurrences + steady_recurrences;
  }
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

redoop::RecurringQuery MakeQuery(const WorkloadSpec& spec);
redoop::RedoopDriverOptions MakeDriverOptions(const WorkloadSpec& spec);

/// Input data for recurrences [0, n) of one episode, pre-generated from the
/// seed: per source, the contiguous batches of [0, WindowEnd(n - 1)).
struct Inputs {
  std::map<redoop::SourceId, std::vector<redoop::RecordBatch>> batches;
  /// Host seconds spent inside SyntheticFeed::BatchesFor.
  double gen_s = 0.0;
};
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      int64_t recurrences);

/// Replays pre-generated batches to a driver, moving each batch out on its
/// one request, and counts the records it hands out. With the span
/// recorder enabled, every BatchesFor call is a feed span.
class ReplayFeed : public redoop::BatchFeed {
 public:
  explicit ReplayFeed(Inputs inputs) : inputs_(std::move(inputs)) {}

  std::vector<redoop::RecordBatch> BatchesFor(redoop::SourceId source,
                                              redoop::Timestamp begin,
                                              redoop::Timestamp end) override;
  bool HasSource(redoop::SourceId source) const override {
    return inputs_.batches.count(source) > 0;
  }

  /// Records handed out so far.
  int64_t records_served() const { return records_served_; }

 private:
  Inputs inputs_;
  int64_t records_served_ = 0;
};

}  // namespace recbench

#endif  // RECBENCH_WORKLOADS_H_
