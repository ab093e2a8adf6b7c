#ifndef REDOOP_BASELINE_HADOOP_DRIVER_H_
#define REDOOP_BASELINE_HADOOP_DRIVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/batch_feed.h"
#include "core/metrics.h"
#include "core/recurring_query.h"
#include "core/window.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/scheduler.h"
#include "obs/observability.h"

namespace redoop {

/// The plain-Hadoop baseline ("traditional driver approach", paper §6.1):
/// each recurrence re-submits a full MapReduce job over every batch file
/// overlapping the window — re-loading, re-shuffling, and re-reducing the
/// overlapping data with no caching, no pane awareness, and no adaptivity.
class HadoopRecurringDriver {
 public:
  /// `cluster` and `feed` must outlive the driver. `runner_options`
  /// controls the engine (retries, stragglers, speculation).
  HadoopRecurringDriver(Cluster* cluster, BatchFeed* feed,
                        RecurringQuery query,
                        JobRunnerOptions runner_options = {});

  HadoopRecurringDriver(const HadoopRecurringDriver&) = delete;
  HadoopRecurringDriver& operator=(const HadoopRecurringDriver&) = delete;

  /// Executes recurrence `i` (must be called with consecutive i starting
  /// at 0): ingests the data up to the window end, waits (in simulated
  /// time) for the trigger, runs the window job, and reports.
  WindowReport RunRecurrence(int64_t recurrence);

  /// Convenience: runs recurrences [0, n).
  RunReport Run(int64_t n);

  const WindowGeometry& geometry() const { return geometry_; }

  /// The active observability context. The driver journals window
  /// lifecycle events and job/task/DFS metrics into it — the baseline is
  /// instrumented identically to Redoop so runs are comparable. Comes from
  /// `runner_options.obs` when set; otherwise driver-owned. Never null.
  obs::ObservabilityContext* observability() { return obs_; }

 private:
  struct StoredBatch {
    std::string file_name;
    SourceId source = 0;
    Timestamp begin = 0;
    Timestamp end = 0;
    int64_t bytes = 0;
  };

  void IngestUpTo(Timestamp t);
  void DropExpiredBatches(Timestamp window_begin);

  Cluster* cluster_;
  BatchFeed* feed_;
  RecurringQuery query_;
  WindowGeometry geometry_;
  /// Owned fallback when runner_options.obs is null; obs_ is the active
  /// context. Declared before runner_ so the runner can be handed obs_.
  std::unique_ptr<obs::ObservabilityContext> owned_obs_;
  obs::ObservabilityContext* obs_ = nullptr;
  /// Current recurrence for event attribution (-1 outside a recurrence);
  /// declared before scope_, which captures its address.
  int64_t telemetry_window_ = -1;
  /// Query-attributed scope — the baseline is instrumented identically to
  /// Redoop so per-query SLO/lag figures are comparable across systems.
  obs::TelemetryScope scope_;
  DefaultScheduler scheduler_;
  JobRunner runner_;
  std::vector<Timestamp> ingested_until_;  // Per source index.
  std::deque<StoredBatch> batches_;
  int64_t next_recurrence_ = 0;
  int64_t batch_counter_ = 0;
  /// Previous recurrence's result, kept when the query emits deltas.
  std::vector<KeyValue> previous_output_;
};

}  // namespace redoop

#endif  // REDOOP_BASELINE_HADOOP_DRIVER_H_
