#ifndef REDOOP_CORE_METRICS_H_
#define REDOOP_CORE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "mapreduce/counters.h"
#include "mapreduce/kv.h"
#include "mapreduce/task.h"
#include "obs/metric_registry.h"
#include "obs/observability.h"

namespace redoop {

/// What changed between two consecutive windows' results — the delivery
/// format of update-style recurring queries (the paper's Example 2: news
/// feed *updates* are the deltas of a periodically recomputed analysis).
struct WindowDelta {
  /// Rows present now but not in the previous window's result.
  std::vector<KeyValue> added;
  /// Rows the previous window had that are now gone.
  std::vector<KeyValue> removed;

  bool Empty() const { return added.empty() && removed.empty(); }
};

/// Multiset difference of two sorted result sets (both sorted by
/// (key, value), as drivers emit them).
WindowDelta ComputeWindowDelta(const std::vector<KeyValue>& previous,
                               const std::vector<KeyValue>& current);

/// Per-recurrence measurements — the rows the paper's figures plot.
struct WindowReport {
  int64_t recurrence = 0;
  /// Data time at which the window fired.
  Timestamp trigger_time = 0;
  /// Simulated wall-clock when processing of this window finished.
  SimTime finished_at = 0.0;
  /// The paper's headline metric: time from trigger to final result,
  /// including any queueing behind a late previous window.
  SimDuration response_time = 0.0;
  /// Phase sums for the Fig. 6/7 (b,d,f) breakdowns.
  SimDuration shuffle_time = 0.0;
  SimDuration reduce_time = 0.0;
  SimDuration map_phase_time = 0.0;
  /// Logical input bytes the window covered (old + new data).
  int64_t window_input_bytes = 0;
  /// Bytes this system actually processed anew for the window.
  int64_t fresh_input_bytes = 0;
  int64_t output_records = 0;
  Counters counters;
  /// The window's final result (sorted by key,value for comparability).
  std::vector<KeyValue> output;
  /// Changes versus the previous recurrence's result; populated when the
  /// query sets `emit_deltas` (the whole first window counts as added).
  WindowDelta delta;
  /// Per-task execution reports for every job this window ran.
  std::vector<TaskReport> task_reports;
};

/// A whole experiment run: one system processing N recurrences.
struct RunReport {
  std::string system;  // "hadoop", "redoop", "redoop-adaptive", ...
  std::vector<WindowReport> windows;
  /// End-of-run metrics snapshot (cache hit rates, scheduler decisions,
  /// task/DFS totals, per-query SLOs) from the driver's observability
  /// context, built by RunObservability. Benchmarks and tests assert on
  /// it; e.g. `observability.HitRate(obs::metric::kCachePaneHits,
  /// obs::metric::kCachePaneMisses)`.
  obs::MetricsSnapshot observability;

  SimDuration TotalResponseTime() const {
    SimDuration total = 0.0;
    for (const WindowReport& w : windows) total += w.response_time;
    return total;
  }
  SimDuration TotalShuffleTime() const {
    SimDuration total = 0.0;
    for (const WindowReport& w : windows) total += w.shuffle_time;
    return total;
  }
  SimDuration TotalReduceTime() const {
    SimDuration total = 0.0;
    for (const WindowReport& w : windows) total += w.reduce_time;
    return total;
  }
};

/// The snapshot RunReport::observability holds once `obs` has seen a run:
/// the metrics folded from its journal plus the per-query SLO rollup of
/// that journal (`slo.*`). Every driver's Run() and any loop over
/// RunRecurrence() build it here, so both yield the same snapshot.
obs::MetricsSnapshot RunObservability(const obs::ObservabilityContext& obs);

}  // namespace redoop

#endif  // REDOOP_CORE_METRICS_H_
