#ifndef REDOOP_OBS_TRACE_TRACE_WRITER_H_
#define REDOOP_OBS_TRACE_TRACE_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/event_journal.h"

namespace redoop {
namespace obs {
namespace trace {

/// Exports execution timelines in the Chrome trace-event format (load the
/// file in chrome://tracing or https://ui.perfetto.dev), drawn from event
/// journals alone. Three processes:
///   pid 1 — task attempts, one lane per cluster node, one slice per
///           completed attempt with the phase breakdown in the slice
///           arguments;
///   pid 2 — cache lifetimes, one lane per node, one slice per cache from
///           its materialization to its eviction/invalidation/purge;
///   pid 3 — counter series (cache occupancy bytes, tasks running).
/// Simulated seconds are rendered as trace microseconds.
class TraceWriter {
 public:
  TraceWriter() = default;

  /// Reconstructs visualization lanes from a structured event journal:
  ///   - one task slice per task.finish, named
  ///     "<kind> <system>-w<window>#<task>" and placed at the attempt's
  ///     start, its duration the sum of its phases; task slices of every
  ///     journal precede all other records, in AddJournal order;
  ///   - per-node cache-lifetime slices (cache.add until the matching
  ///     cache.evict / cache.invalidate / cache.purge; caches still live
  ///     at the journal's end close at its last event time);
  ///   - a "cache_bytes" occupancy counter stepped at every transition;
  ///   - a "tasks_running" counter from task.start (+1) and
  ///     task.finish / task.fail (-1) deltas;
  ///   - one flow arrow per follows-from edge of the span DAG.
  void AddJournal(const EventJournal& journal);

  /// Slices + counter samples + flow events added so far (metadata
  /// excluded).
  size_t event_count() const { return tasks_.size() + extra_.size(); }

  /// The complete trace as Chrome trace JSON.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  /// Adds one sample of a counter series ("C" event in the counters
  /// process).
  void AddCounterSample(const std::string& series, double time_s,
                        double value);

  /// Adds one cache's lifetime as a slice in the caches process, laned by
  /// the node holding it.
  void AddCacheSpan(const std::string& name, int64_t node, double start_s,
                    double end_s, int64_t bytes, const std::string& kind);

  /// Pre-rendered JSON objects: task slices, and the cache, counter and
  /// flow records that follow them.
  std::vector<std::string> tasks_;
  std::vector<std::string> extra_;
};

}  // namespace trace
}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_TRACE_TRACE_WRITER_H_
