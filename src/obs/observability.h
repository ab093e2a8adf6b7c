#ifndef REDOOP_OBS_OBSERVABILITY_H_
#define REDOOP_OBS_OBSERVABILITY_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "obs/event_journal.h"
#include "obs/metric_registry.h"

namespace redoop {
namespace obs {

/// Bundles the event journal of one simulated run with the metrics folded
/// from it, and carries the clock used to timestamp events. Drivers point
/// the time source at their Simulator; components without a clock
/// (profiler, cache controller, scheduler) call Now() through the context.
///
/// Instance-based by design: every RunSystem invocation in the CLI (or
/// every driver in a test) gets its own context, so concurrent simulated
/// systems never interleave events and runs stay bit-for-bit reproducible.
/// All instrumentation hooks accept a nullable ObservabilityContext*; a
/// null context disables emission at negligible cost.
///
/// Metrics are a fold of the journal (MetricRegistry): the newest event is
/// folded once it is complete, which is at the next Emit, before the
/// journal's retention budget can evict it. Snapshot() folds the newest
/// event into a copy, so it is never counted twice. Append events through
/// Emit only, not through journal() directly: the fold reads the newest.
class ObservabilityContext {
 public:
  ObservabilityContext() = default;
  ObservabilityContext(const ObservabilityContext&) = delete;
  ObservabilityContext& operator=(const ObservabilityContext&) = delete;

  EventJournal& journal() { return journal_; }
  const EventJournal& journal() const { return journal_; }

  /// Installs the clock used by Emit(). Typically bound to a Simulator:
  ///   ctx.SetTimeSource([&sim] { return sim.Now(); });
  void SetTimeSource(std::function<double()> now) { now_ = std::move(now); }
  double Now() const { return now_ ? now_() : 0.0; }

  /// Appends a journal event stamped with the context clock.
  Event& Emit(std::string_view type) { return EmitAt(Now(), type); }
  /// Appends a journal event with an explicit timestamp (for emitters that
  /// know a better time than "now", e.g. task completion callbacks).
  Event& EmitAt(double time, std::string_view type) {
    if (const Event* done = Pending()) metrics_.Fold(*done);
    pending_ = true;
    return journal_.Append(time, type);
  }

  /// The metrics of every event emitted so far.
  MetricsSnapshot Snapshot() const {
    const Event* newest = Pending();
    if (newest == nullptr) return metrics_.Snapshot();
    MetricRegistry books = metrics_;
    books.Fold(*newest);
    return books.Snapshot();
  }

 private:
  /// The newest journal event while it is still unfolded: the last one
  /// Emit appended, unless a Clear() dropped it.
  const Event* Pending() const {
    return pending_ && !journal_.empty() ? &journal_.events().back()
                                         : nullptr;
  }

  MetricRegistry metrics_;
  EventJournal journal_;
  bool pending_ = false;
  std::function<double()> now_;
};

/// Metric names. One flat dot-separated namespace. Every name here is fed
/// by exactly one rule of the fold's rule table (metric_registry.cc), which
/// names the event and field behind it; DESIGN §8 reproduces that table.
/// What no event carries is not a metric: reduce-time cache reads live in
/// WindowReport::counters, store levels in CacheStore's accessors, DFS
/// re-replication in Dfs::ReplicateMissing's result and fleet publishes
/// in FleetStats.
namespace metric {

// Pane-level cache reuse (reduce-input / reduce-output caches). A pane
// counts as a hit only when it is served from caches built by a *prior*
// recurrence; panes computed fresh in the current recurrence are misses.
inline constexpr const char* kCachePaneHits = "cache.pane.hits";
inline constexpr const char* kCachePaneMisses = "cache.pane.misses";
inline constexpr const char* kCachePaneHitBytes = "cache.pane.hit.bytes";
inline constexpr const char* kCachePaneMissBytes = "cache.pane.miss.bytes";
// Pane-pair reuse in the join path (cache status matrix).
inline constexpr const char* kCachePairHits = "cache.pair.hits";
inline constexpr const char* kCachePairMisses = "cache.pair.misses";

// Cache population / lifecycle.
inline constexpr const char* kCacheAdds = "cache.adds";
inline constexpr const char* kCacheAddBytes = "cache.add.bytes";
inline constexpr const char* kCacheEvictions = "cache.evictions";
inline constexpr const char* kCacheInvalidations = "cache.invalidations";
inline constexpr const char* kCacheRebuilds = "cache.rebuilds";
inline constexpr const char* kCachePurgedBytes = "cache.purged.bytes";
// Budget-driven CacheStore evictions (distinct from lifespan-driven
// cache.evictions above).
inline constexpr const char* kCacheEvictedEntries = "cache.evicted.entries";
inline constexpr const char* kCacheEvictedBytes = "cache.evicted.bytes";

// Scheduler decisions.
inline constexpr const char* kSchedMapLocal = "sched.map.data_local";
inline constexpr const char* kSchedMapRemote = "sched.map.remote";
inline constexpr const char* kSchedReduceAssignments = "sched.reduce.assignments";
inline constexpr const char* kSchedCacheAffinityTaken =
    "sched.reduce.cache_affinity.taken";
inline constexpr const char* kSchedCacheAffinityMissed =
    "sched.reduce.cache_affinity.missed";
inline constexpr const char* kSchedReduceIoCost = "sched.reduce.io_cost_s";  // histogram

// Profiler (Holt double exponential smoothing) forecast quality.
inline constexpr const char* kProfilerObservations = "profiler.observations";
inline constexpr const char* kProfilerAbsErr = "profiler.forecast.abs_error_s";  // histogram
inline constexpr const char* kProfilerRelErr = "profiler.forecast.rel_error";    // histogram

// DFS traffic.
inline constexpr const char* kDfsLocalReadBytes = "dfs.read.local.bytes";
inline constexpr const char* kDfsRemoteReadBytes = "dfs.read.remote.bytes";
inline constexpr const char* kDfsFilesCreated = "dfs.files.created";
inline constexpr const char* kDfsFilesDeleted = "dfs.files.deleted";
inline constexpr const char* kDfsBytesWritten = "dfs.bytes.written";

// Tasks and jobs.
inline constexpr const char* kTasksMap = "tasks.map";
inline constexpr const char* kTasksReduce = "tasks.reduce";
inline constexpr const char* kTaskFailures = "tasks.failures";
inline constexpr const char* kTaskSpeculations = "tasks.speculations";
inline constexpr const char* kJobs = "jobs";
inline constexpr const char* kTaskMapDuration = "task.map.duration_s";       // histogram
inline constexpr const char* kTaskReduceDuration = "task.reduce.duration_s"; // histogram

// Recurring windows.
inline constexpr const char* kWindowsCompleted = "windows.completed";
inline constexpr const char* kWindowResponseTime = "window.response_time_s";  // histogram

// Fleet serving (multi-tenant coordinator, DESIGN §17).
inline constexpr const char* kFleetAdmitted = "fleet.admitted";
inline constexpr const char* kFleetAdmissionWait =
    "fleet.admission.wait_s";  // histogram
inline constexpr const char* kFleetQueueDepth = "fleet.queue.depth";  // gauge
inline constexpr const char* kFleetScanRequests = "fleet.scan.requests";
inline constexpr const char* kFleetScanHits = "fleet.scan.hits";
inline constexpr const char* kFleetScanMisses = "fleet.scan.misses";
inline constexpr const char* kFleetScanBytesServed = "fleet.scan.bytes.served";
inline constexpr const char* kFleetScanBytesScanned =
    "fleet.scan.bytes.scanned";
inline constexpr const char* kFleetDedupAdoptions = "fleet.dedup.adoptions";
inline constexpr const char* kFleetDedupBytes = "fleet.dedup.bytes";
inline constexpr const char* kFleetDedupEvictFanout =
    "fleet.dedup.evict.fanout";

}  // namespace metric

}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_OBSERVABILITY_H_
