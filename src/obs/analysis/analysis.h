#ifndef REDOOP_OBS_ANALYSIS_ANALYSIS_H_
#define REDOOP_OBS_ANALYSIS_ANALYSIS_H_

// Journal analysis engine: reconstructs per-window phase breakdowns,
// cache-efficiency attribution, and per-window task-DAG critical paths
// (with slot-wait and straggler detection) from an EventJournal.
//
// The model mirrors how the drivers emit events: every system (journal
// common field "system") produces a sequence
//
//   window.open .. { job.start .. task.start/finish .. job.finish }* ..
//   window.complete
//
// so windows bracket jobs and jobs bracket task spans. task.start /
// task.finish pairs are keyed by the "task" id; the start carries the
// slot-wait, and the finish event of the winning attempt the per-phase
// durations.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/event_journal.h"

namespace redoop {
namespace obs {
namespace analysis {

/// Summed task-phase durations (seconds of simulated time). `wait` is
/// slot-wait (schedulable but queued) and is not part of TaskTotal().
struct PhaseBreakdown {
  double wait = 0.0;
  double startup = 0.0;
  double read = 0.0;
  double shuffle = 0.0;
  double sort = 0.0;
  double compute = 0.0;
  double write = 0.0;

  double TaskTotal() const {
    return startup + read + shuffle + sort + compute + write;
  }
  void Add(const PhaseBreakdown& other);
};

/// One task attempt span reconstructed from task.start / task.finish.
struct TaskSpan {
  int64_t id = 0;
  bool is_map = true;
  int64_t node = -1;
  int64_t attempt = 0;
  int64_t source = 0;      // Maps.
  int64_t pane = -1;       // Maps.
  int64_t partition = -1;  // Reduces.
  double start = 0.0;
  double duration = 0.0;
  double wait = 0.0;
  PhaseBreakdown phases;
  bool finished = false;  // False: failed attempt or truncated journal.

  double end() const { return start + duration; }
};

/// One job bracketed by job.start / job.finish.
struct JobSpan {
  std::string name;
  double start = 0.0;
  double finish = 0.0;
  std::vector<TaskSpan> tasks;

  double Elapsed() const { return finish - start; }
};

/// Cache reuse attribution for one window, from cache.pane.* and
/// cache.pair.* decision events.
struct CacheStats {
  int64_t pane_hits = 0;
  int64_t pane_misses = 0;
  int64_t pair_hits = 0;
  int64_t pair_misses = 0;
  int64_t hit_bytes = 0;   // Logical bytes served from cache (not re-read).
  int64_t miss_bytes = 0;  // Bytes that had to be (re)built.
  // Budget evictions (cache.pane.evict): panes the byte budget pushed out
  // of the store, flipping them back to recompute.
  int64_t evictions = 0;
  int64_t evicted_bytes = 0;

  void Add(const CacheStats& other);
  double HitRate() const;
};

/// One hop on a window's critical path.
struct CriticalPathStep {
  /// "startup" (job submit -> first path task running), "map", "barrier"
  /// (map done -> path reduce running), "reduce", "finalize".
  std::string label;
  int64_t task = -1;
  int64_t node = -1;
  double start = 0.0;
  double duration = 0.0;
  double wait = 0.0;  // Slot-wait inside this hop.
};

/// Longest chain through a window's task DAG, computed per job by dynamic
/// programming over the span DAG (submit -> maps -> shuffle barrier ->
/// reduces -> finish, edge weight = clamped scheduling gap + successor
/// duration). Jobs within a window are serial, so the window path is the
/// concatenation. On a well-formed journal the DP's choice coincides with
/// the wave tail (last-ending map/reduce); on reordered or failure-heavy
/// journals it maximizes where the old tail heuristic undercounted.
struct WindowCriticalPath {
  double length = 0.0;
  double wait = 0.0;  // Total slot-wait along the path.
  std::vector<CriticalPathStep> steps;
};

/// Root-cause split of a window's critical-path length (DESIGN §14): why
/// was this window's path as long as it was? The five fields partition
/// the path exactly — Total() == WindowCriticalPath::length.
struct BlameBreakdown {
  /// Useful work (and any path time not attributed below).
  double compute = 0.0;
  /// Map-side read time on the path spent re-reading panes that missed
  /// the cache this window — the cost of reuse NOT happening.
  double cache_wait = 0.0;
  /// Path time queued for a task slot (cluster too busy).
  double slot_wait = 0.0;
  /// Straggler excess: path-task time beyond its wave median.
  double skew = 0.0;
  /// Path time inside re-issued attempts (attempt > 0) — failure repair.
  double recovery = 0.0;

  void Add(const BlameBreakdown& other);
  double Total() const {
    return compute + cache_wait + slot_wait + skew + recovery;
  }
};

/// Fleet-serving attribution for one window (DESIGN §17), from the
/// fleet.* decision events: admission wait, shared-scan hit/miss split,
/// and cross-query dedup adoptions/fan-outs.
struct FleetWindowStats {
  int64_t admissions = 0;
  double admission_wait_s = 0.0;
  int64_t queued_peak = 0;
  double attained_s = 0.0;  // Last admission's attained weighted service.
  double weight = 0.0;      // 0 until a fleet.admit event is seen.
  int64_t scan_hits = 0;
  int64_t scan_misses = 0;
  int64_t scan_hit_bytes = 0;      // Served minus scanned: bytes NOT re-read.
  int64_t scan_scanned_bytes = 0;  // Bytes that did hit the inner feed.
  int64_t dedup_adoptions = 0;
  int64_t dedup_bytes = 0;
  int64_t evict_fanouts = 0;

  void Add(const FleetWindowStats& other);
  bool Any() const {
    return admissions != 0 || scan_hits != 0 || scan_misses != 0 ||
           dedup_adoptions != 0 || evict_fanouts != 0;
  }
};

/// A task flagged as abnormally slow: duration > k * median duration of
/// its wave (tasks of the same kind in the same job).
struct Straggler {
  int64_t task = 0;
  bool is_map = true;
  int64_t node = -1;
  double duration = 0.0;
  double wave_median = 0.0;
};

/// Everything reconstructed for one recurrence window.
struct WindowAnalysis {
  int64_t recurrence = 0;
  double open_time = 0.0;
  double trigger_time = 0.0;
  double complete_time = 0.0;
  double response_time = 0.0;
  /// Deadline the driver stamped on window.open (seconds from trigger);
  /// < 0 when the query has no deadline configured.
  double deadline_s = -1.0;
  PhaseBreakdown map_phases;
  PhaseBreakdown reduce_phases;
  CacheStats cache;
  FleetWindowStats fleet;
  std::vector<JobSpan> jobs;
  WindowCriticalPath critical_path;
  BlameBreakdown blame;
  std::vector<Straggler> stragglers;
  int64_t failed_attempts = 0;
  int64_t speculative_attempts = 0;
};

/// All windows of one analysis group. The default grouping key is the
/// journal common field "system"; with AnalysisOptions::group_by_query
/// the key is (system, query) using the per-event "query" attribution
/// field, so multi-tenant journals slice into one SystemAnalysis per
/// recurring query (events without a query land in a group with
/// query = "").
struct SystemAnalysis {
  std::string system;
  std::string query;  ///< "" unless group_by_query split this group out.
  std::vector<WindowAnalysis> windows;

  double TotalResponseTime() const;
  double TotalCriticalPath() const;
  double TotalCriticalPathWait() const;
  BlameBreakdown TotalBlame() const;
  PhaseBreakdown TotalMapPhases() const;
  PhaseBreakdown TotalReducePhases() const;
  CacheStats TotalCache() const;
  FleetWindowStats TotalFleet() const;
  int64_t TotalStragglers() const;
};

struct AnalysisOptions {
  /// Straggler threshold: flag tasks slower than k * median of their wave.
  double straggler_k = 3.0;
  /// Split each system's windows further by the per-event "query"
  /// attribution field (one SystemAnalysis per (system, query) pair).
  bool group_by_query = false;
};

struct RunAnalysis {
  std::vector<SystemAnalysis> systems;  // First-seen order.

  const SystemAnalysis* FindSystem(std::string_view name) const;
  /// Lookup by (system, query); query matching applies even when the
  /// analysis ran without group_by_query (all queries then share "").
  const SystemAnalysis* FindQuery(std::string_view system,
                                  std::string_view query) const;
};

/// Reconstructs windows, jobs, task spans, phase breakdowns, cache stats,
/// critical paths, and stragglers from a journal. Tolerates journals
/// without task.start spans (pre-span journals): such tasks appear with
/// zero wait. Events outside any window (none are emitted by the drivers)
/// are collected under a synthetic recurrence -1 window.
Status AnalyzeJournal(const EventJournal& journal,
                      const AnalysisOptions& options, RunAnalysis* out);

/// Renderers. All output is deterministic (StringPrintf/FormatDouble).
std::string BreakdownToText(const RunAnalysis& analysis);
std::string BreakdownToJson(const RunAnalysis& analysis);
std::string CriticalPathToText(const RunAnalysis& analysis);
std::string CriticalPathToJson(const RunAnalysis& analysis);

}  // namespace analysis
}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_ANALYSIS_ANALYSIS_H_
