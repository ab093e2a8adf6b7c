#ifndef REDOOP_OBS_TRACE_SPAN_BUILDER_H_
#define REDOOP_OBS_TRACE_SPAN_BUILDER_H_

// Offline span reconstruction: turns an EventJournal into a causal trace —
// spans with containment parents (window → phase → task, and window →
// cache op) plus follows-from edges for cross-window causality (pane
// produced in window W consumed by a cache hit in W+k; node death → the
// rebuild/re-attempt work it triggered).
//
// The builder derives every span ID from event content with the
// derivations in trace_id.h; the journal carries no ID of its own.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/event_journal.h"
#include "obs/trace/trace_id.h"

namespace redoop {
namespace obs {
namespace trace {

enum class SpanKind {
  kWindow,   // window.open .. window.complete
  kPhase,    // one map/reduce wave of one job
  kTask,     // task.start .. task.finish/task.fail
  kCacheOp,  // instant cache decision (add, evict, hit, miss, ...)
  kPane,     // a materialized pane artifact (pane.ready -> cache-available)
  kFailure,  // dfs.node.failed or task.fail
};

const char* SpanKindName(SpanKind kind);

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root of its trace.
  SpanId trace = 0;
  SpanKind kind = SpanKind::kCacheOp;
  /// Window/phase/task: human label ("window 3", "pane-S0P2/map",
  /// "task 17"). Cache ops: the event type. Failures: "node 4 failed" /
  /// "task 17 failed".
  std::string label;
  std::string system;
  std::string query;
  /// Cache name for name-keyed cache ops ("" otherwise).
  std::string detail;
  int64_t window = -1;
  double start = 0.0;
  double end = 0.0;
  int64_t node = -1;
  int64_t task = -1;
  int64_t attempt = 0;
  int64_t source = -1;
  int64_t pane = -1;
  int64_t partition = -1;
  int64_t bytes = 0;
};

/// A follows-from edge: `to` causally depends on `from` without being
/// contained in it.
struct FollowsFrom {
  SpanId from = 0;
  SpanId to = 0;
  /// "pane_reuse" (pane built in window_from, consumed in window_to) or
  /// "recovery" (failure span -> rebuild / re-attempt span it triggered).
  std::string kind;
  int64_t source = -1;
  int64_t pane = -1;
  int64_t window_from = -1;
  int64_t window_to = -1;
  double time = 0.0;  // When the consuming/recovering side happened.
};

struct Trace {
  std::vector<Span> spans;          // Journal order; deterministic.
  std::vector<FollowsFrom> follows;  // Journal order; deterministic.

  const Span* Find(SpanId id) const;
  size_t CountKind(SpanKind kind) const;
};

/// Reconstructs the span DAG from a journal. Works on any journal the
/// drivers emit, including a flight recorder's truncated one.
Status BuildTrace(const EventJournal& journal, Trace* out);

// --- Renderers (deterministic output) --------------------------------------

/// One-object summary: span/edge counts by kind plus the DAG critical-path
/// total from the analysis engine. This is the CI golden surface.
std::string TraceSummaryText(const Trace& trace, const EventJournal& journal);
std::string TraceSummaryJson(const Trace& trace, const EventJournal& journal);

/// The span tree of one window (all (system, query) groups), follows-from
/// edges annotated inline.
std::string WindowTreeText(const Trace& trace, int64_t window);
std::string WindowTreeJson(const Trace& trace, int64_t window);

/// Every build of pane (source, pane) and every window that consumed it
/// (cache hits via follows-from edges; in-window builds via miss ops).
std::string PaneLineageText(const Trace& trace, int64_t source, int64_t pane);
std::string PaneLineageJson(const Trace& trace, int64_t source, int64_t pane);

}  // namespace trace
}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_TRACE_SPAN_BUILDER_H_
