#include "obs/trace/span_builder.h"

#include <deque>
#include <map>
#include <utility>

#include "common/string_utils.h"
#include "obs/analysis/analysis.h"
#include "obs/metric_registry.h"

namespace redoop {
namespace obs {
namespace trace {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWindow: return "window";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kTask: return "task";
    case SpanKind::kCacheOp: return "cache_op";
    case SpanKind::kPane: return "pane";
    case SpanKind::kFailure: return "failure";
  }
  return "unknown";
}

const Span* Trace::Find(SpanId id) const {
  for (const Span& s : spans) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

size_t Trace::CountKind(SpanKind kind) const {
  size_t n = 0;
  for (const Span& s : spans) {
    if (s.kind == kind) ++n;
  }
  return n;
}

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

/// Per-(system, query) reconstruction state.
struct GroupState {
  std::string system;
  std::string query;
  SpanId trace = 0;

  std::map<int64_t, size_t> window_index;  // recurrence -> span index.
  int64_t open_window = -1;

  bool job_open = false;
  std::string job_name;
  int64_t job_occurrence = 0;
  std::map<std::string, int64_t> job_occurrences;
  size_t map_phase = kNone;
  size_t reduce_phase = kNone;
  std::map<int64_t, size_t> task_spans;  // task id -> span index.

  /// Every build of a pane artifact, in journal order.
  std::map<std::pair<int64_t, int64_t>,
           std::vector<std::pair<int64_t, size_t>>>
      pane_builds;  // (source, pane) -> [(built window, span index)].
  std::map<std::string, int64_t> op_occurrences;  // "type\nkey" -> count.
  /// Failed attempts awaiting their re-issued attempt, FIFO per identity.
  std::map<std::string, std::deque<size_t>> pending_fails;
  /// Last cache.invalidate(reason=lost) op span per node — the recovery
  /// edge fallback when no dfs.node.failed was journaled (injected cache
  /// loss without a node death).
  std::map<int64_t, size_t> last_lost_invalidate;
};

/// Node-failure spans are system-scoped (dfs events carry no query label)
/// so recovery edges can reach them from any query's group.
struct SystemFailures {
  SpanId trace = 0;
  std::map<int64_t, int64_t> occurrences;  // node -> failures seen.
  std::map<int64_t, size_t> last_span;     // node -> span index.
};

class Builder {
 public:
  explicit Builder(Trace* out) : out_(out) {}

  void Consume(const EventJournal& journal) {
    size_t index = 0;
    for (const Event& e : journal.events()) {
      HandleEvent(e, index++);
    }
  }

 private:
  GroupState& GroupFor(const Event& e) {
    const std::string system = e.StrOr("system", "");
    const std::string query = e.StrOr("query", "");
    const std::string key = system + '\n' + query;
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_.emplace(key, GroupState()).first;
      it->second.system = system;
      it->second.query = query;
      it->second.trace = TraceIdFor(system, query);
    }
    return it->second;
  }

  SystemFailures& FailuresFor(const std::string& system) {
    auto it = failures_.find(system);
    if (it == failures_.end()) {
      it = failures_.emplace(system, SystemFailures()).first;
      it->second.trace = TraceIdFor(system, "");
    }
    return it->second;
  }

  size_t AddSpan(Span span) {
    out_->spans.push_back(std::move(span));
    return out_->spans.size() - 1;
  }

  Span& At(size_t index) { return out_->spans[index]; }

  SpanId WindowParent(const GroupState& g, const Event& e) const {
    const int64_t w = e.IntOr("window", g.open_window);
    auto it = g.window_index.find(w);
    if (it != g.window_index.end()) return out_->spans[it->second].id;
    return 0;
  }

  void Mismatch(size_t index, const Event& e, const char* what,
                const std::string& got, const std::string& want) {
    out_->stamp_mismatches.push_back(StringPrintf(
        "event %zu (%s): %s stamped %s, derived %s", index, e.type().c_str(),
        what, got.c_str(), want.c_str()));
  }

  /// Cross-checks the stamped propagation fields against the derived IDs.
  void ValidateStamps(const GroupState& g, const Event& e, size_t index) {
    const EventField* trace_field = e.Find("trace");
    if (trace_field != nullptr) {
      const std::string want = IdHex(g.trace);
      if (trace_field->str() != want) {
        Mismatch(index, e, "trace", std::string(trace_field->str()), want);
      }
    }
    const EventField* pspan = e.Find("pspan");
    if (pspan != nullptr) {
      const int64_t w = e.IntOr("window", -1);
      if (w >= 0) {
        const std::string want = IdHex(WindowSpanId(g.trace, w));
        if (pspan->str() != want) {
          Mismatch(index, e, "pspan", std::string(pspan->str()), want);
        }
      }
    }
    const EventField* ctx_field = e.Find("ctx");
    if (ctx_field != nullptr) {
      TraceContext ctx;
      if (!TraceContext::Parse(ctx_field->str(), &ctx)) {
        Mismatch(index, e, "ctx", std::string(ctx_field->str()),
                 "(parseable token)");
      } else {
        if (ctx.trace_id != g.trace) {
          Mismatch(index, e, "ctx.trace", IdHex(ctx.trace_id),
                   IdHex(g.trace));
        }
        const SpanId want = TaskSpanId(g.trace, e.IntOr("task", -1),
                                       e.IntOr("attempt", 0));
        if (ctx.span_id != want) {
          Mismatch(index, e, "ctx.span", IdHex(ctx.span_id), IdHex(want));
        }
      }
    }
  }

  void OpenWindow(GroupState& g, const Event& e) {
    const int64_t recurrence = e.IntOr("recurrence", -1);
    Span span;
    span.trace = g.trace;
    span.id = WindowSpanId(g.trace, recurrence);
    span.parent = 0;
    span.kind = SpanKind::kWindow;
    span.label = StringPrintf("window %lld",
                              static_cast<long long>(recurrence));
    span.system = g.system;
    span.query = g.query;
    span.window = recurrence;
    span.start = e.time();
    span.end = e.time();
    g.window_index[recurrence] = AddSpan(std::move(span));
    g.open_window = recurrence;
  }

  void CloseWindow(GroupState& g, const Event& e) {
    const int64_t recurrence = e.IntOr("recurrence", g.open_window);
    auto it = g.window_index.find(recurrence);
    if (it != g.window_index.end()) At(it->second).end = e.time();
    if (g.open_window == recurrence) g.open_window = -1;
  }

  void OpenJob(GroupState& g, const Event& e) {
    g.job_name = e.StrOr("job", "");
    g.job_occurrence = g.job_occurrences[g.job_name]++;
    g.job_open = true;
    g.map_phase = kNone;
    g.reduce_phase = kNone;
    g.task_spans.clear();
  }

  void CloseJob(GroupState& g) {
    g.job_open = false;
    g.map_phase = kNone;
    g.reduce_phase = kNone;
  }

  size_t EnsurePhase(GroupState& g, bool is_map, double time) {
    size_t& slot = is_map ? g.map_phase : g.reduce_phase;
    if (slot != kNone) return slot;
    const SpanId parent =
        g.open_window >= 0 && g.window_index.count(g.open_window) > 0
            ? out_->spans[g.window_index[g.open_window]].id
            : 0;
    Span span;
    span.trace = g.trace;
    span.id = PhaseSpanId(parent, g.job_name, g.job_occurrence,
                          is_map ? "map" : "reduce");
    span.parent = parent;
    span.kind = SpanKind::kPhase;
    span.label = g.job_name + (is_map ? "/map" : "/reduce");
    span.system = g.system;
    span.query = g.query;
    span.window = g.open_window;
    span.start = time;
    span.end = time;
    slot = AddSpan(std::move(span));
    return slot;
  }

  void StartTask(GroupState& g, const Event& e, size_t index) {
    const bool is_map = e.StrOr("kind", "map") == "map";
    const int64_t task = e.IntOr("task", -1);
    const int64_t attempt = e.IntOr("attempt", 0);
    const size_t phase = EnsurePhase(g, is_map, e.time());
    Span span;
    span.trace = g.trace;
    span.id = TaskSpanId(g.trace, task, attempt);
    span.parent = At(phase).id;
    span.kind = SpanKind::kTask;
    span.label = StringPrintf("task %lld", static_cast<long long>(task));
    span.system = g.system;
    span.query = g.query;
    span.window = g.open_window;
    span.start = e.time();
    span.end = e.time();
    span.node = e.IntOr("node", -1);
    span.task = task;
    span.attempt = attempt;
    span.source = e.IntOr("source", -1);
    span.pane = e.IntOr("pane", -1);
    span.partition = e.IntOr("partition", -1);
    const size_t span_index = AddSpan(std::move(span));
    g.task_spans[task] = span_index;

    // A re-issued attempt follows from the failure that killed its
    // predecessor (same task identity, previous attempt).
    if (attempt > 0) {
      const std::string key = FailIdentity(
          is_map, e.IntOr("source", -1), e.IntOr("pane", -1),
          e.IntOr("partition", -1), attempt);
      auto it = g.pending_fails.find(key);
      if (it != g.pending_fails.end() && !it->second.empty()) {
        AddFollows(At(it->second.front()).id, At(span_index).id, "recovery",
                   -1, -1, At(it->second.front()).window, g.open_window,
                   e.time());
        it->second.pop_front();
      }
    }
    (void)index;
  }

  void FinishTask(GroupState& g, const Event& e) {
    auto it = g.task_spans.find(e.IntOr("task", -1));
    if (it == g.task_spans.end()) return;
    Span& span = At(it->second);
    span.end = e.time();
    span.node = e.IntOr("node", span.node);
    span.bytes = e.IntOr("bytes", span.bytes);
    // The phase wave extends to its last finishing task.
    const size_t phase = span.kind == SpanKind::kTask && span.parent != 0
                             ? (e.StrOr("kind", "map") == "map" ? g.map_phase
                                                                : g.reduce_phase)
                             : kNone;
    if (phase != kNone && At(phase).end < e.time()) At(phase).end = e.time();
  }

  static std::string FailIdentity(bool is_map, int64_t source, int64_t pane,
                                  int64_t partition, int64_t next_attempt) {
    return StringPrintf("%s/%lld/%lld/%lld/%lld", is_map ? "map" : "reduce",
                        static_cast<long long>(source),
                        static_cast<long long>(pane),
                        static_cast<long long>(partition),
                        static_cast<long long>(next_attempt));
  }

  void FailTask(GroupState& g, const Event& e) {
    const int64_t task = e.IntOr("task", -1);
    const int64_t attempt = e.IntOr("attempt", 0);
    const bool is_map = e.StrOr("kind", "map") == "map";
    Span span;
    span.trace = g.trace;
    span.id = DeriveId(StringPrintf("taskfail:%s:%lld:%lld",
                                    IdHex(g.trace).c_str(),
                                    static_cast<long long>(task),
                                    static_cast<long long>(attempt)));
    auto it = g.task_spans.find(task);
    span.parent = it != g.task_spans.end() ? At(it->second).id
                                           : WindowParent(g, e);
    span.kind = SpanKind::kFailure;
    span.label = StringPrintf("task %lld failed",
                              static_cast<long long>(task));
    span.system = g.system;
    span.query = g.query;
    span.window = e.IntOr("window", g.open_window);
    span.start = e.time();
    span.end = e.time();
    span.node = e.IntOr("node", -1);
    span.task = task;
    span.attempt = attempt;
    span.source = e.IntOr("source", -1);
    span.pane = e.IntOr("pane", -1);
    span.partition = e.IntOr("partition", -1);
    const size_t span_index = AddSpan(std::move(span));
    if (it != g.task_spans.end()) At(it->second).end = e.time();
    g.pending_fails[FailIdentity(is_map, e.IntOr("source", -1),
                                 e.IntOr("pane", -1),
                                 e.IntOr("partition", -1), attempt + 1)]
        .push_back(span_index);
  }

  void NodeFailed(const Event& e) {
    const std::string system = e.StrOr("system", "");
    SystemFailures& f = FailuresFor(system);
    const int64_t node = e.IntOr("node", -1);
    const int64_t occurrence = f.occurrences[node]++;
    Span span;
    span.trace = f.trace;
    span.id = FailureSpanId(f.trace, node, occurrence);
    span.parent = 0;
    span.kind = SpanKind::kFailure;
    span.label = StringPrintf("node %lld failed",
                              static_cast<long long>(node));
    span.system = system;
    span.window = e.IntOr("window", -1);
    span.start = e.time();
    span.end = e.time();
    span.node = node;
    f.last_span[node] = AddSpan(std::move(span));
  }

  size_t CacheOp(GroupState& g, const Event& e) {
    const std::string name = e.StrOr("name", "");
    std::string key = name;
    if (key.empty()) {
      key = StringPrintf("S%lldP%lld",
                         static_cast<long long>(e.IntOr("source", -1)),
                         static_cast<long long>(e.IntOr("pane", -1)));
    }
    const std::string occ_key = e.type() + '\n' + key;
    const int64_t occurrence = g.op_occurrences[occ_key]++;
    Span span;
    span.trace = g.trace;
    span.id = CacheOpSpanId(g.trace, e.type(), key, occurrence);
    // Ops inside a task attempt (dfs.read) nest under it; driver/controller
    // ops nest under their window.
    const EventField* task_field = e.Find("task");
    if (task_field != nullptr &&
        g.task_spans.count(e.IntOr("task", -1)) > 0) {
      span.parent = At(g.task_spans[e.IntOr("task", -1)]).id;
    } else {
      span.parent = WindowParent(g, e);
    }
    span.kind = SpanKind::kCacheOp;
    span.label = e.type();
    span.system = g.system;
    span.query = g.query;
    span.detail = name;
    span.window = e.IntOr("window", g.open_window);
    span.start = e.time();
    span.end = e.time();
    span.node = e.IntOr("node", -1);
    span.task = e.IntOr("task", -1);
    span.source = e.IntOr("source", -1);
    span.pane = e.IntOr("pane", -1);
    span.partition = e.IntOr("partition", -1);
    span.bytes = e.IntOr("bytes", 0);
    return AddSpan(std::move(span));
  }

  void AddFollows(SpanId from, SpanId to, const char* kind, int64_t source,
                  int64_t pane, int64_t window_from, int64_t window_to,
                  double time) {
    FollowsFrom edge;
    edge.from = from;
    edge.to = to;
    edge.kind = kind;
    edge.source = source;
    edge.pane = pane;
    edge.window_from = window_from;
    edge.window_to = window_to;
    edge.time = time;
    out_->follows.push_back(std::move(edge));
  }

  void PaneReady(GroupState& g, const Event& e) {
    CacheOp(g, e);
    if (e.IntOr("ready", 0) != 2) return;  // 2 = cache-available: built.
    const int64_t source = e.IntOr("source", -1);
    const int64_t pane = e.IntOr("pane", -1);
    const int64_t window = e.IntOr("window", g.open_window);
    Span span;
    span.trace = g.trace;
    span.id = PaneSpanId(g.trace, source, pane, window);
    span.parent = WindowParent(g, e);
    span.kind = SpanKind::kPane;
    span.label = StringPrintf("pane S%lld/P%lld",
                              static_cast<long long>(source),
                              static_cast<long long>(pane));
    span.system = g.system;
    span.query = g.query;
    span.window = window;
    span.start = e.time();
    span.end = e.time();
    span.source = source;
    span.pane = pane;
    g.pane_builds[{source, pane}].emplace_back(window, AddSpan(std::move(span)));
  }

  void PaneHit(GroupState& g, const Event& e) {
    const size_t op = CacheOp(g, e);
    if (e.StrOr("reason", "") != "reused") return;
    const int64_t source = e.IntOr("source", -1);
    const int64_t pane = e.IntOr("pane", -1);
    auto it = g.pane_builds.find({source, pane});
    if (it == g.pane_builds.end() || it->second.empty()) return;
    // Prefer the build the emitter says served the hit; otherwise the
    // latest build (a rebuild supersedes the original artifact).
    const int64_t built_in = e.IntOr("built_in", -1);
    const std::pair<int64_t, size_t>* build = &it->second.back();
    if (built_in >= 0) {
      for (const auto& candidate : it->second) {
        if (candidate.first == built_in) build = &candidate;
      }
    }
    const int64_t window_to = e.IntOr("window", g.open_window);
    auto wit = g.window_index.find(window_to);
    const SpanId to = wit != g.window_index.end()
                          ? At(wit->second).id
                          : At(op).id;
    AddFollows(At(build->second).id, to, "pane_reuse", source, pane,
               build->first, window_to, e.time());
  }

  void Rebuild(GroupState& g, const Event& e) {
    const size_t op = CacheOp(g, e);
    const int64_t node = e.IntOr("node", -1);
    // Recovery lineage: the rebuild follows from the node death that lost
    // the cache, or (cache-only loss) from the invalidation record.
    SystemFailures& f = FailuresFor(g.system);
    auto fit = f.last_span.find(node);
    size_t from = kNone;
    if (fit != f.last_span.end()) {
      from = fit->second;
    } else {
      auto iit = g.last_lost_invalidate.find(node);
      if (iit != g.last_lost_invalidate.end()) from = iit->second;
    }
    if (from == kNone) return;
    AddFollows(At(from).id, At(op).id, "recovery", e.IntOr("source", -1),
               e.IntOr("pane", -1), At(from).window,
               e.IntOr("window", g.open_window), e.time());
  }

  void HandleEvent(const Event& e, size_t index) {
    const std::string& type = e.type();
    if (type == event::kDfsNodeFailed) {
      NodeFailed(e);
      return;
    }
    if (type == event::kDfsFileCreate || type == event::kDfsFileDelete ||
        type == event::kSchedAssign || type == event::kProfilerObserve ||
        type == event::kMatrixDone || type == event::kMatrixShift ||
        type == event::kWindowTrigger || type == event::kTaskSpeculate ||
        type == event::kTraceSample || type == event::kJournalTruncated) {
      return;  // Not part of the span model.
    }
    GroupState& g = GroupFor(e);
    ValidateStamps(g, e, index);
    if (type == event::kWindowOpen) {
      OpenWindow(g, e);
    } else if (type == event::kWindowComplete) {
      CloseWindow(g, e);
    } else if (type == event::kJobStart) {
      OpenJob(g, e);
    } else if (type == event::kJobFinish) {
      CloseJob(g);
    } else if (type == event::kTaskStart) {
      StartTask(g, e, index);
    } else if (type == event::kTaskFinish) {
      FinishTask(g, e);
    } else if (type == event::kTaskFail) {
      FailTask(g, e);
    } else if (type == event::kPaneReady) {
      PaneReady(g, e);
    } else if (type == event::kCachePaneHit) {
      PaneHit(g, e);
    } else if (type == event::kCacheRebuild) {
      Rebuild(g, e);
    } else if (type == event::kCacheInvalidate) {
      const size_t op = CacheOp(g, e);
      if (e.StrOr("reason", "") == "lost") {
        g.last_lost_invalidate[e.IntOr("node", -1)] = op;
      }
    } else if (type == event::kCacheAdd || type == event::kCacheEvict ||
               type == event::kCachePurge || type == event::kCachePaneMiss ||
               type == event::kCachePairHit ||
               type == event::kCachePairMiss || type == event::kDfsRead) {
      CacheOp(g, e);
    }
  }

  Trace* out_;
  std::map<std::string, GroupState> groups_;
  std::map<std::string, SystemFailures> failures_;
};

}  // namespace

Status BuildTrace(const EventJournal& journal, Trace* out) {
  *out = Trace();
  Builder builder(out);
  builder.Consume(journal);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

namespace {

double TotalCriticalPath(const EventJournal& journal) {
  analysis::RunAnalysis run;
  const Status s =
      analysis::AnalyzeJournal(journal, analysis::AnalysisOptions(), &run);
  if (!s.ok()) return 0.0;
  double total = 0.0;
  for (const analysis::SystemAnalysis& sys : run.systems) {
    total += sys.TotalCriticalPath();
  }
  return total;
}

size_t CountEdges(const Trace& trace, std::string_view kind) {
  size_t n = 0;
  for (const FollowsFrom& f : trace.follows) {
    if (f.kind == kind) ++n;
  }
  return n;
}

}  // namespace

std::string TraceSummaryText(const Trace& trace,
                             const EventJournal& journal) {
  std::string out = StringPrintf(
      "trace: %zu spans, %zu follows-from edges\n", trace.spans.size(),
      trace.follows.size());
  out += StringPrintf(
      "  windows=%zu phases=%zu tasks=%zu cache_ops=%zu panes=%zu "
      "failures=%zu\n",
      trace.CountKind(SpanKind::kWindow), trace.CountKind(SpanKind::kPhase),
      trace.CountKind(SpanKind::kTask), trace.CountKind(SpanKind::kCacheOp),
      trace.CountKind(SpanKind::kPane),
      trace.CountKind(SpanKind::kFailure));
  out += StringPrintf("  pane_reuse=%zu recovery=%zu\n",
                      CountEdges(trace, "pane_reuse"),
                      CountEdges(trace, "recovery"));
  out += StringPrintf("  critical_path_s=%s stamp_mismatches=%zu\n",
                      FormatDouble(TotalCriticalPath(journal)).c_str(),
                      trace.stamp_mismatches.size());
  return out;
}

std::string TraceSummaryJson(const Trace& trace,
                             const EventJournal& journal) {
  return StringPrintf(
      "{\"spans\": %zu, \"edges\": %zu, "
      "\"kinds\": {\"window\": %zu, \"phase\": %zu, \"task\": %zu, "
      "\"cache_op\": %zu, \"pane\": %zu, \"failure\": %zu}, "
      "\"follows\": {\"pane_reuse\": %zu, \"recovery\": %zu}, "
      "\"critical_path_s\": %s, \"stamp_mismatches\": %zu}\n",
      trace.spans.size(), trace.follows.size(),
      trace.CountKind(SpanKind::kWindow), trace.CountKind(SpanKind::kPhase),
      trace.CountKind(SpanKind::kTask), trace.CountKind(SpanKind::kCacheOp),
      trace.CountKind(SpanKind::kPane), trace.CountKind(SpanKind::kFailure),
      CountEdges(trace, "pane_reuse"), CountEdges(trace, "recovery"),
      FormatDouble(TotalCriticalPath(journal)).c_str(),
      trace.stamp_mismatches.size());
}

namespace {

using ChildIndex = std::map<SpanId, std::vector<size_t>>;

ChildIndex BuildChildIndex(const Trace& trace) {
  ChildIndex children;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    if (trace.spans[i].parent != 0) {
      children[trace.spans[i].parent].push_back(i);
    }
  }
  return children;
}

std::string SpanLineText(const Span& s) {
  std::string out = StringPrintf("[%s] %s", SpanKindName(s.kind),
                                 s.label.c_str());
  if (!s.detail.empty()) out += StringPrintf(" name=%s", s.detail.c_str());
  if (s.node >= 0) out += StringPrintf(" node=%lld",
                                       static_cast<long long>(s.node));
  if (s.attempt > 0) out += StringPrintf(" attempt=%lld",
                                         static_cast<long long>(s.attempt));
  out += StringPrintf(" t=[%s, %s] span=%s", FormatDouble(s.start).c_str(),
                      FormatDouble(s.end).c_str(), IdHex(s.id).c_str());
  return out;
}

void AppendFollowsNotes(const Trace& trace, const Span& s,
                        const std::string& indent, std::string* out) {
  for (const FollowsFrom& f : trace.follows) {
    if (f.to == s.id) {
      const Span* from = trace.Find(f.from);
      *out += StringPrintf(
          "%s  <- follows %s (%s, window %lld)\n", indent.c_str(),
          from != nullptr ? from->label.c_str() : IdHex(f.from).c_str(),
          f.kind.c_str(), static_cast<long long>(f.window_from));
    }
    if (f.from == s.id) {
      *out += StringPrintf("%s  -> feeds window %lld (%s)\n", indent.c_str(),
                           static_cast<long long>(f.window_to),
                           f.kind.c_str());
    }
  }
}

void AppendTreeText(const Trace& trace, const ChildIndex& children,
                    size_t index, int depth, std::string* out) {
  const Span& s = trace.spans[index];
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  *out += indent + SpanLineText(s) + "\n";
  AppendFollowsNotes(trace, s, indent, out);
  auto it = children.find(s.id);
  if (it == children.end()) return;
  for (size_t child : it->second) {
    AppendTreeText(trace, children, child, depth + 1, out);
  }
}

void AppendTreeJson(const Trace& trace, const ChildIndex& children,
                    size_t index, std::string* out) {
  const Span& s = trace.spans[index];
  *out += StringPrintf(
      "{\"span\": \"%s\", \"parent\": \"%s\", \"kind\": \"%s\", "
      "\"label\": \"%s\", \"window\": %lld, \"start\": %s, \"end\": %s",
      IdHex(s.id).c_str(), IdHex(s.parent).c_str(), SpanKindName(s.kind),
      s.label.c_str(), static_cast<long long>(s.window),
      FormatDouble(s.start).c_str(), FormatDouble(s.end).c_str());
  if (!s.detail.empty()) {
    *out += StringPrintf(", \"name\": \"%s\"", s.detail.c_str());
  }
  if (s.node >= 0) {
    *out += StringPrintf(", \"node\": %lld, \"attempt\": %lld",
                         static_cast<long long>(s.node),
                         static_cast<long long>(s.attempt));
  }
  std::string follows;
  for (const FollowsFrom& f : trace.follows) {
    if (f.to != s.id) continue;
    follows += follows.empty() ? "" : ", ";
    follows += StringPrintf(
        "{\"from\": \"%s\", \"kind\": \"%s\", \"window\": %lld}",
        IdHex(f.from).c_str(), f.kind.c_str(),
        static_cast<long long>(f.window_from));
  }
  if (!follows.empty()) {
    *out += StringPrintf(", \"follows_from\": [%s]", follows.c_str());
  }
  auto it = children.find(s.id);
  if (it != children.end()) {
    *out += ", \"children\": [";
    bool first = true;
    for (size_t child : it->second) {
      *out += first ? "" : ", ";
      first = false;
      AppendTreeJson(trace, children, child, out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string WindowTreeText(const Trace& trace, int64_t window) {
  const ChildIndex children = BuildChildIndex(trace);
  std::string out;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const Span& s = trace.spans[i];
    if (s.kind != SpanKind::kWindow || s.window != window) continue;
    out += StringPrintf("=== system %s query %s ===\n",
                        s.system.empty() ? "(unnamed)" : s.system.c_str(),
                        s.query.c_str());
    AppendTreeText(trace, children, i, 0, &out);
  }
  if (out.empty()) {
    out = StringPrintf("no spans for window %lld\n",
                       static_cast<long long>(window));
  }
  return out;
}

std::string WindowTreeJson(const Trace& trace, int64_t window) {
  const ChildIndex children = BuildChildIndex(trace);
  std::string out = StringPrintf("{\"window\": %lld, \"trees\": [",
                                 static_cast<long long>(window));
  bool first = true;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const Span& s = trace.spans[i];
    if (s.kind != SpanKind::kWindow || s.window != window) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += StringPrintf("{\"system\": \"%s\", \"query\": \"%s\", \"tree\": ",
                        s.system.c_str(), s.query.c_str());
    AppendTreeJson(trace, children, i, &out);
    out += "}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

std::string PaneLineageText(const Trace& trace, int64_t source,
                            int64_t pane) {
  std::string out = StringPrintf("pane S%lld/P%lld\n",
                                 static_cast<long long>(source),
                                 static_cast<long long>(pane));
  size_t builds = 0;
  for (const Span& s : trace.spans) {
    if (s.kind == SpanKind::kPane && s.source == source && s.pane == pane) {
      ++builds;
      out += StringPrintf("  built in window %lld at t=%s (span %s)\n",
                          static_cast<long long>(s.window),
                          FormatDouble(s.start).c_str(),
                          IdHex(s.id).c_str());
    }
  }
  size_t consumers = 0;
  for (const FollowsFrom& f : trace.follows) {
    if (f.kind != "pane_reuse" || f.source != source || f.pane != pane) {
      continue;
    }
    ++consumers;
    out += StringPrintf(
        "  consumed by window %lld at t=%s (built in window %lld)\n",
        static_cast<long long>(f.window_to), FormatDouble(f.time).c_str(),
        static_cast<long long>(f.window_from));
  }
  for (const Span& s : trace.spans) {
    if (s.kind == SpanKind::kCacheOp && s.label == event::kCachePaneMiss &&
        s.source == source && s.pane == pane) {
      out += StringPrintf("  computed fresh in window %lld at t=%s\n",
                          static_cast<long long>(s.window),
                          FormatDouble(s.start).c_str());
    }
  }
  if (builds == 0 && consumers == 0) {
    out += "  (no trace activity for this pane)\n";
  }
  return out;
}

std::string PaneLineageJson(const Trace& trace, int64_t source,
                            int64_t pane) {
  std::string out = StringPrintf(
      "{\"source\": %lld, \"pane\": %lld, \"builds\": [",
      static_cast<long long>(source), static_cast<long long>(pane));
  bool first = true;
  for (const Span& s : trace.spans) {
    if (s.kind != SpanKind::kPane || s.source != source || s.pane != pane) {
      continue;
    }
    out += first ? "" : ", ";
    first = false;
    out += StringPrintf("{\"window\": %lld, \"time\": %s, \"span\": \"%s\"}",
                        static_cast<long long>(s.window),
                        FormatDouble(s.start).c_str(), IdHex(s.id).c_str());
  }
  out += "], \"consumers\": [";
  first = true;
  for (const FollowsFrom& f : trace.follows) {
    if (f.kind != "pane_reuse" || f.source != source || f.pane != pane) {
      continue;
    }
    out += first ? "" : ", ";
    first = false;
    out += StringPrintf(
        "{\"window\": %lld, \"time\": %s, \"built_in\": %lld}",
        static_cast<long long>(f.window_to), FormatDouble(f.time).c_str(),
        static_cast<long long>(f.window_from));
  }
  out += "], \"fresh_windows\": [";
  first = true;
  for (const Span& s : trace.spans) {
    if (s.kind == SpanKind::kCacheOp && s.label == event::kCachePaneMiss &&
        s.source == source && s.pane == pane) {
      out += first ? "" : ", ";
      first = false;
      out += StringPrintf("%lld", static_cast<long long>(s.window));
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace trace
}  // namespace obs
}  // namespace redoop
