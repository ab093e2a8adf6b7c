#ifndef REDOOP_OBS_TRACE_TRACE_CONTEXT_H_
#define REDOOP_OBS_TRACE_TRACE_CONTEXT_H_

// Deterministic causal-trace identifiers and the propagation context.
//
// Every span ID is derived by hashing a canonical string built from
// content the journal already records deterministically (query name,
// recurrence number, task id, cache name, ...). Because the journal is
// byte-identical at any --threads setting, so is every ID derived from
// it — span IDs never depend on allocation order, wall clocks, or thread
// interleaving. The same derivation runs on both sides: emitters stamp
// IDs into events, and the offline span builder recomputes them from the
// same fields, so a stamped ID is a checkable claim, not a new fact.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace redoop {
namespace obs {
namespace trace {

/// 64-bit span/trace identifier. 0 is reserved for "none"/root.
using SpanId = uint64_t;

/// FNV-1a-64 over the bytes of a canonical string, as a non-zero id (0
/// maps to the FNV offset basis so "no id" stays unambiguous).
SpanId DeriveId(std::string_view canonical);

/// Width of IdHex's rendering.
inline constexpr size_t kIdHexChars = 16;

/// 16 lowercase hex chars, the wire/JSON rendering of an id.
std::string IdHex(SpanId id);
/// The same 16 chars written to `out` (no terminator); returns the end.
char* WriteIdHex(SpanId id, char* out);

// --- The ID scheme (DESIGN §14) -------------------------------------------
// trace  = H("trace:<system>/<query>")
// window = H("window:<trace16>:<recurrence>")
// phase  = H("phase:<window16>:<job>#<occurrence>:<map|reduce>")
// task   = H("task:<trace16>:<task id>:<attempt>")
// cacheop= H("cacheop:<trace16>:<event type>:<key>#<occurrence>")
// pane   = H("pane:<trace16>:S<source>:P<pane>:W<built window>")
// failure= H("failure:<trace16>:N<node>#<occurrence>")
//
// Occurrence counters disambiguate repeats (a job name rerun within a
// window, a cache re-added after a rebuild, a node failing twice); they
// count occurrences in journal order, which is itself deterministic.
//
// The canonical strings are the definition; the functions below stream
// their pieces through FNV-1a without building them. <x16> is IdHex,
// integers are decimal, and <job>, <map|reduce>, <event type> and <key>
// end at their first NUL, as printf's "%.*s" renders them (TraceIdFor
// hashes every byte of its inputs).

SpanId TraceIdFor(std::string_view system, std::string_view query);
SpanId WindowSpanId(SpanId trace, int64_t recurrence);
SpanId PhaseSpanId(SpanId window_span, std::string_view job,
                   int64_t occurrence, std::string_view kind);
SpanId TaskSpanId(SpanId trace, int64_t task, int64_t attempt);
SpanId CacheOpSpanId(SpanId trace, std::string_view event_type,
                     std::string_view key, int64_t occurrence);
SpanId PaneSpanId(SpanId trace, int64_t source, int64_t pane,
                  int64_t built_window);
SpanId FailureSpanId(SpanId trace, int64_t node, int64_t occurrence);

/// The serializable propagation context threaded through TelemetryScope
/// into the drivers, schedulers, job runner, and cache layers. Designed to
/// cross a process boundary: Serialize() renders the full context as one
/// flat token a remote worker can Parse() back, so the future
/// multi-process backend inherits propagation by shipping the string in
/// its task envelope.
struct TraceContext {
  SpanId trace_id = 0;
  /// The current enclosing span (the open window while a recurrence runs).
  SpanId span_id = 0;
  int64_t window = -1;
  /// Head-sampling verdict for this window. Unsampled windows skip the
  /// per-event trace stamping (the measurable overhead); offline span
  /// reconstruction still works from the core events.
  bool sampled = true;

  bool active() const { return trace_id != 0; }

  /// "redoop-trace/<trace16>/<span16>/<window>/<s|u>".
  std::string Serialize() const;
  /// Parses a Serialize() token. Returns false (and leaves `out`
  /// untouched) on any malformed input.
  static bool Parse(std::string_view token, TraceContext* out);

  /// Child context for a sub-span (same trace/window/sampling, new parent).
  TraceContext Child(SpanId child_span) const {
    TraceContext c = *this;
    c.span_id = child_span;
    return c;
  }
};

}  // namespace trace
}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_TRACE_TRACE_CONTEXT_H_
