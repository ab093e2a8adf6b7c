#ifndef REDOOP_OBS_TRACE_TRACE_ID_H_
#define REDOOP_OBS_TRACE_TRACE_ID_H_

// Deterministic causal-trace identifiers.
//
// Every span ID is derived by hashing a canonical string built from
// content the journal already records deterministically (query name,
// recurrence number, task id, cache name, ...). Because the journal is
// byte-identical at any --threads setting, so is every ID derived from
// it — span IDs never depend on allocation order, wall clocks, or thread
// interleaving. Nothing stamps IDs into events: the offline span builder
// derives them from the journal's own fields.

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

/// 16 lowercase hex chars, the JSON rendering of an id.
std::string IdHex(SpanId id);

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

}  // namespace trace
}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_TRACE_TRACE_ID_H_
