#ifndef REDOOP_OBS_EVENT_JOURNAL_H_
#define REDOOP_OBS_EVENT_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace redoop {
namespace obs {

class EventStore;

/// One typed key/value field of an event: a trivially copyable 24-byte
/// record of an interned key, the kind, and an 8-byte payload. A string
/// payload is a view of bytes owned by the store of the event's journal
/// (or of a standalone event). Field order is insertion order, which keeps
/// serialized journals deterministic.
struct EventField {
  enum class Kind : uint8_t { kString, kInt, kDouble };

  std::string_view key() const { return *key_; }
  /// The string payload; empty for numeric fields.
  std::string_view str() const {
    return kind == Kind::kString ? std::string_view(chars, length_)
                                 : std::string_view();
  }

 private:
  friend class Event;
  const std::string* key_ = nullptr;  ///< Interned by the owning store.
  uint32_t length_ = 0;               ///< kString: bytes at `chars`.

 public:
  Kind kind = Kind::kString;
  union {
    int64_t i64 = 0;    ///< kInt payload.
    double f64;         ///< kDouble payload.
    const char* chars;  ///< kString payload; read it through str().
  };
};
static_assert(sizeof(EventField) <= 24);
static_assert(std::is_trivially_copyable_v<EventField>);

/// A structured, sim-timestamped decision record. Built fluently:
///
///   journal.Append(now, event::kCacheAdd)
///       .With("name", sig.name).With("node", sig.node)
///       .With("bytes", sig.bytes);
///
/// Serialized as one JSON object per line:
///   {"t":123.456000,"type":"cache.add","name":"...","node":3,...}
///
/// An event's fields sit next to each other in chunked storage owned by
/// its journal, so an Append and its .With chain make no per-field heap
/// allocation. A standalone event (constructed directly) owns a private
/// store. Events are move-only.
class Event {
 public:
  Event(double time, std::string_view type);
  Event(Event&&) noexcept;
  Event& operator=(Event&&) noexcept;
  ~Event();

  Event& With(std::string_view key, std::string_view value);
  Event& With(std::string_view key, const char* value) {
    return With(key, std::string_view(value));
  }
  Event& With(std::string_view key, const std::string& value) {
    return With(key, std::string_view(value));
  }
  Event& With(std::string_view key, double value);
  template <typename T,
            std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Event& With(std::string_view key, T value) {
    return WithInt(key, static_cast<int64_t>(value));
  }

  double time() const { return time_; }
  const std::string& type() const { return *type_; }
  std::span<const EventField> fields() const { return {fields_, size_}; }

  /// Field lookup helpers for consumers (trace reconstruction, tests).
  const EventField* Find(std::string_view key) const;
  int64_t IntOr(std::string_view key, int64_t fallback) const;
  double DoubleOr(std::string_view key, double fallback) const;
  std::string StrOr(std::string_view key, std::string_view fallback) const;

  /// One JSON object, no trailing newline. Doubles are printed with %.6f
  /// (time) / %.6g (fields); both are stable under parse → re-serialize.
  std::string ToJson() const;

 private:
  friend class EventJournal;
  friend class EventStore;

  /// ToJson, appended to `out`.
  void AppendJson(std::string* out) const;

  /// A journal event: fields go to the journal's `store`.
  Event(double time, std::string_view type, EventStore* store);

  Event& WithInt(std::string_view key, int64_t value);
  /// Appends a field with `key` (and, for kString, a copy of `chars` in
  /// the store); returns it for the caller to set a numeric payload.
  EventField& Add(std::string_view key, EventField::Kind kind,
                  std::string_view chars = {});

  double time_ = 0.0;
  const std::string* type_ = nullptr;  ///< Interned by store_.
  EventField* fields_ = nullptr;
  uint32_t size_ = 0;
  /// Oldest store chunk holding any of this event's fields or strings.
  uint32_t chunk_ = 0;
  EventStore* store_ = nullptr;
  std::unique_ptr<EventStore> own_store_;  ///< Standalone events only.
};

/// Append-only journal of Events, exported as JSONL. Determinism comes
/// from append order plus fixed-format serialization.
///
/// Flight-recorder mode: SetRetentionBudget(bytes) bounds the journal to
/// a fixed serialized-byte budget. When a new Append would exceed it, the
/// oldest events are evicted (ring-buffer semantics) and counted in
/// dropped_events()/dropped_bytes(). A truncated journal serializes with
/// a leading "journal.truncated" marker line carrying those counters;
/// Parse recognizes the marker and restores the counters instead of
/// storing it as an event, so parse -> serialize stays the identity for
/// truncated journals too. Eviction is deterministic: it depends only on
/// the byte sizes and fields of the serialized events, which are
/// themselves deterministic. Memory follows the retained events: their
/// fields and strings live in fixed-size storage chunks, and a chunk is
/// released once eviction has dropped every event pointing into it.
///
/// Spans evict atomically: when eviction drops a span-begin event
/// (window.open, job.start, task.start), the matching end event
/// (window.complete, job.finish, task.finish/task.fail) is dropped with
/// it — immediately if already journaled, or the moment it is sealed if
/// it arrives later — and charged to the same truncation counters. A
/// retained journal therefore never contains an end without its begin,
/// so span reconstruction sees whole spans or nothing.
///
/// Single-writer contract (asserted): every Append must come from the one
/// thread that owns the journal — the simulator thread. The first Append
/// after construction, Clear(), or Parse pins the writing thread; an
/// Append from any other thread REDOOP_CHECK-fails. The parallel task
/// engine preserves this by emitting only from event-loop join points;
/// worker threads never touch the journal, so the drain stays a single
/// deterministic stream.
class EventJournal {
 public:
  /// Size of one storage chunk: the granularity at which a flight
  /// recorder hands event storage back.
  static constexpr size_t kStorageChunkBytes = 16 * 1024;

  EventJournal();
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;
  EventJournal(EventJournal&&) noexcept;
  EventJournal& operator=(EventJournal&&) noexcept;
  ~EventJournal();

  /// Common fields are prepended (in registration order) to every event
  /// appended afterwards — e.g. system=redoop for multi-system CLI runs.
  void SetCommonField(std::string key, std::string value);

  /// The registered common-field value for `key`, or `fallback` when no
  /// such registration exists (used by emitters that need to derive the
  /// trace id from the same "system" label the journal stamps).
  std::string CommonFieldOr(std::string_view key,
                            std::string_view fallback) const;

  /// Appends an event and returns it for fluent .With(...) chaining. The
  /// reference is valid until the next Append. With a retention budget
  /// set, the previous event's size is sealed here and the oldest events
  /// are evicted while the sealed bytes exceed the budget (the newest
  /// event is always retained). An unbounded journal seals nothing, so it
  /// never serializes an event on Append.
  Event& Append(double time, std::string_view type);

  /// Caps retained serialized bytes; <= 0 (the default) means unbounded.
  /// May be set or changed at any point before or between Appends (same
  /// single-writer thread). Setting a budget seals the events appended
  /// while unbounded (all but the newest) in one pass; shrinking the
  /// budget evicts on the next Append.
  void SetRetentionBudget(int64_t max_bytes);
  int64_t retention_budget() const { return retention_budget_; }
  /// Events / serialized bytes evicted by the retention budget so far
  /// (or restored from a parsed "journal.truncated" marker).
  int64_t dropped_events() const { return dropped_events_; }
  int64_t dropped_bytes() const { return dropped_bytes_; }

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const std::deque<Event>& events() const { return events_; }
  size_t CountType(std::string_view type) const;

  /// Heap bytes held for the retained events: the storage chunks (their
  /// fields and string bytes), the per-event headers, and the interned
  /// keys and type names. Under a retention budget it stays bounded: a
  /// chunk is released once no retained event points into it.
  int64_t storage_bytes() const;

  std::string ToJsonl() const;
  Status WriteFile(const std::string& path) const;

  /// Parses journal text in the exact format ToJsonl emits (used by tests
  /// and by TraceWriter when re-loading a journal from disk). Not a general
  /// JSON parser: one object per line, flat string/number fields. A
  /// malformed or truncated line fails with its 1-based line number in the
  /// error message; nothing is silently skipped (blank lines excepted).
  /// On success `out` is replaced wholesale — events, common-field
  /// registrations, and writer pinning; on failure it is cleared. Parsed
  /// lines are never restamped with `out`'s common fields (they carry
  /// theirs inline), so parse -> serialize is the identity through any
  /// journal. Must not target a journal another thread is appending to.
  static Status Parse(std::string_view jsonl, EventJournal* out);

  /// Reads `path` and parses it with Parse. Parse errors carry the line
  /// number; I/O errors carry the path. Same aliasing/threading contract
  /// as Parse: never load into a journal a live ObservabilityContext is
  /// still writing.
  static Status LoadFile(const std::string& path, EventJournal* out);

  /// Drops all events, resets the truncation counters, and unpins the
  /// writer thread (the next Append may come from a different thread).
  /// Common fields and the retention budget survive.
  void Clear();

 private:
  /// Seals the size of the most recent event (its fluent .With chain is
  /// complete once the next Append or a serialization happens) and evicts
  /// from the front while over budget.
  void SealAndEvict();

  /// Fields, string bytes and interned names of events_. Held on the heap
  /// so events stay valid when the journal moves.
  std::unique_ptr<EventStore> store_;
  std::deque<Event> events_;
  std::vector<std::pair<std::string, std::string>> common_fields_;
  /// Serialized size of each sealed event; parallel prefix of events_
  /// (the newest event is unsealed until the next Append). Filled only
  /// while a retention budget applies.
  std::deque<int64_t> sealed_sizes_;
  int64_t sealed_bytes_ = 0;
  int64_t retention_budget_ = 0;  ///< <= 0: unbounded.
  int64_t dropped_events_ = 0;
  int64_t dropped_bytes_ = 0;
  /// Span keys whose begin event was evicted before the matching end was
  /// journaled; the end is dropped at seal time when it arrives. A later
  /// begin with the same key clears the entry (the key now names a new,
  /// fully retained span).
  std::set<std::string> pending_orphan_ends_;
  /// Writer pin for the single-writer assertion; default id = unpinned.
  std::thread::id writer_;
};

/// Event type names. Keeping them in one place documents the schema and
/// guards against drift between emitters, tests, and trace reconstruction.
namespace event {

// Cache decisions (window-aware cache controller + local stores).
inline constexpr const char* kCacheAdd = "cache.add";
inline constexpr const char* kCacheEvict = "cache.evict";
inline constexpr const char* kCacheInvalidate = "cache.invalidate";
inline constexpr const char* kCacheRebuild = "cache.rebuild";
inline constexpr const char* kCachePurge = "cache.purge";
inline constexpr const char* kCachePaneHit = "cache.pane.hit";
inline constexpr const char* kCachePaneMiss = "cache.pane.miss";
// A budget eviction removed a resident pane payload from the CacheStore
// (the cell flips back to recompute; lifespan expiry stays cache.evict).
inline constexpr const char* kCachePaneEvict = "cache.pane.evict";
inline constexpr const char* kCachePairHit = "cache.pair.hit";
inline constexpr const char* kCachePairMiss = "cache.pair.miss";

// Pane readiness transitions (ready bit 0 -> 1 -> 2, paper §4.2).
inline constexpr const char* kPaneReady = "pane.ready";
// Cache-status-matrix transitions (join pair bookkeeping, paper §4.3).
inline constexpr const char* kMatrixDone = "matrix.done";
inline constexpr const char* kMatrixShift = "matrix.shift";

// Scheduler decisions.
inline constexpr const char* kSchedAssign = "sched.assign";

// Profiler prediction vs. actual (Holt forecast, paper §4.4).
inline constexpr const char* kProfilerObserve = "profiler.observe";

// DFS activity.
inline constexpr const char* kDfsRead = "dfs.read";
inline constexpr const char* kDfsFileCreate = "dfs.file.create";
inline constexpr const char* kDfsFileDelete = "dfs.file.delete";
inline constexpr const char* kDfsNodeFailed = "dfs.node.failed";

// Task attempt lifecycle. task.start / task.finish form a span pair keyed
// by the "task" field; the winning attempt's finish carries the per-phase
// timing breakdown and the slot-wait ("wait") duration.
inline constexpr const char* kTaskStart = "task.start";
inline constexpr const char* kTaskFinish = "task.finish";
inline constexpr const char* kTaskFail = "task.fail";
inline constexpr const char* kTaskSpeculate = "task.speculate";
inline constexpr const char* kJobStart = "job.start";
inline constexpr const char* kJobFinish = "job.finish";

// Recurring-window lifecycle.
inline constexpr const char* kWindowOpen = "window.open";
inline constexpr const char* kWindowTrigger = "window.trigger";
inline constexpr const char* kWindowComplete = "window.complete";

// Fleet serving (multi-tenant coordinator, DESIGN §17): admission of a
// recurrence by the fair-share queue, a shared-scan read with its hit /
// miss split, adoption of a deduplicated pane image built by another
// query, and the rollback fan-out when a shared image is evicted.
inline constexpr const char* kFleetAdmit = "fleet.admit";
inline constexpr const char* kFleetScan = "fleet.scan";
inline constexpr const char* kFleetAdopt = "fleet.pane.adopt";
inline constexpr const char* kFleetEvictFanout = "fleet.pane.evict_fanout";

// Head-sampling promotion: an unsampled window that violated its SLO
// deadline is retroactively sampled (always-sample-on-SLO-violation);
// carries query/recurrence/reason.
inline constexpr const char* kTraceSample = "trace.sample";

// Synthetic marker line a truncated flight-recorder journal leads with;
// carries dropped_events / dropped_bytes. Never stored as an event:
// ToJsonl synthesizes it, Parse folds it back into the journal counters.
inline constexpr const char* kJournalTruncated = "journal.truncated";

}  // namespace event

}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_EVENT_JOURNAL_H_
