#ifndef REDOOP_OBS_TELEMETRY_SCOPE_H_
#define REDOOP_OBS_TELEMETRY_SCOPE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/observability.h"
#include "obs/trace/trace_context.h"

namespace redoop {
namespace obs {

/// Attribution-carrying facade over an ObservabilityContext. A scope binds
/// a query name (and optionally node / phase dimensions) once, interning
/// the label set up front; after that every metric call lands on BOTH the
/// global series and the labeled per-query series, and every journal event
/// is stamped with `query` (and the current `window`, see below) before
/// the caller's own fields. Components hold a scope by value — it is a
/// small copyable handle — so a driver can hand the same attribution to
/// its cache controller, stores, schedulers, and job runner.
///
/// Window attribution: metric series must not carry the unbounded window
/// dimension (cardinality rule, DESIGN §13), but journal events should.
/// The driver owns a `int64_t` current-recurrence cell and passes its
/// address; scopes read it at emit time, so one driver-side store per
/// recurrence attributes every event emitted underneath it. A null cell
/// (component used standalone) simply omits the field.
///
/// An inactive scope (default-constructed or null context) ignores metric
/// calls; Emit/EmitAt on an inactive scope is a programming error
/// (checked), matching the `if (obs_ != nullptr)` guards the scope
/// replaces.
class TelemetryScope {
 public:
  TelemetryScope() = default;
  /// Unattributed scope: global series only, no event stamping. The
  /// drop-in equivalent of passing a bare ObservabilityContext*.
  explicit TelemetryScope(ObservabilityContext* obs) : obs_(obs) {}
  /// Query-attributed scope. `window_cell` and `trace_cell`, when
  /// non-null, must outlive the scope and every copy of it (driver-owned
  /// members). `trace_cell` points at the driver's current TraceContext:
  /// while it is active and sampled, every event emitted through this
  /// scope (and all copies) is stamped with the trace id and enclosing
  /// span id, which is how trace propagation reaches the schedulers,
  /// runner, and cache layers without any of them knowing about tracing.
  TelemetryScope(ObservabilityContext* obs, std::string query,
                 const int64_t* window_cell = nullptr,
                 const trace::TraceContext* trace_cell = nullptr);

  /// Derived scope with the node / phase dimension added (re-interns the
  /// extended label set; query and window plumbing are inherited).
  TelemetryScope WithNode(int32_t node) const;
  TelemetryScope WithPhase(std::string phase) const;

  bool active() const { return obs_ != nullptr; }
  ObservabilityContext* obs() const { return obs_; }
  const std::string& query() const { return labels_.query; }
  /// Current recurrence from the driver's window cell, -1 when unset.
  int64_t window() const {
    return window_cell_ != nullptr ? *window_cell_ : -1;
  }
  /// The driver's trace-context cell (null for untraced scopes). Callers
  /// that create child spans (JobRunner task envelopes) read it here.
  const trace::TraceContext* trace() const { return trace_cell_; }

  double Now() const { return obs_ != nullptr ? obs_->Now() : 0.0; }

  /// Journal emission with attribution stamped ahead of caller fields.
  /// Requires an active scope. Const: a scope is an immutable handle;
  /// writes go to the shared context it points at.
  Event& Emit(std::string_view type) const;
  Event& EmitAt(double time, std::string_view type) const;

  /// Metric writes: global series + labeled series (when attributed).
  /// No-ops on an inactive scope.
  void Increment(std::string_view name, int64_t delta = 1) const;
  void SetGauge(std::string_view name, double value) const;
  void AddGauge(std::string_view name, double delta) const;
  void Record(std::string_view name, double value) const;

 private:
  TelemetryScope(ObservabilityContext* obs, LabelSet labels,
                 const int64_t* window_cell,
                 const trace::TraceContext* trace_cell);

  ObservabilityContext* obs_ = nullptr;
  LabelSet labels_;
  LabelId label_id_ = kNoLabels;
  const int64_t* window_cell_ = nullptr;
  const trace::TraceContext* trace_cell_ = nullptr;
};

}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_TELEMETRY_SCOPE_H_
