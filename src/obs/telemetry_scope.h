#ifndef REDOOP_OBS_TELEMETRY_SCOPE_H_
#define REDOOP_OBS_TELEMETRY_SCOPE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/observability.h"

namespace redoop {
namespace obs {

/// Attribution-carrying facade over an ObservabilityContext. A scope binds
/// a query name once; every journal event emitted through it is stamped
/// with `query` (and the current `window`, see below) before the caller's
/// own fields. The metrics fold reads that `query` field to keep a labeled
/// series per query (DESIGN §13), so a scope has no metric methods of its
/// own. Components hold a scope by value — it is a small copyable handle —
/// so a driver can hand the same attribution to its cache controller,
/// stores, schedulers, and job runner.
///
/// Window attribution: metric series must not carry the unbounded window
/// dimension (cardinality rule, DESIGN §13), but journal events should.
/// The driver owns a `int64_t` current-recurrence cell and passes its
/// address; scopes read it at emit time, so one driver-side store per
/// recurrence attributes every event emitted underneath it. A null cell
/// (component used standalone) simply omits the field.
///
/// Emit/EmitAt on an inactive scope (default-constructed or null context)
/// is a programming error (checked); callers guard with active().
class TelemetryScope {
 public:
  TelemetryScope() = default;
  /// Unattributed scope: no event stamping. The drop-in equivalent of
  /// passing a bare ObservabilityContext*.
  explicit TelemetryScope(ObservabilityContext* obs) : obs_(obs) {}
  /// Query-attributed scope. `query` may not contain '{', '}', ',', '=',
  /// '"' or a newline (checked), so labeled series names stay parseable.
  /// `window_cell`, when non-null, must outlive the scope and every copy
  /// of it (a driver-owned member).
  TelemetryScope(ObservabilityContext* obs, std::string query,
                 const int64_t* window_cell = nullptr);

  bool active() const { return obs_ != nullptr; }
  ObservabilityContext* obs() const { return obs_; }
  const std::string& query() const { return query_; }
  /// Current recurrence from the driver's window cell, -1 when unset.
  int64_t window() const {
    return window_cell_ != nullptr ? *window_cell_ : -1;
  }

  double Now() const { return obs_ != nullptr ? obs_->Now() : 0.0; }

  /// Journal emission with attribution stamped ahead of caller fields.
  /// Requires an active scope. Const: a scope is an immutable handle;
  /// writes go to the shared context it points at.
  Event& Emit(std::string_view type) const;
  Event& EmitAt(double time, std::string_view type) const;

 private:
  ObservabilityContext* obs_ = nullptr;
  std::string query_;
  const int64_t* window_cell_ = nullptr;
};

}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_TELEMETRY_SCOPE_H_
