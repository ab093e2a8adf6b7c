#include "obs/telemetry_scope.h"

#include "common/logging.h"

namespace redoop {
namespace obs {

TelemetryScope::TelemetryScope(ObservabilityContext* obs, std::string query,
                               const int64_t* window_cell)
    : obs_(obs), query_(std::move(query)), window_cell_(window_cell) {
  // The query becomes a series label (`name{query=...}`); keep encoded
  // names parseable.
  for (char c : query_) {
    REDOOP_CHECK(c != '{' && c != '}' && c != ',' && c != '=' && c != '"' &&
                 c != '\n' && c != '\r')
        << "label value for 'query' contains a reserved character: "
        << query_;
  }
}

Event& TelemetryScope::Emit(std::string_view type) const {
  return EmitAt(Now(), type);
}

Event& TelemetryScope::EmitAt(double time, std::string_view type) const {
  REDOOP_CHECK(obs_ != nullptr) << "Emit through an inactive TelemetryScope";
  Event& e = obs_->EmitAt(time, type);
  if (!query_.empty()) e.With("query", query_);
  const int64_t w = window();
  if (w >= 0) e.With("window", w);
  return e;
}

}  // namespace obs
}  // namespace redoop
