#include "obs/telemetry_scope.h"

#include "common/logging.h"

namespace redoop {
namespace obs {

TelemetryScope::TelemetryScope(ObservabilityContext* obs, std::string query,
                               const int64_t* window_cell,
                               const trace::TraceContext* trace_cell)
    : obs_(obs), window_cell_(window_cell), trace_cell_(trace_cell) {
  labels_.query = std::move(query);
  if (obs_ != nullptr && !labels_.empty()) {
    label_id_ = obs_->metrics().InternLabels(labels_);
  }
}

TelemetryScope::TelemetryScope(ObservabilityContext* obs, LabelSet labels,
                               const int64_t* window_cell,
                               const trace::TraceContext* trace_cell)
    : obs_(obs),
      labels_(std::move(labels)),
      window_cell_(window_cell),
      trace_cell_(trace_cell) {
  if (obs_ != nullptr && !labels_.empty()) {
    label_id_ = obs_->metrics().InternLabels(labels_);
  }
}

TelemetryScope TelemetryScope::WithNode(int32_t node) const {
  LabelSet labels = labels_;
  labels.node = node;
  return TelemetryScope(obs_, std::move(labels), window_cell_, trace_cell_);
}

TelemetryScope TelemetryScope::WithPhase(std::string phase) const {
  LabelSet labels = labels_;
  labels.phase = std::move(phase);
  return TelemetryScope(obs_, std::move(labels), window_cell_, trace_cell_);
}

Event& TelemetryScope::Emit(std::string_view type) const {
  return EmitAt(Now(), type);
}

Event& TelemetryScope::EmitAt(double time, std::string_view type) const {
  REDOOP_CHECK(obs_ != nullptr) << "Emit through an inactive TelemetryScope";
  Event& e = obs_->EmitAt(time, type);
  if (!labels_.query.empty()) e.With("query", labels_.query);
  const int64_t w = window();
  if (w >= 0) e.With("window", w);
  if (trace_cell_ != nullptr && trace_cell_->active() &&
      trace_cell_->sampled) {
    // With copies the chars, so one stack buffer serves both stamps.
    char hex[trace::kIdHexChars];
    e.With("trace", std::string_view(
                        hex, trace::WriteIdHex(trace_cell_->trace_id, hex)));
    e.With("pspan", std::string_view(
                        hex, trace::WriteIdHex(trace_cell_->span_id, hex)));
  }
  return e;
}

void TelemetryScope::Increment(std::string_view name, int64_t delta) const {
  if (obs_ == nullptr) return;
  obs_->metrics().Increment(name, delta);
  if (label_id_ != kNoLabels) {
    obs_->metrics().Increment(name, label_id_, delta);
  }
}

void TelemetryScope::SetGauge(std::string_view name, double value) const {
  if (obs_ == nullptr) return;
  obs_->metrics().SetGauge(name, value);
  if (label_id_ != kNoLabels) {
    obs_->metrics().SetGauge(name, label_id_, value);
  }
}

void TelemetryScope::AddGauge(std::string_view name, double delta) const {
  if (obs_ == nullptr) return;
  obs_->metrics().AddGauge(name, delta);
  if (label_id_ != kNoLabels) {
    obs_->metrics().AddGauge(name, label_id_, delta);
  }
}

void TelemetryScope::Record(std::string_view name, double value) const {
  if (obs_ == nullptr) return;
  obs_->metrics().Record(name, value);
  if (label_id_ != kNoLabels) {
    obs_->metrics().Record(name, label_id_, value);
  }
}

}  // namespace obs
}  // namespace redoop
