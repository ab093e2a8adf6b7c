#include "core/metrics.h"

#include "obs/slo/slo_tracker.h"

namespace redoop {

namespace {
bool Less(const KeyValue& a, const KeyValue& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.value < b.value;
}

bool Same(const KeyValue& a, const KeyValue& b) {
  return a.key == b.key && a.value == b.value;
}
}  // namespace

WindowDelta ComputeWindowDelta(const std::vector<KeyValue>& previous,
                               const std::vector<KeyValue>& current) {
  WindowDelta delta;
  size_t i = 0;
  size_t j = 0;
  while (i < previous.size() && j < current.size()) {
    if (Same(previous[i], current[j])) {
      ++i;
      ++j;
    } else if (Less(previous[i], current[j])) {
      delta.removed.push_back(previous[i]);
      ++i;
    } else {
      delta.added.push_back(current[j]);
      ++j;
    }
  }
  for (; i < previous.size(); ++i) delta.removed.push_back(previous[i]);
  for (; j < current.size(); ++j) delta.added.push_back(current[j]);
  return delta;
}

obs::MetricsSnapshot RunObservability(const obs::ObservabilityContext& obs) {
  obs::MetricsSnapshot snapshot = obs.Snapshot();
  obs::analysis::AnalysisOptions slo_options;
  slo_options.group_by_query = true;
  obs::slo::ExportTo(obs::slo::ComputeSlo(obs.journal(), slo_options),
                     &snapshot);
  return snapshot;
}

}  // namespace redoop
