#ifndef REDOOP_QUERIES_THRESHOLD_ALERT_QUERY_H_
#define REDOOP_QUERIES_THRESHOLD_ALERT_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/recurring_query.h"

namespace redoop {

/// Finalizer for the threshold-alert query: merges the per-pane partial
/// aggregates of a key and emits an alert row only when the key's total
/// count within the window exceeds the threshold. This is a genuine
/// *finalization* function (paper §5): it differs from the reduce body, so
/// it runs only at window assembly time — per-pane partials must stay
/// unfiltered or counts split across panes would be lost.
class ThresholdAlertFinalizer : public Reducer {
 public:
  explicit ThresholdAlertFinalizer(int64_t min_count);

  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override;

 private:
  int64_t min_count_;
};

/// Builds a recurring "hot key" alert: every `slide` seconds, report every
/// key that appeared more than `min_count` times in the last `win` seconds
/// (e.g. clients hammering a site, cells with anomalous sensor density).
/// Pattern kPerPaneMerge with a custom finalizer; the plain-Hadoop
/// baseline runs the composition reduce-then-finalize in its single job.
RecurringQuery MakeThresholdAlertQuery(QueryId id, const std::string& name,
                                       SourceId source, Timestamp win,
                                       Timestamp slide, int32_t num_reducers,
                                       int64_t min_count);

}  // namespace redoop

#endif  // REDOOP_QUERIES_THRESHOLD_ALERT_QUERY_H_
