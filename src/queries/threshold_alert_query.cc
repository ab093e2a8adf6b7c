#include "queries/threshold_alert_query.h"

#include "common/logging.h"
#include "common/string_utils.h"
#include "queries/aggregation_query.h"

namespace redoop {

ThresholdAlertFinalizer::ThresholdAlertFinalizer(int64_t min_count)
    : min_count_(min_count) {
  REDOOP_CHECK(min_count >= 0);
}

void ThresholdAlertFinalizer::ReduceFlat(std::string_view key,
                                         const KvRange& values,
                                         ReduceContext* context) const {
  AggregateValue total;
  for (size_t i = 0; i < values.size(); ++i) {
    total.Merge(AggregateValue::Parse(values.value(i)));
  }
  if (total.count <= min_count_) return;
  context->Emit(key, StringPrintf("ALERT count=%ld sum=%ld", total.count,
                                  total.sum));
}

RecurringQuery MakeThresholdAlertQuery(QueryId id, const std::string& name,
                                       SourceId source, Timestamp win,
                                       Timestamp slide, int32_t num_reducers,
                                       int64_t min_count) {
  RecurringQuery query =
      MakeAggregationQuery(id, name, source, win, slide, num_reducers);
  // Keeps the aggregation pipeline_signature: the alert finalizer runs at
  // window assembly only, so cached panes are byte-identical to a plain
  // aggregation's and the two query kinds dedup against each other.
  query.finalizer = std::make_shared<const ThresholdAlertFinalizer>(min_count);
  return query;
}

}  // namespace redoop
