#ifndef REDOOP_QUERIES_DISTINCT_COUNT_QUERY_H_
#define REDOOP_QUERIES_DISTINCT_COUNT_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/recurring_query.h"

namespace redoop {

/// Mapper: emits (group key, element) — e.g. (client, object) for "how
/// many distinct objects did each client touch in the window".
class DistinctElementMapper : public Mapper {
 public:
  void Map(const Record& record, MapContext* context) const override;
};

/// Reducer: the per-pane partial is the *sorted set* of distinct elements,
/// serialized "a|b|c". Set union is a semigroup, so merging pane partials
/// equals deduplicating the whole window — the property kPerPaneMerge
/// needs. (Exact distinct counting is inherently linear-state; the partial
/// carries the set, not a counter.)
class DistinctSetReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override;
};

/// Finalizer: collapses the merged element set into its cardinality.
class DistinctCountFinalizer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override;
};

/// Builds a recurring exact distinct-count query: every `slide` seconds,
/// the number of distinct elements per key over the last `win` seconds.
RecurringQuery MakeDistinctCountQuery(QueryId id, const std::string& name,
                                      SourceId source, Timestamp win,
                                      Timestamp slide, int32_t num_reducers);

}  // namespace redoop

#endif  // REDOOP_QUERIES_DISTINCT_COUNT_QUERY_H_
