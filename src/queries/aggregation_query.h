#ifndef REDOOP_QUERIES_AGGREGATION_QUERY_H_
#define REDOOP_QUERIES_AGGREGATION_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/recurring_query.h"

namespace redoop {

/// A (count, sum, max) partial aggregate in its wire format
/// "count:sum:max". The format is a semigroup: merging partials with
/// AggregateValue::Merge is exactly the reduce of the underlying records,
/// which is what lets Redoop merge per-pane partial outputs (pattern
/// kPerPaneMerge) and still match plain Hadoop's answers bit for bit.
struct AggregateValue {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;

  /// Longest wire value: three "-9223372036854775808" and two ':'.
  static constexpr size_t kMaxSerializedSize = 3 * 20 + 2;

  /// Reads "count:sum:max" exactly as sscanf("%ld:%ld:%ld") does; a value
  /// that is not three integers aborts ("malformed aggregate value").
  static AggregateValue Parse(std::string_view s);
  /// Writes "count:sum:max" (what printf("%ld:%ld:%ld") writes) into
  /// `buf` and returns a view of it, valid while `buf` is.
  std::string_view SerializeTo(char (&buf)[kMaxSerializedSize]) const;
  std::string Serialize() const {
    char buf[kMaxSerializedSize];
    return std::string(SerializeTo(buf));
  }
  void Merge(const AggregateValue& other);
};

/// Mapper: parses the numeric measure out of a record's value (the last
/// comma-separated field — response bytes for WCC, the last kinematic
/// component for FFG) and emits (key, "1:<v>:<v>").
class AggregationMapper : public Mapper {
 public:
  void Map(const Record& record, MapContext* context) const override;
};

/// Reducer: merges partial aggregates per key and re-emits the partial
/// format — associative and commutative, so it serves both as the per-pane
/// reducer and as the window finalizer.
class AggregationReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override;
};

/// Builds the paper's recurring aggregation query (Fig. 6 workload):
/// group-by-key (count, sum, max) over a single windowed source. With
/// `use_combiner` the reducer additionally runs as a map-side combiner
/// (the aggregate is a semigroup, so results are unchanged while shuffle
/// volume collapses).
RecurringQuery MakeAggregationQuery(QueryId id, const std::string& name,
                                    SourceId source, Timestamp win,
                                    Timestamp slide, int32_t num_reducers,
                                    bool use_combiner = false);

}  // namespace redoop

#endif  // REDOOP_QUERIES_AGGREGATION_QUERY_H_
