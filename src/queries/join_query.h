#ifndef REDOOP_QUERIES_JOIN_QUERY_H_
#define REDOOP_QUERIES_JOIN_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/recurring_query.h"

namespace redoop {

/// Mapper for one side of a repartition equi-join: emits
/// (key, "<tag>|<value>") so the reducer can separate the sides.
class JoinTaggingMapper : public Mapper {
 public:
  explicit JoinTaggingMapper(char tag) : tag_(tag) {}

  void Map(const Record& record, MapContext* context) const override;

 private:
  char tag_;
};

/// Reducer of a repartition equi-join: splits a key group by side tag and
/// emits one pair per (left, right) combination:
/// (key, "<left-payload>&<right-payload>"). Per-pair emission makes the
/// join decomposable over pane pairs (union over pane pairs == whole-window
/// join), which is what Redoop's kPanePairJoin pattern requires.
class EquiJoinReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override;
};

/// Builds the paper's recurring binary join query (Fig. 7 workload):
/// windowed equi-join of two sensor sources on the field grid cell.
RecurringQuery MakeJoinQuery(QueryId id, const std::string& name,
                             SourceId left_source, SourceId right_source,
                             Timestamp win, Timestamp slide,
                             int32_t num_reducers);

}  // namespace redoop

#endif  // REDOOP_QUERIES_JOIN_QUERY_H_
