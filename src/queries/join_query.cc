#include "queries/join_query.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_utils.h"

namespace redoop {

void JoinTaggingMapper::Map(const Record& record,
                            MapContext* context) const {
  std::string tagged;
  tagged.reserve(record.value.size() + 2);
  tagged.push_back(tag_);
  tagged.push_back('|');
  tagged.append(record.value);
  // The shuffled tuple carries (almost) the whole sensor reading — joins
  // project little away, which is why the paper's join is reduce-heavy.
  context->Emit(record.key, std::move(tagged),
                std::max<int32_t>(32, record.logical_bytes));
}

void EquiJoinReducer::ReduceFlat(std::string_view key, const KvRange& values,
                                 ReduceContext* context) const {
  // Positions of each side's values within the group, in group order.
  std::vector<size_t> left;
  std::vector<size_t> right;
  for (size_t i = 0; i < values.size(); ++i) {
    const std::string_view value = values.value(i);
    REDOOP_CHECK(value.size() >= 2 && value[1] == '|')
        << "untagged join input: " << value;
    if (value[0] == 'L') {
      left.push_back(i);
    } else if (value[0] == 'R') {
      right.push_back(i);
    } else {
      REDOOP_LOG_FATAL << "unknown join tag in: " << value;
    }
  }
  std::string joined;
  for (const size_t l : left) {
    const std::string_view left_payload = values.value(l).substr(2);
    for (const size_t r : right) {
      const std::string_view right_payload = values.value(r).substr(2);
      joined.assign(left_payload);
      joined.push_back('&');
      joined.append(right_payload);
      // The emitted pair's simulated size reflects the concatenated
      // tuples, not just the short value strings: it keeps the join
      // columns of both (about half of each side's payload).
      context->Emit(key, joined,
                    (values.logical_bytes(l) + values.logical_bytes(r)) / 2);
    }
  }
}

RecurringQuery MakeJoinQuery(QueryId id, const std::string& name,
                             SourceId left_source, SourceId right_source,
                             Timestamp win, Timestamp slide,
                             int32_t num_reducers) {
  RecurringQuery query;
  query.id = id;
  query.name = name;
  query.pattern = IncrementalPattern::kPanePairJoin;
  query.config.name = name;
  // config.mapper is a fallback; both sources get explicit tagging mappers.
  query.config.mapper = std::make_shared<const JoinTaggingMapper>('L');
  query.config.reducer = std::make_shared<const EquiJoinReducer>();
  query.config.num_reducers = num_reducers;
  // The side tag a source's mapper emits depends on which join side the
  // source is on, so the signature pins the (left, right) assignment.
  query.pipeline_signature = StringPrintf("join:v1:r%d:L%d:R%d", num_reducers,
                                          left_source, right_source);
  query.source_mappers[left_source] =
      std::make_shared<const JoinTaggingMapper>('L');
  query.source_mappers[right_source] =
      std::make_shared<const JoinTaggingMapper>('R');
  QuerySource left;
  left.id = left_source;
  left.name = StringPrintf("S%d", left_source);
  left.window = WindowSpec{win, slide};
  QuerySource right;
  right.id = right_source;
  right.name = StringPrintf("S%d", right_source);
  right.window = WindowSpec{win, slide};
  query.sources.push_back(left);
  query.sources.push_back(right);
  return query;
}

}  // namespace redoop
