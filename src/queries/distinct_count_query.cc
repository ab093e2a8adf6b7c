#include "queries/distinct_count_query.h"

#include <algorithm>
#include <set>

#include "common/string_utils.h"

namespace redoop {

namespace {
/// Splits a "a|b|c" partial into its elements (empty string -> none).
void AddElements(std::string_view serialized, std::set<std::string>* out) {
  size_t start = 0;
  while (start < serialized.size()) {
    size_t end = serialized.find('|', start);
    if (end == std::string_view::npos) end = serialized.size();
    if (end > start) out->emplace(serialized.substr(start, end - start));
    start = end + 1;
  }
}

/// The set of elements across every partial in `values`.
std::set<std::string> ElementsOf(const KvRange& values) {
  std::set<std::string> elements;
  for (size_t i = 0; i < values.size(); ++i) {
    AddElements(values.value(i), &elements);
  }
  return elements;
}

std::string SerializeElements(const std::set<std::string>& elements) {
  std::string out;
  for (const std::string& e : elements) {
    if (!out.empty()) out.push_back('|');
    out.append(e);
  }
  return out;
}
}  // namespace

void DistinctElementMapper::Map(const Record& record,
                                MapContext* context) const {
  // The element is the first comma-separated field of the value (the
  // object id in the WCC schema).
  const size_t pos = record.value.find(',');
  std::string element =
      pos == std::string::npos ? record.value : record.value.substr(0, pos);
  context->Emit(record.key, std::move(element),
                std::max<int32_t>(32, record.logical_bytes / 8));
}

void DistinctSetReducer::ReduceFlat(std::string_view key,
                                    const KvRange& values,
                                    ReduceContext* context) const {
  const std::string serialized = SerializeElements(ElementsOf(values));
  const int32_t bytes =
      std::max<int32_t>(32, static_cast<int32_t>(serialized.size()) + 8);
  context->Emit(key, serialized, bytes);
}

void DistinctCountFinalizer::ReduceFlat(std::string_view key,
                                        const KvRange& values,
                                        ReduceContext* context) const {
  context->Emit(key, StringPrintf("%zu", ElementsOf(values).size()));
}

RecurringQuery MakeDistinctCountQuery(QueryId id, const std::string& name,
                                      SourceId source, Timestamp win,
                                      Timestamp slide, int32_t num_reducers) {
  RecurringQuery query;
  query.id = id;
  query.name = name;
  query.pattern = IncrementalPattern::kPerPaneMerge;
  query.config.name = name;
  query.config.mapper = std::make_shared<const DistinctElementMapper>();
  query.config.reducer = std::make_shared<const DistinctSetReducer>();
  query.finalizer = std::make_shared<const DistinctCountFinalizer>();
  query.config.num_reducers = num_reducers;
  query.pipeline_signature = StringPrintf("distinct:v1:r%d", num_reducers);
  QuerySource qs;
  qs.id = source;
  qs.name = StringPrintf("S%d", source);
  qs.window = WindowSpec{win, slide};
  query.sources.push_back(qs);
  return query;
}

}  // namespace redoop
