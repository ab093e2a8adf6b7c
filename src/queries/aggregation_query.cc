#include "queries/aggregation_query.h"

#include <algorithm>
#include <charconv>
#include <limits>

#include "common/logging.h"
#include "common/string_utils.h"

namespace redoop {

namespace {

/// Reads what sscanf's "%ld" reads at `*pos` — leading whitespace, an
/// optional sign, then decimal digits — and advances past it. Out-of-range
/// values clamp to INT64_MIN / INT64_MAX as glibc's strtol does. Returns
/// false, leaving `*out` alone, when no digits follow.
bool ScanInt64(std::string_view s, size_t* pos, int64_t* out) {
  size_t i = *pos;
  while (i < s.size() && (s[i] == ' ' || (s[i] >= '\t' && s[i] <= '\r'))) {
    ++i;
  }
  const bool negative = i < s.size() && s[i] == '-';
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
  uint64_t magnitude = 0;
  const auto [end, ec] =
      std::from_chars(s.data() + i, s.data() + s.size(), magnitude);
  if (ec == std::errc::invalid_argument) return false;
  constexpr uint64_t kMaxMagnitude = std::numeric_limits<int64_t>::max();
  if (ec == std::errc::result_out_of_range) {
    magnitude = std::numeric_limits<uint64_t>::max();
  }
  if (!negative) {
    *out = static_cast<int64_t>(std::min(magnitude, kMaxMagnitude));
  } else if (magnitude > kMaxMagnitude) {
    *out = std::numeric_limits<int64_t>::min();
  } else {
    *out = -static_cast<int64_t>(magnitude);
  }
  *pos = static_cast<size_t>(end - s.data());
  return true;
}

}  // namespace

AggregateValue AggregateValue::Parse(std::string_view s) {
  AggregateValue v;
  size_t pos = 0;
  const bool ok = ScanInt64(s, &pos, &v.count) && pos < s.size() &&
                  s[pos++] == ':' && ScanInt64(s, &pos, &v.sum) &&
                  pos < s.size() && s[pos++] == ':' &&
                  ScanInt64(s, &pos, &v.max);
  REDOOP_CHECK(ok) << "malformed aggregate value: " << s;
  return v;
}

std::string AggregateValue::Serialize() const {
  std::string out;
  for (const int64_t v : {count, sum, max}) {
    char digits[20];  // "-9223372036854775808" is the longest int64.
    if (!out.empty()) out += ':';
    out.append(digits, std::to_chars(digits, digits + sizeof(digits), v).ptr);
  }
  return out;
}

void AggregateValue::Merge(const AggregateValue& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

void AggregationMapper::Map(const Record& record,
                            MapContext* context) const {
  // The measure is the final comma-separated field of the value.
  const size_t comma = record.value.rfind(',');
  int64_t measure = 0;
  if (comma != std::string::npos) {
    // Tolerate non-integer tails (e.g. FFG's "-1.25") by reading the
    // leading integer part. A tail below INT64_MIN clamps there, whose
    // magnitude saturates to INT64_MAX instead of overflowing.
    size_t pos = comma + 1;
    ScanInt64(record.value, &pos, &measure);
    if (measure == std::numeric_limits<int64_t>::min()) {
      measure = std::numeric_limits<int64_t>::max();
    } else if (measure < 0) {
      measure = -measure;
    }
  }
  AggregateValue v;
  v.count = 1;
  v.sum = measure;
  v.max = measure;
  // The shuffled pair models a projection of the input tuple (group key +
  // carried dimensions), roughly a quarter of the raw record — the paper's
  // aggregation shuffles substantial volume (Fig. 6b) even though the
  // final aggregates are small.
  const int32_t projected_bytes =
      std::max<int32_t>(32, record.logical_bytes / 4);
  context->Emit(record.key, v.Serialize(), projected_bytes);
}

void AggregationReducer::Reduce(const std::string& key,
                                std::span<const KeyValue> values,
                                ReduceContext* context) const {
  AggregateValue total;
  for (const KeyValue& kv : values) {
    total.Merge(AggregateValue::Parse(kv.value));
  }
  context->Emit(key, total.Serialize());
}

RecurringQuery MakeAggregationQuery(QueryId id, const std::string& name,
                                    SourceId source, Timestamp win,
                                    Timestamp slide, int32_t num_reducers,
                                    bool use_combiner) {
  RecurringQuery query;
  query.id = id;
  query.name = name;
  query.pattern = IncrementalPattern::kPerPaneMerge;
  query.config.name = name;
  query.config.mapper = std::make_shared<const AggregationMapper>();
  query.config.reducer = std::make_shared<const AggregationReducer>();
  if (use_combiner) query.config.combiner = query.config.reducer;
  query.config.num_reducers = num_reducers;
  // Cached pane bytes depend only on the mapper/combiner/reducer bodies
  // and the reducer count; finalizers run at window assembly and do not
  // affect the signature (so threshold-alert panes dedup against these).
  query.pipeline_signature =
      StringPrintf("agg:v1:r%d:c%d", num_reducers, use_combiner ? 1 : 0);
  QuerySource qs;
  qs.id = source;
  qs.name = StringPrintf("S%d", source);
  qs.window = WindowSpec{win, slide};
  query.sources.push_back(qs);
  return query;
}

}  // namespace redoop
