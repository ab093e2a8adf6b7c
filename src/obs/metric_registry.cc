#include "obs/metric_registry.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "common/logging.h"
#include "common/string_utils.h"
#include "obs/event_journal.h"
#include "obs/observability.h"

namespace redoop {
namespace obs {

namespace {

enum class Kind : uint8_t { kCounter, kHistogram, kGauge };
constexpr Kind kCounter = Kind::kCounter;
constexpr Kind kHistogram = Kind::kHistogram;
constexpr Kind kGauge = Kind::kGauge;

/// A rule's condition on one event field: a string payload equal to `str`,
/// or (when `str` is null) an integer payload equal to `num`.
struct FieldTest {
  constexpr FieldTest() = default;
  constexpr FieldTest(const char* k, const char* s) : key(k), str(s) {}
  constexpr FieldTest(const char* k, int n) : key(k), num(n) {}

  const char* key = nullptr;  ///< nullptr: no test.
  const char* str = nullptr;
  int64_t num = 0;
};

/// One metric and the events that feed it.
struct Rule {
  const char* event;
  const char* metric;
  Kind kind;
  /// Field carrying the counter delta or the sample; nullptr counts 1.
  const char* value = nullptr;
  FieldTest when[2] = {};
  /// Divisor field: the sample is value / per, fed only when per > 0.
  const char* per = nullptr;
  /// Label by the event's `node` as well as its `query`.
  bool by_node = false;
};

// The metric table. Each metric has exactly one rule, and the rules of one
// event type are adjacent.
constexpr Rule kRules[] = {
    // Cache controller and per-node stores (§4).
    {event::kCacheAdd, metric::kCacheAdds, kCounter},
    {event::kCacheAdd, metric::kCacheAddBytes, kCounter, "bytes"},
    {event::kCacheEvict, metric::kCacheEvictions, kCounter},
    {event::kCacheInvalidate, metric::kCacheInvalidations, kCounter},
    {event::kCacheRebuild, metric::kCacheRebuilds, kCounter},
    {.event = event::kCachePurge,
     .metric = metric::kCachePurgedBytes,
     .kind = kCounter,
     .value = "bytes",
     .by_node = true},
    // Pane and pane-pair reuse (window assembly, cache status matrix).
    {event::kCachePaneHit, metric::kCachePaneHits, kCounter},
    {event::kCachePaneHit, metric::kCachePaneHitBytes, kCounter, "bytes"},
    {event::kCachePaneMiss, metric::kCachePaneMisses, kCounter},
    {event::kCachePaneMiss, metric::kCachePaneMissBytes, kCounter, "bytes"},
    {event::kCachePaneEvict, metric::kCacheEvictedEntries, kCounter},
    {event::kCachePaneEvict, metric::kCacheEvictedBytes, kCounter, "bytes"},
    {event::kCachePairHit, metric::kCachePairHits, kCounter, "count"},
    {event::kCachePairMiss, metric::kCachePairMisses, kCounter, "count"},
    // Reduce placement (a map's placement is its task.start, below).
    {event::kSchedAssign, metric::kSchedReduceAssignments, kCounter, nullptr,
     {{"kind", "reduce"}}},
    {event::kSchedAssign, metric::kSchedCacheAffinityTaken, kCounter,
     nullptr, {{"affinity_taken", 1}}},
    {event::kSchedAssign, metric::kSchedCacheAffinityMissed, kCounter,
     nullptr, {{"affinity_considered", 1}, {"affinity_taken", 0}}},
    {event::kSchedAssign, metric::kSchedReduceIoCost, kHistogram, "io_cost"},
    // Profiler forecasts (§3.3); only a forecast carries abs_error.
    {event::kProfilerObserve, metric::kProfilerObservations, kCounter},
    {event::kProfilerObserve, metric::kProfilerAbsErr, kHistogram,
     "abs_error"},
    {.event = event::kProfilerObserve,
     .metric = metric::kProfilerRelErr,
     .kind = kHistogram,
     .value = "abs_error",
     .per = "actual"},
    // DFS traffic.
    {event::kDfsFileCreate, metric::kDfsFilesCreated, kCounter},
    {event::kDfsFileCreate, metric::kDfsBytesWritten, kCounter, "bytes"},
    {event::kDfsFileDelete, metric::kDfsFilesDeleted, kCounter},
    // Tasks and jobs. Only a map's task.start carries a locality: it is
    // the map's placement and its DFS input read.
    {event::kTaskStart, metric::kSchedMapLocal, kCounter, nullptr,
     {{"locality", "local"}}},
    {event::kTaskStart, metric::kSchedMapRemote, kCounter, nullptr,
     {{"locality", "remote"}}},
    {event::kTaskStart, metric::kDfsLocalReadBytes, kCounter, "bytes",
     {{"locality", "local"}}},
    {event::kTaskStart, metric::kDfsRemoteReadBytes, kCounter, "bytes",
     {{"locality", "remote"}}},
    {event::kTaskFinish, metric::kTasksMap, kCounter, nullptr,
     {{"kind", "map"}}},
    {event::kTaskFinish, metric::kTaskMapDuration, kHistogram, "duration",
     {{"kind", "map"}}},
    {event::kTaskFinish, metric::kTasksReduce, kCounter, nullptr,
     {{"kind", "reduce"}}},
    {event::kTaskFinish, metric::kTaskReduceDuration, kHistogram, "duration",
     {{"kind", "reduce"}}},
    {event::kTaskFail, metric::kTaskFailures, kCounter},
    {event::kTaskSpeculate, metric::kTaskSpeculations, kCounter},
    {event::kJobStart, metric::kJobs, kCounter},
    // Recurring windows.
    {event::kWindowComplete, metric::kWindowsCompleted, kCounter},
    {event::kWindowComplete, metric::kWindowResponseTime, kHistogram,
     "response_time"},
    // Fleet serving (DESIGN §17).
    {event::kFleetAdmit, metric::kFleetAdmitted, kCounter},
    {event::kFleetAdmit, metric::kFleetAdmissionWait, kHistogram, "wait"},
    {event::kFleetAdmit, metric::kFleetQueueDepth, kGauge, "queued"},
    {event::kFleetScan, metric::kFleetScanRequests, kCounter},
    {event::kFleetScan, metric::kFleetScanHits, kCounter, "hits"},
    {event::kFleetScan, metric::kFleetScanMisses, kCounter, "misses"},
    {event::kFleetScan, metric::kFleetScanBytesServed, kCounter, "bytes"},
    {event::kFleetScan, metric::kFleetScanBytesScanned, kCounter,
     "scanned_bytes"},
    {event::kFleetAdopt, metric::kFleetDedupAdoptions, kCounter},
    {event::kFleetAdopt, metric::kFleetDedupBytes, kCounter, "bytes"},
    {event::kFleetEvictFanout, metric::kFleetDedupEvictFanout, kCounter},
};
constexpr size_t kNumRules = std::size(kRules);

int64_t AsInt(const EventField& f) {
  if (f.kind == EventField::Kind::kInt) return f.i64;
  if (f.kind == EventField::Kind::kDouble) return static_cast<int64_t>(f.f64);
  return 0;
}

double AsDouble(const EventField& f) {
  if (f.kind == EventField::Kind::kDouble) return f.f64;
  if (f.kind == EventField::Kind::kInt) return static_cast<double>(f.i64);
  return 0.0;
}

bool Passes(const Event& e, const FieldTest& test) {
  if (test.key == nullptr) return true;
  const EventField* f = e.Find(test.key);
  if (f == nullptr) return false;
  if (test.str != nullptr) {
    return f->kind == EventField::Kind::kString && f->str() == test.str;
  }
  return f->kind == EventField::Kind::kInt && f->i64 == test.num;
}

}  // namespace

std::string FormatDouble(double value) {
  if (value == 0.0) return "0";  // Collapses -0 as well.
  std::string s = StringPrintf("%.6g", value);
  return s;
}

std::string LabeledName(std::string_view name, std::string_view query,
                        int32_t node) {
  std::string out(name);
  if (query.empty() && node < 0) return out;
  out += '{';
  if (!query.empty()) {
    out += "query=";
    out += query;
  }
  if (node >= 0) {
    if (!query.empty()) out += ',';
    out += "node=";
    out += std::to_string(node);
  }
  out += '}';
  return out;
}

int32_t Histogram::BucketIndex(double value) {
  // log2(|value| / kMinTrackable) octaves above the floor, subdivided.
  // Negative values mirror into negative indexes so std::map iteration
  // order remains value order: most-negative bucket first, then the
  // near-zero bucket 0, then positives ascending.
  if (value > kMinTrackable) {
    const double octaves = std::log2(value / kMinTrackable);
    return 1 + static_cast<int32_t>(octaves * kSubBucketsPerOctave);
  }
  if (value < -kMinTrackable) {
    const double octaves = std::log2(-value / kMinTrackable);
    return -1 - static_cast<int32_t>(octaves * kSubBucketsPerOctave);
  }
  return 0;  // |value| <= kMinTrackable, including exact zero.
}

double Histogram::BucketMidpoint(int32_t index) {
  if (index == 0) return 0.0;
  if (index < 0) return -BucketMidpoint(-index);
  const double lower =
      kMinTrackable *
      std::exp2(static_cast<double>(index - 1) / kSubBucketsPerOctave);
  const double upper =
      kMinTrackable * std::exp2(static_cast<double>(index) / kSubBucketsPerOctave);
  return std::sqrt(lower * upper);
}

void Histogram::Record(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[BucketIndex(value)];
}

double Histogram::Quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Nearest-rank on the bucketed distribution: find the bucket holding
  // the ceil(q * count)-th observation.
  const int64_t rank = std::max<int64_t>(1, static_cast<int64_t>(
                                                std::ceil(q * count)));
  int64_t seen = 0;
  for (const auto& [index, bucket_count] : buckets) {
    seen += bucket_count;
    if (seen >= rank) {
      return std::clamp(BucketMidpoint(index), min, max);
    }
  }
  return max;
}

int64_t MetricsSnapshot::Counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::Gauge(std::string_view name) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0.0 : it->second;
}

double MetricsSnapshot::HitRate(std::string_view hits,
                                std::string_view misses) const {
  const double h = static_cast<double>(Counter(hits));
  const double total = h + static_cast<double>(Counter(misses));
  return total > 0.0 ? h / total : 0.0;
}

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += StringPrintf("%s\n    \"%s\": %lld", first ? "" : ",",
                        JsonEscape(name).c_str(),
                        static_cast<long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += StringPrintf("%s\n    \"%s\": %s", first ? "" : ",",
                        JsonEscape(name).c_str(), FormatDouble(value).c_str());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += StringPrintf(
        "%s\n    \"%s\": {\"count\": %lld, \"sum\": %s, \"min\": %s, "
        "\"max\": %s, \"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}",
        first ? "" : ",", JsonEscape(name).c_str(),
        static_cast<long long>(h.count), FormatDouble(h.sum).c_str(),
        FormatDouble(h.min).c_str(), FormatDouble(h.max).c_str(),
        FormatDouble(h.Mean()).c_str(), FormatDouble(h.P50()).c_str(),
        FormatDouble(h.P95()).c_str(), FormatDouble(h.P99()).c_str());
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

MetricRegistry::MetricRegistry() : global_(kNumRules) {
  for (size_t i = 0; i < kNumRules; ++i) {
    for (size_t j = 0; j < i; ++j) {
      REDOOP_CHECK(std::strcmp(kRules[i].metric, kRules[j].metric) != 0)
          << "two rules feed " << kRules[i].metric;
    }
  }
}

const MetricRegistry::Dispatch& MetricRegistry::RulesFor(
    const std::string& type) {
  Dispatch& d = dispatch_[&type];
  if (d.type == type) return d;
  // First event at this address: a new type, or a pointer a later store
  // reused for another one.
  d.type = type;
  d.first = 0;
  d.count = 0;
  for (size_t i = 0; i < kNumRules; ++i) {
    if (type != kRules[i].event) continue;
    if (d.count == 0) d.first = i;
    REDOOP_CHECK(i == d.first + d.count)
        << "the rules of " << type << " are not adjacent";
    ++d.count;
  }
  return d;
}

MetricRegistry::Books& MetricRegistry::LabeledBooks(std::string_view query,
                                                    int32_t node) {
  auto it = labeled_.find(LabelView{query, node});
  if (it == labeled_.end()) {
    it = labeled_.emplace(LabelKey{std::string(query), node}, Books()).first;
  }
  return it->second;
}

void MetricRegistry::Fold(const Event& e) {
  const Dispatch& d = RulesFor(e.type());
  if (d.count == 0) return;
  std::string_view query;
  const EventField* query_field = e.Find("query");
  if (query_field != nullptr &&
      query_field->kind == EventField::Kind::kString) {
    query = query_field->str();
  }
  Books* query_books = nullptr;  // Looked up once, on first use.
  for (size_t i = d.first; i < d.first + d.count; ++i) {
    const Rule& rule = kRules[i];
    if (!Passes(e, rule.when[0]) || !Passes(e, rule.when[1])) continue;
    int64_t delta = 1;
    double sample = 0.0;
    if (rule.value != nullptr) {
      const EventField* f = e.Find(rule.value);
      if (f == nullptr) continue;
      delta = AsInt(*f);
      sample = AsDouble(*f);
    }
    if (rule.per != nullptr) {
      const EventField* f = e.Find(rule.per);
      if (f == nullptr || AsDouble(*f) <= 0.0) continue;
      sample /= AsDouble(*f);
    }
    auto feed = [&rule, delta, sample](Series& s) {
      s.touched = true;
      switch (rule.kind) {
        case Kind::kCounter: s.counter += delta; break;
        case Kind::kGauge: s.gauge = sample; break;
        case Kind::kHistogram: s.histogram.Record(sample); break;
      }
    };
    feed(global_[i]);
    if (rule.by_node) {
      const int32_t node = static_cast<int32_t>(e.IntOr("node", -1));
      if (!query.empty() || node >= 0) feed(LabeledBooks(query, node)[i]);
    } else if (!query.empty()) {
      if (query_books == nullptr) query_books = &LabeledBooks(query, -1);
      feed((*query_books)[i]);
    }
  }
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  auto put = [&snapshot](size_t rule, std::string name, const Series& s) {
    switch (kRules[rule].kind) {
      case Kind::kCounter: snapshot.counters[std::move(name)] = s.counter; break;
      case Kind::kGauge: snapshot.gauges[std::move(name)] = s.gauge; break;
      case Kind::kHistogram:
        snapshot.histograms[std::move(name)] = s.histogram;
        break;
    }
  };
  for (size_t i = 0; i < kNumRules; ++i) {
    if (global_[i].touched) put(i, kRules[i].metric, global_[i]);
  }
  for (const auto& [label, books] : labeled_) {
    const std::string suffix = LabeledName("", label.query, label.node);
    for (const auto& [rule, series] : books) {
      put(rule, kRules[rule].metric + suffix, series);
    }
  }
  return snapshot;
}

}  // namespace obs
}  // namespace redoop
