#include "obs/trace/trace_writer.h"

#include <cstdio>

#include <algorithm>
#include <map>
#include <utility>

#include "common/string_utils.h"
#include "obs/trace/span_builder.h"
#include "obs/trace/trace_id.h"

namespace redoop {
namespace obs {
namespace trace {

void TraceWriter::AddCounterSample(const std::string& series, double time_s,
                                   double value) {
  extra_.push_back(StringPrintf(
      "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.0f,\"pid\":3,\"tid\":0,"
      "\"args\":{\"value\":%.3f}}",
      series.c_str(), time_s * 1e6, value));
}

void TraceWriter::AddCacheSpan(const std::string& name, int64_t node,
                               double start_s, double end_s, int64_t bytes,
                               const std::string& kind) {
  extra_.push_back(StringPrintf(
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.0f,"
      "\"dur\":%.0f,\"pid\":2,\"tid\":%ld,"
      "\"args\":{\"bytes\":%ld,\"kind\":\"%s\"}}",
      name.c_str(), kind.c_str(), start_s * 1e6,
      std::max(0.0, end_s - start_s) * 1e6, node, bytes, kind.c_str()));
}

void TraceWriter::AddJournal(const EventJournal& journal) {
  double last_time = 0.0;
  for (const Event& e : journal.events()) {
    last_time = std::max(last_time, e.time());
  }

  struct OpenCache {
    double start = 0.0;
    int64_t node = 0;
    int64_t bytes = 0;
    std::string kind;
  };
  std::map<std::string, OpenCache> open;
  double occupancy = 0.0;
  std::vector<std::pair<double, int>> task_deltas;

  for (const Event& e : journal.events()) {
    const std::string& type = e.type();
    if (type == event::kTaskFinish) {
      // A map's event carries no partition or shuffle, a reduce's no
      // source or pane; the defaults are what the attempt has instead.
      const std::string kind = e.StrOr("kind", "");
      const std::string job = StringPrintf(
          "%s-w%ld", e.StrOr("system", "").c_str(), e.IntOr("window", -1));
      const double startup = e.DoubleOr("startup", 0.0);
      const double read = e.DoubleOr("read", 0.0);
      const double shuffle = e.DoubleOr("shuffle", 0.0);
      const double sort = e.DoubleOr("sort", 0.0);
      const double compute = e.DoubleOr("compute", 0.0);
      const double write = e.DoubleOr("write", 0.0);
      tasks_.push_back(StringPrintf(
          "{\"name\":\"%s %s#%ld\",\"cat\":\"%s\",\"ph\":\"X\","
          "\"ts\":%.0f,\"dur\":%.0f,\"pid\":1,\"tid\":%ld,"
          "\"args\":{\"job\":\"%s\",\"partition\":%ld,\"source\":%ld,"
          "\"pane\":%ld,\"attempt\":%ld,\"startup\":%.3f,\"read\":%.3f,"
          "\"shuffle\":%.3f,\"sort\":%.3f,\"compute\":%.3f,"
          "\"write\":%.3f}}",
          kind.c_str(), job.c_str(), e.IntOr("task", 0), kind.c_str(),
          e.DoubleOr("start", 0.0) * 1e6,
          (startup + read + shuffle + sort + compute + write) * 1e6,
          e.IntOr("node", -1), job.c_str(), e.IntOr("partition", -1),
          e.IntOr("source", 0), e.IntOr("pane", -1), e.IntOr("attempt", 0),
          startup, read, shuffle, sort, compute, write));
      task_deltas.emplace_back(e.time(), -1);
    } else if (type == event::kCacheAdd) {
      const std::string name = e.StrOr("name", "");
      auto it = open.find(name);
      if (it != open.end()) {
        // Same-name re-add (chunked rebuild): close the prior span.
        AddCacheSpan(name, it->second.node, it->second.start, e.time(),
                     it->second.bytes, it->second.kind);
        occupancy -= static_cast<double>(it->second.bytes);
        open.erase(it);
      }
      OpenCache oc;
      oc.start = e.time();
      oc.node = e.IntOr("node", 0);
      oc.bytes = e.IntOr("bytes", 0);
      oc.kind = e.StrOr("kind", "cache");
      occupancy += static_cast<double>(oc.bytes);
      open.emplace(name, std::move(oc));
      AddCounterSample("cache_bytes", e.time(), occupancy);
    } else if (type == event::kCacheEvict ||
               type == event::kCacheInvalidate ||
               type == event::kCachePurge) {
      auto it = open.find(e.StrOr("name", ""));
      if (it == open.end()) continue;  // Purge after evict, or unknown.
      AddCacheSpan(it->first, it->second.node, it->second.start, e.time(),
                   it->second.bytes, it->second.kind);
      occupancy -= static_cast<double>(it->second.bytes);
      open.erase(it);
      AddCounterSample("cache_bytes", e.time(), occupancy);
    } else if (type == event::kTaskStart) {
      task_deltas.emplace_back(e.time(), +1);
    } else if (type == event::kTaskFail) {
      task_deltas.emplace_back(e.time(), -1);
    }
  }

  // Caches still alive when the journal ends stretch to its last event.
  for (const auto& [name, oc] : open) {
    AddCacheSpan(name, oc.node, oc.start, last_time, oc.bytes, oc.kind);
  }

  // Cross-window causality: one flow arrow per follows-from edge of the
  // reconstructed span DAG, drawn in the cache-lifetimes lane. A
  // pane_reuse arrow runs from the window that built a pane to each later
  // window whose cache hit consumed it; a recovery arrow runs from a node
  // failure to the rebuild it caused.
  Trace trace;
  if (BuildTrace(journal, &trace).ok()) {
    for (const FollowsFrom& edge : trace.follows) {
      const Span* from = trace.Find(edge.from);
      const double from_ts = from != nullptr ? from->end : edge.time;
      const int64_t tid = from != nullptr && from->node >= 0 ? from->node : 0;
      std::string name;
      if (edge.kind == "pane_reuse") {
        name = StringPrintf("pane_reuse S%ld/P%ld", edge.source, edge.pane);
      } else {
        name = edge.kind;
      }
      const std::string id =
          StringPrintf("%s-%ld", IdHex(edge.from).c_str(), edge.window_to);
      extra_.push_back(StringPrintf(
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"s\",\"id\":\"%s\","
          "\"ts\":%.0f,\"pid\":2,\"tid\":%ld,"
          "\"args\":{\"window_from\":%ld,\"window_to\":%ld}}",
          name.c_str(), edge.kind.c_str(), id.c_str(), from_ts * 1e6, tid,
          edge.window_from, edge.window_to));
      extra_.push_back(StringPrintf(
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"f\",\"bp\":\"e\","
          "\"id\":\"%s\",\"ts\":%.0f,\"pid\":2,\"tid\":%ld,"
          "\"args\":{\"window_from\":%ld,\"window_to\":%ld}}",
          name.c_str(), edge.kind.c_str(), id.c_str(),
          std::max(edge.time, from_ts) * 1e6, tid, edge.window_from,
          edge.window_to));
    }
  }

  // Slot-utilization series: starts before finishes at equal timestamps so
  // the running count never dips below its true value.
  std::stable_sort(task_deltas.begin(), task_deltas.end(),
                   [](const std::pair<double, int>& a,
                      const std::pair<double, int>& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second > b.second;
                   });
  int running = 0;
  for (const auto& [t, delta] : task_deltas) {
    running += delta;
    AddCounterSample("tasks_running", t, running);
  }
}

std::string TraceWriter::ToJson() const {
  std::string out = "{\"traceEvents\":[\n";
  // Process-name metadata so Perfetto labels the three lanes.
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"task attempts\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"cache lifetimes\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
      "\"args\":{\"name\":\"counters\"}}";
  for (const std::vector<std::string>* records : {&tasks_, &extra_}) {
    for (const std::string& json : *records) {
      out += ",\n";
      out += json;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status TraceWriter::WriteFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Unavailable("cannot open trace file: " + path);
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace trace
}  // namespace obs
}  // namespace redoop
