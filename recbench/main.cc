// Host-time benchmark of recurring queries on the Redoop driver.
//
//   recbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans-out <path>]
//
// A run repeats episodes until --seconds have passed and, untraced, at
// least kMinSteadySamples steady recurrences were timed. An episode generates the
// inputs of every recurrence from the seed, builds a fresh cluster and
// driver (RunRecurrence on 2 engine threads, one recurrence at a time),
// runs the cold recurrence that fills the window's caches, then times each
// steady recurrence. Every recurrence's output is checked against a
// reference computed once per run outside the timed region.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced episodes and prints the per-layer metrics. The last stdout
// line is one JSON object; any failure to run exits nonzero before it.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/config.h"
#include "core/redoop_driver.h"
#include "mapreduce/counters.h"
#include "obs/observability.h"
#include "reference.h"
#include "stats.h"
#include "tracing.h"
#include "workloads.h"

namespace recbench {
namespace {

constexpr size_t kMinSteadySamples = 100;
constexpr double kMB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "recbench: %s\nusage: recbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0) Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// One timed steady recurrence.
struct Sample {
  double wall_ms = 0.0;
  int64_t records = 0;
  double sim_response_s = 0.0;
};

/// A RunRecurrence parent span with its children summarised (per-call
/// child spans are reduced as soon as the recurrence ends).
struct SpanRow {
  int episode = 0;
  int64_t recurrence = 0;
  Interval span;
  int64_t feed_ns = 0;
  int64_t map_ns = 0;
  int64_t reduce_ns = 0;
  int64_t user_union_ns = 0;
  int64_t self_ns = 0;
};

struct Totals {
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct EpisodeResult {
  double setup_s = 0.0;
  double gen_s = 0.0;
  double store_peak_mb = 0.0;
  std::vector<Sample> steady;
};

double Mb(int64_t bytes) { return static_cast<double>(bytes) / kMB; }

/// Folds one traced steady recurrence into the per-layer accumulator.
void AddLayerValues(const redoop::WindowReport& report,
                    const std::vector<KindTotals>& spans, Interval parent,
                    const Sample& sample, PerRecurrence* layers,
                    SpanRow* row) {
  const KindTotals& feed = spans[static_cast<int>(SpanKind::kFeed)];
  const KindTotals& map = spans[static_cast<int>(SpanKind::kMap)];
  const KindTotals& reduce = spans[static_cast<int>(SpanKind::kReduce)];
  std::vector<Interval> user = map.spans;
  user.insert(user.end(), reduce.spans.begin(), reduce.spans.end());
  std::vector<Interval> children = user;
  children.insert(children.end(), feed.spans.begin(), feed.spans.end());

  row->span = parent;
  row->feed_ns = feed.busy_ns;
  row->map_ns = map.busy_ns;
  row->reduce_ns = reduce.busy_ns;
  row->user_union_ns = UnionLength(user, parent);
  row->self_ns = SelfTime(parent, children);

  layers->Add("workload.records", static_cast<double>(sample.records));
  layers->Add("queries.map_ms", static_cast<double>(map.busy_ns) * 1e-6);
  layers->Add("queries.map_calls", static_cast<double>(map.calls));
  layers->Add("queries.reduce_ms", static_cast<double>(reduce.busy_ns) * 1e-6);
  layers->Add("queries.reduce_groups", static_cast<double>(reduce.calls));
  layers->Add("queries.reduce_values", static_cast<double>(reduce.items));
  layers->Add("user_busy_ns", static_cast<double>(map.busy_ns + reduce.busy_ns));
  layers->Add("user_union_ns", static_cast<double>(row->user_union_ns));
  layers->Add("core.driver_self_ms", static_cast<double>(row->self_ns) * 1e-6);
  layers->Add("core.output_records", static_cast<double>(report.output.size()));

  const redoop::Counters& c = report.counters;
  namespace counter = redoop::counter;
  const auto add = [&](const char* name, double value) {
    layers->Add(name, value);
  };
  add("core.pane_hits", c.Get(counter::kCachePaneHits));
  add("core.pane_misses", c.Get(counter::kCachePaneMisses));
  add("pane_lookups",
      c.Get(counter::kCachePaneHits) + c.Get(counter::kCachePaneMisses));
  add("core.pair_hits", c.Get(counter::kCachePairHits));
  add("core.pair_misses", c.Get(counter::kCachePairMisses));
  add("core.cache_read_local_mb", Mb(c.Get(counter::kCacheReadLocalBytes)));
  add("core.cache_read_remote_mb", Mb(c.Get(counter::kCacheReadRemoteBytes)));
  add("core.cache_write_mb", Mb(c.Get(counter::kCacheWriteBytes)));
  add("mapreduce.map_tasks", c.Get(counter::kMapTasks));
  add("mapreduce.reduce_tasks", c.Get(counter::kReduceTasks));
  add("mapreduce.task_retries", c.Get(counter::kMapTaskRetries) +
                                    c.Get(counter::kReduceTaskRetries));
  add("mapreduce.map_input_records", c.Get(counter::kMapInputRecords));
  add("mapreduce.map_output_records", c.Get(counter::kMapOutputRecords));
  add("mapreduce.shuffle_mb", Mb(c.Get(counter::kShuffleRemoteBytes) +
                                 c.Get(counter::kShuffleLocalBytes)));
  add("mapreduce.reduce_input_records", c.Get(counter::kReduceInputRecords));

  double reduce_max = 0.0;
  double reduce_sum = 0.0;
  int64_t reduce_count = 0;
  double slot_wait = 0.0;
  for (const redoop::TaskReport& task : report.task_reports) {
    slot_wait += task.timing.SlotWait();
    if (task.type != redoop::TaskType::kReduce) continue;
    reduce_max = std::max(reduce_max, task.timing.Total());
    reduce_sum += task.timing.Total();
    ++reduce_count;
  }
  if (reduce_count > 0 && reduce_sum > 0.0) {
    add("mapreduce.reduce_skew",
        reduce_max / (reduce_sum / static_cast<double>(reduce_count)));
  }
  add("sim.map_phase_s", report.map_phase_time);
  add("sim.shuffle_s", report.shuffle_time);
  add("sim.reduce_s", report.reduce_time);
  add("sim.slot_wait_s", slot_wait);
}

/// Program-level counters read around each traced recurrence.
struct Levels {
  uint64_t sim_events = 0;
  int64_t journal_events = 0;
  int64_t journal_dropped = 0;
  int64_t evicted_entries = 0;
  int64_t evicted_bytes = 0;
  int64_t rebuilds = 0;

  static Levels Read(redoop::Cluster& cluster, redoop::RedoopDriver& driver) {
    Levels l;
    const redoop::obs::EventJournal& journal =
        driver.observability()->journal();
    l.sim_events = cluster.simulator().processed_event_count();
    l.journal_dropped = journal.dropped_events();
    l.journal_events = static_cast<int64_t>(journal.size()) + l.journal_dropped;
    l.evicted_entries = driver.store().evicted_entries();
    l.evicted_bytes = driver.store().evicted_bytes();
    l.rebuilds = driver.observability()->Snapshot().Counter(
        redoop::obs::metric::kCacheRebuilds);
    return l;
  }
};

/// Runs one episode on pre-generated inputs; set-up time counts their
/// generation. A recurrence that returns an error ends the episode.
EpisodeResult RunEpisode(const WorkloadSpec& spec, Inputs inputs,
                         const std::vector<Digest>& reference, bool traced,
                         int episode, Totals* totals, PerRecurrence* layers,
                         std::vector<SpanRow>* span_rows) {
  EpisodeResult result;
  result.gen_s = inputs.gen_s;
  SpanRecorder& recorder = SpanRecorder::Get();
  recorder.SetEnabled(traced);
  const int64_t setup_begin = NowNs();
  redoop::RecurringQuery query = MakeQuery(spec);
  if (traced) query = TraceQuery(query);
  redoop::Cluster cluster(kNodes, redoop::Config());
  ReplayFeed feed(std::move(inputs));
  redoop::RedoopDriver driver(&cluster, &feed, query, MakeDriverOptions(spec));

  const auto check = [&](int64_t r,
                         const redoop::StatusOr<redoop::WindowReport>& report) {
    ++totals->attempted;
    if (!report.ok()) {
      std::fprintf(stderr, "recbench: recurrence %lld failed: %s\n",
                   static_cast<long long>(r),
                   report.status().ToString().c_str());
      ++totals->failed;
      return false;
    }
    if (!(DigestOf(report.value().output) ==
          reference[static_cast<size_t>(r)])) {
      std::fprintf(stderr,
                   "recbench: recurrence %lld output differs from the "
                   "reference\n",
                   static_cast<long long>(r));
      ++totals->failed;
    }
    return true;
  };

  for (int64_t r = 0; r < spec.cold_recurrences; ++r) {
    if (!check(r, driver.RunRecurrence(r))) return result;
  }
  result.setup_s =
      result.gen_s + static_cast<double>(NowNs() - setup_begin) * 1e-9;
  recorder.Drain();  // Cold-recurrence spans are set-up, not steady work.

  for (int64_t r = spec.cold_recurrences; r < spec.total_recurrences(); ++r) {
    const Levels before =
        traced ? Levels::Read(cluster, driver) : Levels();
    const int64_t records_before = feed.records_served();
    const int64_t begin = NowNs();
    redoop::StatusOr<redoop::WindowReport> report = driver.RunRecurrence(r);
    const int64_t end = NowNs();
    if (!check(r, report)) break;

    Sample sample;
    sample.wall_ms = static_cast<double>(end - begin) * 1e-6;
    sample.records = feed.records_served() - records_before;
    sample.sim_response_s = report.value().response_time;
    result.steady.push_back(sample);
    if (!traced) continue;

    SpanRow row;
    row.episode = episode;
    row.recurrence = r;
    AddLayerValues(report.value(), recorder.Drain(), {begin, end}, sample,
                   layers, &row);
    span_rows->push_back(row);
    const Levels after = Levels::Read(cluster, driver);
    layers->Add("sim.events",
                static_cast<double>(after.sim_events - before.sim_events));
    layers->Add("obs.journal_events", static_cast<double>(
                                          after.journal_events -
                                          before.journal_events));
    layers->Add("obs.journal_dropped", static_cast<double>(
                                           after.journal_dropped -
                                           before.journal_dropped));
    layers->Add("core.evicted_entries", static_cast<double>(
                                            after.evicted_entries -
                                            before.evicted_entries));
    layers->Add("core.evicted_mb",
                Mb(after.evicted_bytes - before.evicted_bytes));
    layers->Add("core.rebuilds",
                static_cast<double>(after.rebuilds - before.rebuilds));
    layers->Add("dfs.files", static_cast<double>(cluster.dfs().file_count()));
    layers->Add("dfs.stored_mb", Mb(cluster.dfs().TotalStoredBytes()));
    layers->EndRecurrence();
  }
  result.store_peak_mb = Mb(driver.store().peak_bytes());
  recorder.SetEnabled(false);
  recorder.Drain();
  return result;
}

/// Accumulates samples of one kind of episode (traced or untraced).
struct Pool {
  std::vector<double> wall_ms;
  std::vector<double> sim_response_s;
  std::vector<double> drift;
  std::vector<double> store_peak_mb;
  int64_t records = 0;
  double steady_s = 0.0;

  void Add(const EpisodeResult& e) {
    std::vector<double> series;
    for (const Sample& s : e.steady) {
      wall_ms.push_back(s.wall_ms);
      sim_response_s.push_back(s.sim_response_s);
      records += s.records;
      steady_s += s.wall_ms * 1e-3;
      series.push_back(s.wall_ms);
    }
    drift.push_back(Drift(series));
    store_peak_mb.push_back(e.store_peak_mb);
  }
};

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // 0: not a sampled quantity.
};

void PrintResult(const std::vector<Metric>& metrics, const Totals& totals) {
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("%-32s %16.6f %-10s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += totals.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(totals.attempted);
  json += ", \"failed\": " + std::to_string(totals.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void WriteSpans(const std::string& path, const std::vector<SpanRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "recbench: cannot write spans to %s\n", path.c_str());
    std::exit(4);
  }
  for (const SpanRow& r : rows) {
    out << "{\"name\": \"RunRecurrence\", \"episode\": " << r.episode
        << ", \"recurrence\": " << r.recurrence
        << ", \"begin_ns\": " << r.span.begin_ns
        << ", \"end_ns\": " << r.span.end_ns << ", \"feed_ns\": " << r.feed_ns
        << ", \"map_ns\": " << r.map_ns << ", \"reduce_ns\": " << r.reduce_ns
        << ", \"user_union_ns\": " << r.user_union_ns
        << ", \"self_ns\": " << r.self_ns << "}\n";
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());

  // Every episode replays the same seeded inputs, so one reference serves
  // them all; it reads the first episode's inputs before the feed takes
  // them.
  Inputs first_inputs =
      GenerateInputs(*spec, args.seed, spec->total_recurrences());
  const int64_t reference_begin = NowNs();
  const std::vector<Digest> reference = ReferenceDigests(
      MakeQuery(*spec), first_inputs, spec->total_recurrences());
  std::fprintf(stderr, "recbench: reference results took %.3f s\n",
               static_cast<double>(NowNs() - reference_begin) * 1e-9);

  Totals totals;
  PerRecurrence layers;
  std::vector<SpanRow> span_rows;
  Pool untraced;
  Pool traced;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  const int64_t run_begin = NowNs();
  for (int episode = 0;; ++episode) {
    const bool trace_episode = args.trace && episode % 2 == 1;
    Inputs inputs =
        episode == 0
            ? std::move(first_inputs)
            : GenerateInputs(*spec, args.seed, spec->total_recurrences());
    const EpisodeResult e =
        RunEpisode(*spec, std::move(inputs), reference, trace_episode, episode,
                   &totals, &layers, &span_rows);
    if (totals.failed > 0 && e.steady.empty()) break;
    (trace_episode ? traced : untraced).Add(e);
    setup_s.push_back(e.setup_s);
    gen_s.push_back(e.gen_s);
    const double elapsed = static_cast<double>(NowNs() - run_begin) * 1e-9;
    // An untraced run needs enough samples for its p90; a traced run only
    // needs both kinds of episode.
    const bool enough =
        args.trace ? !traced.wall_ms.empty()
                   : untraced.wall_ms.size() >= kMinSteadySamples;
    if (elapsed >= args.seconds && enough) break;
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const size_t n = untraced.wall_ms.size();
    metrics.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
    metrics.push_back(
        {"recurrence_ms_p50", Percentile(untraced.wall_ms, 0.5), "ms", n});
    if (!PercentileSupported(n, 0.9)) {
      std::fprintf(stderr, "recbench: %zu samples cannot support p90\n", n);
      return 1;
    }
    metrics.push_back(
        {"recurrence_ms_p90", Percentile(untraced.wall_ms, 0.9), "ms", n});
    metrics.push_back({"records_per_s",
                       static_cast<double>(untraced.records) / untraced.steady_s,
                       "records/s", n});
    metrics.push_back({"sim_response_s_mean", Mean(untraced.sim_response_s),
                       "sim_s", n});
    metrics.push_back({"peak_rss_mb",
                       static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
    metrics.push_back(
        {"ok_ratio",
         1.0 - static_cast<double>(totals.failed) /
                   static_cast<double>(totals.attempted),
         "fraction"});
  } else {
    const size_t n = static_cast<size_t>(layers.recurrences());
    const auto per_rec = [&](const char* name, const char* unit) {
      metrics.push_back({name, layers.Mean(name), unit, n});
    };
    metrics.push_back({"workload.gen_s", Median(gen_s), "s", gen_s.size()});
    per_rec("workload.records", "count");
    per_rec("queries.map_ms", "ms");
    per_rec("queries.map_calls", "count");
    per_rec("queries.reduce_ms", "ms");
    per_rec("queries.reduce_groups", "count");
    per_rec("queries.reduce_values", "count");
    metrics.push_back({"queries.concurrency",
                       layers.Ratio("user_busy_ns", "user_union_ns"), "ratio",
                       n});
    per_rec("core.driver_self_ms", "ms");
    per_rec("core.output_records", "count");
    per_rec("core.pane_hits", "count");
    per_rec("core.pane_misses", "count");
    metrics.push_back({"core.pane_hit_ratio",
                       layers.Ratio("core.pane_hits", "pane_lookups"),
                       "fraction", n});
    per_rec("core.pair_hits", "count");
    per_rec("core.pair_misses", "count");
    per_rec("core.cache_read_local_mb", "MB");
    per_rec("core.cache_read_remote_mb", "MB");
    per_rec("core.cache_write_mb", "MB");
    metrics.push_back({"core.store_peak_mb", Median(traced.store_peak_mb),
                       "MB", traced.store_peak_mb.size()});
    per_rec("core.evicted_entries", "count");
    per_rec("core.evicted_mb", "MB");
    per_rec("core.rebuilds", "count");
    per_rec("mapreduce.map_tasks", "count");
    per_rec("mapreduce.reduce_tasks", "count");
    per_rec("mapreduce.task_retries", "count");
    per_rec("mapreduce.map_input_records", "count");
    per_rec("mapreduce.map_output_records", "count");
    per_rec("mapreduce.shuffle_mb", "MB");
    per_rec("mapreduce.reduce_input_records", "count");
    per_rec("mapreduce.reduce_skew", "ratio");
    per_rec("sim.events", "count");
    per_rec("sim.map_phase_s", "sim_s");
    per_rec("sim.shuffle_s", "sim_s");
    per_rec("sim.reduce_s", "sim_s");
    per_rec("sim.slot_wait_s", "sim_s");
    per_rec("dfs.files", "count");
    per_rec("dfs.stored_mb", "MB");
    per_rec("obs.journal_events", "count");
    per_rec("obs.journal_dropped", "count");
    const double untraced_p50 = Percentile(untraced.wall_ms, 0.5);
    metrics.push_back(
        {"trace.overhead_pct",
         untraced_p50 > 0.0
             ? (Percentile(traced.wall_ms, 0.5) / untraced_p50 - 1.0) * 100.0
             : 0.0,
         "%", traced.wall_ms.size()});
    metrics.push_back({"recurrence_ms_drift", Median(untraced.drift), "ratio",
                       untraced.drift.size()});
    metrics.push_back({"steady_recurrences",
                       static_cast<double>(untraced.wall_ms.size()), "count"});
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, span_rows);
  }
  PrintResult(metrics, totals);
  return 0;
}

}  // namespace
}  // namespace recbench

int main(int argc, char** argv) { return recbench::Main(argc, argv); }
