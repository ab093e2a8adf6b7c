// redoop_cli — configurable recurring-query experiment runner.
//
// Runs a recurring aggregation or join on the simulated cluster with any
// combination of systems, window geometry, workload, and cost-model
// overrides, and prints the per-window series plus phase breakdowns.
//
// Examples:
//   redoop_cli --query=agg --win=18000 --slide=1800 --windows=10
//   redoop_cli --query=join --rps=2.5 --record-bytes=524288
//              --systems=hadoop,redoop
//   redoop_cli --query=agg --systems=redoop,adaptive --spiked
//              --proactive-threshold=0.15
//   redoop_cli --query=agg --nodes=10 --set cost.disk_bps=20971520
//   redoop_cli --query=agg --windows=4 --cache-budget-bytes=7549747200
//
// Flags take --key=value form; --help lists them all. Unknown --set keys
// are passed straight into the cluster Config (cost model, DFS, node
// knobs; see CostModelOptions/DfsOptions/NodeOptions::FromConfig).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/hadoop_driver.h"
#include "cli_flags.h"
#include "common/math_utils.h"
#include "common/string_utils.h"
#include "core/redoop_driver.h"
#include "obs/observability.h"
#include "obs/trace/trace_writer.h"
#include "queries/aggregation_query.h"
#include "queries/join_query.h"
#include "workload/ffg_generator.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace redoop {
namespace {

struct CliOptions {
  std::string query = "agg";  // agg | join.
  Timestamp win = 18000;
  Timestamp slide = 1800;
  int64_t windows = 10;
  int32_t nodes = 30;
  int32_t reducers = 16;
  double rps = 8.0;
  int32_t record_bytes = 2 * kBytesPerMB;
  Timestamp batch_interval = 600;
  uint64_t seed = 1998;
  bool spiked = false;
  double spike_multiplier = 2.0;
  double proactive_threshold = 0.15;
  int32_t threads = 0;  // 0 = auto (hardware_concurrency).
  int64_t cache_budget_bytes = 0;  // 0 = unbounded.
  std::vector<std::string> systems = {"hadoop", "redoop"};
  std::string trace_path;
  std::string events_path;
  std::string metrics_path;
  Config cluster_config;
};

void PrintUsage() {
  std::printf(
      "redoop_cli — recurring-query experiment runner\n\n"
      "  --query=agg|join           query kind (default agg)\n"
      "  --win=SECONDS              window size (default 18000)\n"
      "  --slide=SECONDS            slide / execution period (default 1800)\n"
      "  --windows=N                recurrences to run (default 10)\n"
      "  --nodes=N                  cluster size (default 30)\n"
      "  --reducers=N               reduce partitions (default 16)\n"
      "  --rps=R                    records/second/source (default 8)\n"
      "  --record-bytes=B           logical record size (default 2 MiB)\n"
      "  --batch-interval=SECONDS   arrival batch size (default 600)\n"
      "  --seed=S                   workload seed (default 1998)\n"
      "  --spiked                   double the rate on windows 2,3,5,6,...\n"
      "  --spike-multiplier=M       spike factor (default 2)\n"
      "  --proactive-threshold=F    adaptive budget fraction (default 0.15)\n"
      "  --threads=N                host worker threads for task payloads\n"
      "                             and feed generation, N >= 1 (default:\n"
      "                             all hardware threads; results are\n"
      "                             identical at any setting)\n"
      "  --cache-budget-bytes=N     logical-byte budget of each Redoop\n"
      "                             driver's cache store (default 0 =\n"
      "                             unbounded)\n"
      "  --systems=a,b,...          any of hadoop, redoop, adaptive,\n"
      "                             redoop-nocache, redoop-inputonly\n"
      "  --trace-out=FILE           write a chrome://tracing timeline (task\n"
      "                             slices, cache lifetimes, counter series;\n"
      "                             --trace= is an alias)\n"
      "  --events-out=FILE          write the structured decision-event\n"
      "                             journal (JSONL, one event per line)\n"
      "  --metrics-out=FILE         write end-of-run metric snapshots as\n"
      "                             JSON keyed by system\n"
      "  --set KEY=VALUE            raw cluster-config override (repeatable)\n"
      "  --help                     this text\n\n"
      "exit codes: 0 ok, 1 bad flags/geometry, 2 unknown system,\n"
      "            3 result mismatch, 4 unwritable output path,\n"
      "            5 driver returned an error\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    } else if (arg == "--spiked") {
      options->spiked = true;
    } else if (arg == "--set") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--set requires KEY=VALUE\n");
        return false;
      }
      const std::string kv = argv[++i];
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--set requires KEY=VALUE, got %s\n", kv.c_str());
        return false;
      }
      options->cluster_config.Set(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (ParseFlag(arg, "query", &value)) {
      options->query = value;
    } else if (ParseFlag(arg, "win", &value)) {
      if (!ParseIntFlag("win", value, 1, &options->win)) return false;
    } else if (ParseFlag(arg, "slide", &value)) {
      if (!ParseIntFlag("slide", value, 1, &options->slide)) return false;
    } else if (ParseFlag(arg, "windows", &value)) {
      if (!ParseIntFlag("windows", value, 1, &options->windows)) return false;
    } else if (ParseFlag(arg, "nodes", &value)) {
      if (!ParseIntFlag("nodes", value, 1, &options->nodes)) return false;
    } else if (ParseFlag(arg, "reducers", &value)) {
      if (!ParseIntFlag("reducers", value, 1, &options->reducers)) {
        return false;
      }
    } else if (ParseFlag(arg, "rps", &value)) {
      if (!ParseDoubleFlag("rps", value, 0.0, &options->rps)) return false;
    } else if (ParseFlag(arg, "record-bytes", &value)) {
      if (!ParseIntFlag("record-bytes", value, 0, &options->record_bytes)) {
        return false;
      }
    } else if (ParseFlag(arg, "batch-interval", &value)) {
      if (!ParseIntFlag("batch-interval", value, 1,
                        &options->batch_interval)) {
        return false;
      }
    } else if (ParseFlag(arg, "seed", &value)) {
      if (!ParseIntFlag("seed", value, 0, &options->seed)) return false;
    } else if (ParseFlag(arg, "spike-multiplier", &value)) {
      if (!ParseDoubleFlag("spike-multiplier", value, 0.0,
                           &options->spike_multiplier)) {
        return false;
      }
    } else if (ParseFlag(arg, "proactive-threshold", &value)) {
      if (!ParseDoubleFlag("proactive-threshold", value, 0.0,
                           &options->proactive_threshold)) {
        return false;
      }
    } else if (ParseFlag(arg, "threads", &value)) {
      if (!ParseIntFlag("threads", value, 1, &options->threads)) return false;
    } else if (ParseFlag(arg, "cache-budget-bytes", &value)) {
      if (!ParseIntFlag("cache-budget-bytes", value, 0,
                        &options->cache_budget_bytes)) {
        return false;
      }
    } else if (ParseFlag(arg, "systems", &value)) {
      options->systems = SplitString(value, ',');
    } else if (ParseFlag(arg, "trace", &value) ||
               ParseFlag(arg, "trace-out", &value)) {
      options->trace_path = value;
    } else if (ParseFlag(arg, "events-out", &value)) {
      options->events_path = value;
    } else if (ParseFlag(arg, "metrics-out", &value)) {
      options->metrics_path = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::shared_ptr<const RateProfile> MakeRate(const CliOptions& options) {
  if (!options.spiked) return std::make_shared<ConstantRate>(options.rps);
  return std::make_shared<WindowSpikeRate>(
      options.rps, options.spike_multiplier, options.win, options.slide,
      WindowSpikeRate::PaperSpikePattern(options.windows));
}

std::unique_ptr<SyntheticFeed> MakeFeed(const CliOptions& options) {
  auto feed =
      std::make_unique<SyntheticFeed>(options.batch_interval, options.threads);
  if (options.query == "join") {
    FfgGeneratorOptions gen;
    gen.seed = options.seed;
    gen.grid_cells_x = 180;
    gen.grid_cells_y = 180;
    gen.record_logical_bytes = options.record_bytes;
    auto rate = MakeRate(options);
    feed->AddSource(1, std::make_shared<FfgGenerator>(rate, gen));
    feed->AddSource(2, std::make_shared<FfgGenerator>(rate, gen));
  } else {
    WccGeneratorOptions gen;
    gen.seed = options.seed;
    gen.record_logical_bytes = options.record_bytes;
    feed->AddSource(1, std::make_shared<WccGenerator>(MakeRate(options), gen));
  }
  return feed;
}

RecurringQuery MakeQuery(const CliOptions& options) {
  if (options.query == "join") {
    return MakeJoinQuery(1, "cli-join", 1, 2, options.win, options.slide,
                         options.reducers);
  }
  return MakeAggregationQuery(1, "cli-agg", 1, options.win, options.slide,
                              options.reducers);
}

StatusOr<RunReport> RunSystem(const CliOptions& options,
                              const std::string& system,
                              obs::ObservabilityContext* ctx) {
  ctx->journal().SetCommonField("system", system);
  const RecurringQuery query = MakeQuery(options);
  Cluster cluster(options.nodes, options.cluster_config);
  auto feed = MakeFeed(options);
  if (system == "hadoop") {
    JobRunnerOptions runner_options;
    runner_options.obs = ctx;
    runner_options.threads = options.threads;
    HadoopRecurringDriver driver(&cluster, feed.get(), query, runner_options);
    return driver.Run(options.windows);
  }
  RedoopDriverOptions::Builder builder;
  builder.Observability(ctx)
      .Threads(options.threads)
      .CacheBudgetBytes(options.cache_budget_bytes);
  if (system == "adaptive") {
    builder.Adaptive(true).ProactiveThreshold(options.proactive_threshold);
  } else if (system == "redoop-nocache") {
    builder.CacheReduceInput(false).CacheReduceOutput(false);
  } else if (system == "redoop-inputonly") {
    builder.CacheReduceOutput(false);
  } else if (system != "redoop") {
    std::fprintf(stderr, "unknown system '%s'\n", system.c_str());
    std::exit(2);
  }
  RedoopDriver driver(&cluster, feed.get(), query, builder.Build());
  StatusOr<RunReport> run = driver.Run(options.windows);
  if (run.ok()) run->system = system;
  return run;
}

/// Probes that an output path is writable before any simulation runs, so a
/// bad --trace-out/--events-out/--metrics-out fails fast instead of after
/// minutes of simulated work. Opens in append mode: existing files are not
/// truncated by the probe.
bool ValidateOutputPath(const char* flag, const std::string& path) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "%s: cannot open '%s' for writing (missing directory or "
                 "permission denied)\n",
                 flag, path.c_str());
    return false;
  }
  std::fclose(f);
  return true;
}

/// Writes the --events-out journal and the --trace-out timeline drawn
/// from `contexts`, one per system run. Returns 0, or 4 when a file cannot
/// be written.
int WriteJournalsAndTrace(
    const CliOptions& options,
    const std::vector<std::unique_ptr<obs::ObservabilityContext>>& contexts) {
  if (!options.events_path.empty()) {
    std::string jsonl;
    size_t events = 0;
    for (const auto& ctx : contexts) {
      jsonl += ctx->journal().ToJsonl();
      events += ctx->journal().size();
    }
    std::FILE* f = std::fopen(options.events_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open events file: %s\n",
                   options.events_path.c_str());
      return 4;
    }
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
    std::printf("event journal with %zu events written to %s\n", events,
                options.events_path.c_str());
  }

  if (!options.trace_path.empty()) {
    // Task, cache-lifetime and counter lanes, reconstructed from the
    // decision journals.
    obs::trace::TraceWriter writer;
    for (const auto& ctx : contexts) {
      writer.AddJournal(ctx->journal());
    }
    const Status status = writer.WriteFile(options.trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.ToString().c_str());
      return 4;
    }
    std::printf("trace with %zu events written to %s\n",
                writer.event_count(), options.trace_path.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return 1;
  if (options.win <= 0 || options.slide <= 0 || options.slide > options.win) {
    std::fprintf(stderr, "invalid window geometry: win=%ld slide=%ld\n",
                 options.win, options.slide);
    return 1;
  }
  // The drivers ingest up to each window's end, which the feed serves only
  // in whole batches.
  if (options.win % options.batch_interval != 0 ||
      options.slide % options.batch_interval != 0) {
    std::fprintf(stderr,
                 "--win=%ld and --slide=%ld must be multiples of "
                 "--batch-interval=%ld\n",
                 options.win, options.slide, options.batch_interval);
    return 1;
  }
  if (!ValidateOutputPath("--trace-out", options.trace_path) ||
      !ValidateOutputPath("--events-out", options.events_path) ||
      !ValidateOutputPath("--metrics-out", options.metrics_path)) {
    return 4;
  }

  const WindowSpec spec{options.win, options.slide};
  std::printf("query=%s  win=%ld s  slide=%ld s  overlap=%.2f  pane=%ld s\n",
              options.query.c_str(), options.win, options.slide,
              spec.Overlap(), Gcd(options.win, options.slide));
  std::printf("nodes=%d  reducers=%d  rps=%.2f  record=%s  windows=%ld%s\n",
              options.nodes, options.reducers, options.rps,
              HumanBytes(options.record_bytes).c_str(), options.windows,
              options.spiked ? "  (spiked)" : "");
  if (options.cache_budget_bytes > 0) {
    std::printf("cache budget=%s per Redoop driver\n",
                HumanBytes(options.cache_budget_bytes).c_str());
  }
  std::printf("\n");

  std::vector<RunReport> reports;
  std::vector<std::unique_ptr<obs::ObservabilityContext>> contexts;
  for (const std::string& system : options.systems) {
    contexts.push_back(std::make_unique<obs::ObservabilityContext>());
    StatusOr<RunReport> run =
        RunSystem(options, system, contexts.back().get());
    if (!run.ok()) {
      // Typed driver errors (bad pane override, unregistered source, a
      // missing pane-pair output, ...) get their own exit code, distinct
      // from flag-parse failures. The journals of the systems run so far,
      // the failing one's included, still show how the run got there.
      std::fprintf(stderr, "driver returned an error [%s]: %s\n",
                   StatusCodeToString(run.status().code()),
                   run.status().message().c_str());
      WriteJournalsAndTrace(options, contexts);
      return 5;
    }
    reports.push_back(std::move(run).value());
  }

  // Cross-check every system's results against the first.
  for (size_t s = 1; s < reports.size(); ++s) {
    for (size_t w = 0; w < reports[0].windows.size(); ++w) {
      const auto& a = reports[0].windows[w].output;
      const auto& b = reports[s].windows[w].output;
      bool same = a.size() == b.size();
      for (size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].key == b[i].key && a[i].value == b[i].value;
      }
      if (!same) {
        std::fprintf(stderr,
                     "RESULT MISMATCH: %s vs %s at window %zu — aborting\n",
                     reports[0].system.c_str(), reports[s].system.c_str(), w);
        return 3;
      }
    }
  }

  std::printf("%-8s", "window");
  for (const RunReport& r : reports) std::printf(" %16s", r.system.c_str());
  std::printf("\n");
  for (size_t w = 0; w < reports[0].windows.size(); ++w) {
    std::printf("%-8zu", w + 1);
    for (const RunReport& r : reports) {
      std::printf(" %16.1f", r.windows[w].response_time);
    }
    std::printf("\n");
  }
  std::printf("%-8s", "total");
  for (const RunReport& r : reports) {
    std::printf(" %16.1f", r.TotalResponseTime());
  }
  std::printf("\n%-8s", "shuffle");
  for (const RunReport& r : reports) {
    std::printf(" %16.1f", r.TotalShuffleTime());
  }
  std::printf("\n%-8s", "reduce");
  for (const RunReport& r : reports) {
    std::printf(" %16.1f", r.TotalReduceTime());
  }
  std::printf("\n");

  // Cache reuse per window (pane + pair grain, from the drivers' hit/miss
  // accounting; the Hadoop baseline caches nothing by design).
  std::printf("\n%-8s", "cache");
  for (const RunReport& r : reports) std::printf(" %16s", r.system.c_str());
  std::printf("   (hits/misses per window)\n");
  for (size_t w = 0; w < reports[0].windows.size(); ++w) {
    std::printf("%-8zu", w + 1);
    for (const RunReport& r : reports) {
      const Counters& c = r.windows[w].counters;
      const int64_t hits = c.Get(counter::kCachePaneHits) +
                           c.Get(counter::kCachePairHits);
      const int64_t misses = c.Get(counter::kCachePaneMisses) +
                             c.Get(counter::kCachePairMisses);
      std::printf(" %16s",
                  StringPrintf("%ld/%ld", hits, misses).c_str());
    }
    std::printf("\n");
  }
  std::printf("%-8s", "hit%");
  for (const RunReport& r : reports) {
    const obs::MetricsSnapshot& m = r.observability;
    const int64_t hits = m.Counter(obs::metric::kCachePaneHits) +
                         m.Counter(obs::metric::kCachePairHits);
    const int64_t misses = m.Counter(obs::metric::kCachePaneMisses) +
                           m.Counter(obs::metric::kCachePairMisses);
    const double rate = hits + misses > 0
                            ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(hits + misses)
                            : 0.0;
    std::printf(" %16.1f", rate);
  }
  std::printf("\n\nall systems produced identical results in every window\n");

  if (!options.metrics_path.empty()) {
    std::string json = "{\n";
    for (size_t i = 0; i < reports.size(); ++i) {
      std::string body = reports[i].observability.ToJson();
      while (!body.empty() && body.back() == '\n') body.pop_back();
      json += "\"" + reports[i].system + "\": " + body;
      json += i + 1 < reports.size() ? ",\n" : "\n";
    }
    json += "}\n";
    std::FILE* f = std::fopen(options.metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open metrics file: %s\n",
                   options.metrics_path.c_str());
      return 4;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("metric snapshots for %zu systems written to %s\n",
                reports.size(), options.metrics_path.c_str());
  }

  return WriteJournalsAndTrace(options, contexts);
}

}  // namespace
}  // namespace redoop

int main(int argc, char** argv) { return redoop::Main(argc, argv); }
