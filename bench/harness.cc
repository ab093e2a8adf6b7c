// bench_harness — the experiment front end. Runs every suite in one
// process and emits a canonical BENCH JSON document of flat dotted
// metrics:
//
//   {"bench": "redoop", "schema": 1, "config": "full", "metrics": {
//    "fig6.overlap_90.warm_speedup": 7.9, ...}}
//
// Suites, in run order:
//   fig6, fig7, fig8, fig9   the paper's Figs. 6-9
//   ablation_cache           cache tiers and the combiner baseline
//   ablation_scheduler       cache-aware vs cache-blind reduce placement
//   overlap_sweep            the fig6 aggregation at overlaps 0.3/0.7/0.8
//   scalability              the fig6 aggregation on 1/3, 2/3 and 1.5x
//                            the cluster
//   stragglers               slow task attempts, speculation off and on
//   consolidation            two queries on one cluster vs one each
//   cache_policy             cache byte-budget ladder
//   fleet                    multi-tenant serving sweep
//   multicore                host wall-clock at 1/2/8 threads
//
// All metrics are simulated-time quantities, so the document is
// byte-identical across runs of the same binary — it is diffable with
// `redoop_analyze diff` and checked against a baseline in CI.
//
// Flags:
//   --smoke       small configuration (6 nodes, 3 windows, 30-min window)
//                 for CI perf-smoke; full paper scale otherwise
//   --out=FILE    write the BENCH JSON there (default BENCH_redoop.json)
//   --only=SUBSTR run only suites whose name contains SUBSTR
//   --threads=N   host worker threads for task payloads and feed
//                 generation, N >= 1 (default 1; simulated metrics are
//                 identical at any setting)
//   --journal-out=FILE
//                 dump the fig7 overlap_90 redoop run's journal (JSONL)
//                 there; redoop_inspect reproduces the fig7 per_query
//                 metrics from that file alone
//
// Host wall-clock per bench is printed to stdout at every scale, and also
// recorded as host.* metrics at full scale only — the smoke document must
// stay byte-identical across runs, so nondeterministic host timings never
// enter it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/hadoop_driver.h"
#include "bench/bench_util.h"
#include "bench/cache_policy_sweep.h"
#include "bench/fleet_sweep.h"
#include "common/string_utils.h"
#include "core/multi_query.h"
#include "core/redoop_driver.h"
#include "exec/task_executor.h"
#include "mapreduce/kv_arena.h"
#include "obs/analysis/analysis.h"
#include "obs/observability.h"
#include "obs/slo/slo_tracker.h"
#include "queries/aggregation_query.h"
#include "queries/join_query.h"
#include "workload/ffg_generator.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace redoop::bench {
namespace {

/// Host worker threads for task payloads and feed generation (--threads).
/// Purely a wall-clock knob: every simulated metric is identical at any
/// setting.
int32_t g_threads = 1;

/// When non-empty, the fig7 overlap_90 redoop run dumps its journal here
/// (--journal-out). One fixed, deterministic capture: the CI golden for
/// redoop_inspect is diffed against reports derived from this file.
std::string g_journal_out;

/// Experiment scale. "full" is the paper testbed; "smoke" shrinks every
/// axis so the whole suite runs in CI seconds while keeping the same
/// qualitative shape (cache wins, adaptive smoothing, failure overheads).
struct Scale {
  const char* name = "full";
  int32_t nodes = kClusterNodes;
  int64_t windows = kNumWindows;
  Timestamp win = kWin;
  Timestamp batch_interval = kBatchInterval;
  int32_t reducers = kNumReducers;
  double rps_factor = 1.0;
  double fail_delay_s = 400.0;  // Node-failure injection offset (fig9).
};

Scale FullScale() { return Scale(); }

Scale SmokeScale() {
  Scale s;
  s.name = "smoke";
  s.nodes = 6;
  s.windows = 3;
  s.win = 1800;
  s.batch_interval = 60;
  s.reducers = 4;
  s.rps_factor = 0.25;
  s.fail_delay_s = 40.0;
  return s;
}

/// Workload shape for one experiment (scale-independent part).
struct WorkloadSpec {
  double overlap = 0.9;
  double rps = 8.0;  // Paper-scale records/second/source.
  int32_t record_bytes = 2 * kBytesPerMB;
  std::vector<int64_t> spiked_windows;
  double spike_multiplier = 2.0;
  uint64_t seed = 1998;
};

Timestamp SlideFor(const Scale& scale, double overlap) {
  return static_cast<Timestamp>(
      std::llround(static_cast<double>(scale.win) * (1.0 - overlap)));
}

std::shared_ptr<const RateProfile> MakeScaledRate(const Scale& scale,
                                                  const WorkloadSpec& w) {
  const double rps = w.rps * scale.rps_factor;
  if (w.spiked_windows.empty()) return std::make_shared<ConstantRate>(rps);
  return std::make_shared<WindowSpikeRate>(rps, w.spike_multiplier, scale.win,
                                           SlideFor(scale, w.overlap),
                                           w.spiked_windows);
}

std::unique_ptr<SyntheticFeed> MakeScaledWccFeed(const Scale& scale,
                                                 const WorkloadSpec& w) {
  auto feed = std::make_unique<SyntheticFeed>(scale.batch_interval, g_threads);
  WccGeneratorOptions options;
  options.seed = w.seed;
  options.record_logical_bytes = w.record_bytes;
  feed->AddSource(1, std::make_shared<WccGenerator>(MakeScaledRate(scale, w),
                                                    options));
  return feed;
}

std::unique_ptr<SyntheticFeed> MakeScaledFfgFeed(const Scale& scale,
                                                 const WorkloadSpec& w) {
  auto feed = std::make_unique<SyntheticFeed>(scale.batch_interval, g_threads);
  FfgGeneratorOptions options;
  options.seed = w.seed;
  options.grid_cells_x = 180;
  options.grid_cells_y = 180;
  options.record_logical_bytes = w.record_bytes;
  auto rate = MakeScaledRate(scale, w);
  feed->AddSource(1, std::make_shared<FfgGenerator>(rate, options));
  feed->AddSource(2, std::make_shared<FfgGenerator>(rate, options));
  return feed;
}

/// One run's report plus its analyzed journal (critical path, slot-wait,
/// cache attribution).
struct AnalyzedRun {
  RunReport report;
  double critical_path_s = 0.0;
  double critical_wait_s = 0.0;
  double slot_wait_s = 0.0;  // Total task slot-wait, not just on-path.
  double cache_hit_rate = 0.0;
  int64_t cache_hit_bytes = 0;  // Logical bytes served from cache.
  int64_t stragglers = 0;
  /// Per-query SLO rollup (deadline attainment, lag) from the same
  /// journal, grouped by query label.
  obs::slo::SloReport slo;
};

void Analyze(const obs::ObservabilityContext& ctx, AnalyzedRun* run) {
  obs::analysis::RunAnalysis analysis;
  const Status status =
      AnalyzeJournal(ctx.journal(), obs::analysis::AnalysisOptions(), &analysis);
  if (!status.ok() || analysis.systems.empty()) return;
  const obs::analysis::SystemAnalysis& s = analysis.systems[0];
  run->critical_path_s = s.TotalCriticalPath();
  run->critical_wait_s = s.TotalCriticalPathWait();
  run->slot_wait_s = s.TotalMapPhases().wait + s.TotalReducePhases().wait;
  const obs::analysis::CacheStats cache = s.TotalCache();
  run->cache_hit_rate = cache.HitRate();
  run->cache_hit_bytes = cache.hit_bytes;
  run->stragglers = s.TotalStragglers();
  obs::analysis::AnalysisOptions per_query;
  per_query.group_by_query = true;
  run->slo = obs::slo::ComputeSlo(ctx.journal(), per_query);
}

AnalyzedRun RunHadoopAnalyzed(const Scale& scale, const RecurringQuery& query,
                              SyntheticFeed* feed,
                              JobRunnerOptions options = {}) {
  obs::ObservabilityContext ctx;
  ctx.journal().SetCommonField("system", "hadoop");
  Cluster cluster(scale.nodes, Config());
  options.obs = &ctx;
  options.threads = g_threads;
  HadoopRecurringDriver driver(&cluster, feed, query, options);
  AnalyzedRun run;
  run.report = Unwrap(driver.Run(scale.windows));
  Analyze(ctx, &run);
  return run;
}

AnalyzedRun RunRedoopAnalyzed(const Scale& scale, const RecurringQuery& query,
                              SyntheticFeed* feed,
                              RedoopDriverOptions options = {},
                              bool dump_journal = false) {
  obs::ObservabilityContext ctx;
  ctx.journal().SetCommonField("system", "redoop");
  Cluster cluster(scale.nodes, Config());
  options.obs = &ctx;
  options.runner.threads = g_threads;
  RedoopDriver driver(&cluster, feed, query, options);
  AnalyzedRun run;
  run.report = Unwrap(driver.Run(scale.windows));
  Analyze(ctx, &run);
  if (dump_journal && !g_journal_out.empty()) {
    const std::string jsonl = ctx.journal().ToJsonl();
    std::FILE* f = std::fopen(g_journal_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   g_journal_out.c_str());
    } else {
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
      std::printf("journal written to %s\n", g_journal_out.c_str());
    }
  }
  return run;
}

/// Ordered metric accumulator; insertion order is emission order, which
/// keeps the BENCH JSON deterministic.
class Metrics {
 public:
  void Add(const std::string& key, double value) {
    values_.emplace_back(key, value);
  }

  std::string ToJson(const char* config) const {
    std::string out = StringPrintf(
        "{\"bench\": \"redoop\", \"schema\": 1, \"config\": \"%s\", "
        "\"metrics\": {\n",
        config);
    for (size_t i = 0; i < values_.size(); ++i) {
      out += StringPrintf("\"%s\": %s%s\n", values_[i].first.c_str(),
                          obs::FormatDouble(values_[i].second).c_str(),
                          i + 1 < values_.size() ? "," : "");
    }
    out += "}}\n";
    return out;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

void AddPairMetrics(const std::string& prefix, const AnalyzedRun& hadoop,
                    const AnalyzedRun& redoop, Metrics* metrics) {
  metrics->Add(prefix + ".hadoop_total_s", hadoop.report.TotalResponseTime());
  metrics->Add(prefix + ".redoop_total_s", redoop.report.TotalResponseTime());
  metrics->Add(prefix + ".warm_speedup",
               WarmSpeedup(hadoop.report, redoop.report));
  metrics->Add(prefix + ".hadoop_shuffle_s", hadoop.report.TotalShuffleTime());
  metrics->Add(prefix + ".redoop_shuffle_s", redoop.report.TotalShuffleTime());
  metrics->Add(prefix + ".hadoop_reduce_s", hadoop.report.TotalReduceTime());
  metrics->Add(prefix + ".redoop_reduce_s", redoop.report.TotalReduceTime());
  metrics->Add(prefix + ".hadoop_critical_path_s", hadoop.critical_path_s);
  metrics->Add(prefix + ".redoop_critical_path_s", redoop.critical_path_s);
  metrics->Add(prefix + ".hadoop_slot_wait_s", hadoop.slot_wait_s);
  metrics->Add(prefix + ".redoop_slot_wait_s", redoop.slot_wait_s);
  metrics->Add(prefix + ".redoop_cache_hit_rate", redoop.cache_hit_rate);
  metrics->Add(prefix + ".redoop_cache_hit_gb",
               static_cast<double>(redoop.cache_hit_bytes) / 1e9);
}

bool g_results_matched = true;

void CheckMatch(const char* bench, const RunReport& a, const RunReport& b) {
  if (ResultsMatch(a, b)) return;
  std::fprintf(stderr, "%s: %s and %s produced different results\n", bench,
               a.system.c_str(), b.system.c_str());
  g_results_matched = false;
}

std::string OverlapKey(double overlap) {
  return StringPrintf("overlap_%d",
                      static_cast<int>(std::llround(overlap * 100.0)));
}

// --- fig6: recurring aggregation, Hadoop vs Redoop, 3 overlaps ----------

/// One fig6-shaped cell: the WCC aggregation at `overlap` on both systems
/// with the same engine options, results cross-checked, pair rows under
/// `prefix`.
void RunAggregationPair(const Scale& scale, QueryId id,
                        const std::string& name, double overlap,
                        const JobRunnerOptions& runner,
                        const std::string& prefix, Metrics* metrics) {
  WorkloadSpec w;
  w.overlap = overlap;
  w.rps = 8.0;
  const RecurringQuery query = MakeAggregationQuery(
      id, name, 1, scale.win, SlideFor(scale, overlap), scale.reducers);
  auto hadoop_feed = MakeScaledWccFeed(scale, w);
  const AnalyzedRun hadoop =
      RunHadoopAnalyzed(scale, query, hadoop_feed.get(), runner);
  RedoopDriverOptions options;
  options.runner = runner;
  auto redoop_feed = MakeScaledWccFeed(scale, w);
  const AnalyzedRun redoop =
      RunRedoopAnalyzed(scale, query, redoop_feed.get(), options);
  CheckMatch(prefix.c_str(), hadoop.report, redoop.report);
  AddPairMetrics(prefix, hadoop, redoop, metrics);
}

void RunFig6(const Scale& scale, Metrics* metrics) {
  for (const double overlap : {0.9, 0.5, 0.1}) {
    RunAggregationPair(scale, 1, "fig6-agg", overlap, {},
                       "fig6." + OverlapKey(overlap), metrics);
  }
}

// --- fig7: recurring join, Hadoop vs Redoop, 3 overlaps -----------------

WorkloadSpec JoinWorkload(double overlap) {
  WorkloadSpec w;
  w.overlap = overlap;
  w.rps = 2.5;
  w.record_bytes = 512 * 1024;
  w.seed = 2013;
  return w;
}

void RunFig7(const Scale& scale, Metrics* metrics) {
  for (const double overlap : {0.9, 0.5, 0.1}) {
    const WorkloadSpec w = JoinWorkload(overlap);
    const RecurringQuery query =
        MakeJoinQuery(2, "fig7-join", 1, 2, scale.win,
                      SlideFor(scale, overlap), scale.reducers);
    auto hadoop_feed = MakeScaledFfgFeed(scale, w);
    const AnalyzedRun hadoop =
        RunHadoopAnalyzed(scale, query, hadoop_feed.get());
    auto redoop_feed = MakeScaledFfgFeed(scale, w);
    const AnalyzedRun redoop = RunRedoopAnalyzed(
        scale, query, redoop_feed.get(), {}, /*dump_journal=*/overlap == 0.9);
    CheckMatch("fig7", hadoop.report, redoop.report);
    const std::string prefix = "fig7." + OverlapKey(overlap);
    AddPairMetrics(prefix, hadoop, redoop, metrics);
    // Per-query SLO rollup from the redoop journal. redoop_inspect must
    // reproduce these figures from the --journal-out capture alone.
    for (const obs::slo::QuerySlo& q : redoop.slo.queries) {
      const std::string qp = prefix + ".per_query." +
                             (q.query.empty() ? "unattributed" : q.query);
      metrics->Add(qp + ".windows", static_cast<double>(q.windows));
      metrics->Add(qp + ".attainment", q.Attainment());
      metrics->Add(qp + ".lag_total_s", q.total_lag_s);
      metrics->Add(qp + ".response_mean_s", q.MeanResponse());
      metrics->Add(qp + ".cache_hit_rate", q.CacheHitRate());
      metrics->Add(qp + ".slot_wait_s", q.slot_wait_s);
    }
  }
}

// --- fig8: adaptive partitioning under spikes ---------------------------

void RunFig8(const Scale& scale, Metrics* metrics) {
  for (const double overlap : {0.9, 0.5, 0.1}) {
    WorkloadSpec w;
    w.overlap = overlap;
    w.rps = 10.0;
    w.spiked_windows = WindowSpikeRate::PaperSpikePattern(scale.windows);
    const RecurringQuery query =
        MakeAggregationQuery(3, "fig8-agg", 1, scale.win,
                             SlideFor(scale, overlap), scale.reducers);
    RedoopDriverOptions adaptive_options;
    adaptive_options.adaptive.enabled = true;
    adaptive_options.adaptive.proactive_threshold = 0.15;

    auto hadoop_feed = MakeScaledWccFeed(scale, w);
    const AnalyzedRun hadoop =
        RunHadoopAnalyzed(scale, query, hadoop_feed.get());
    auto redoop_feed = MakeScaledWccFeed(scale, w);
    const AnalyzedRun redoop =
        RunRedoopAnalyzed(scale, query, redoop_feed.get());
    auto adaptive_feed = MakeScaledWccFeed(scale, w);
    const AnalyzedRun adaptive =
        RunRedoopAnalyzed(scale, query, adaptive_feed.get(), adaptive_options);
    CheckMatch("fig8", hadoop.report, redoop.report);
    CheckMatch("fig8", hadoop.report, adaptive.report);

    const std::string prefix = "fig8." + OverlapKey(overlap);
    metrics->Add(prefix + ".hadoop_total_s",
                 hadoop.report.TotalResponseTime());
    metrics->Add(prefix + ".redoop_total_s",
                 redoop.report.TotalResponseTime());
    metrics->Add(prefix + ".adaptive_total_s",
                 adaptive.report.TotalResponseTime());
    const double adaptive_total = adaptive.report.TotalResponseTime();
    metrics->Add(prefix + ".adaptive_speedup_vs_redoop",
                 adaptive_total > 0.0
                     ? redoop.report.TotalResponseTime() / adaptive_total
                     : 0.0);
    metrics->Add(prefix + ".adaptive_speedup_vs_hadoop",
                 adaptive_total > 0.0
                     ? hadoop.report.TotalResponseTime() / adaptive_total
                     : 0.0);
    metrics->Add(prefix + ".adaptive_critical_path_s",
                 adaptive.critical_path_s);
  }
}

// --- fig9: fault tolerance ----------------------------------------------

enum class Injection { kNone, kNodeFailure, kCacheRemoval };

/// Per-window failure injection from the second window on. kNodeFailure
/// kills a rotating node fail_delay_s into the window; kCacheRemoval
/// wipes the victim's cache files for the window's oldest pane before the
/// window runs. The report's observability snapshot is built as Run()
/// builds it.
template <typename Driver>
RunReport RunWithFailures(const Scale& scale, Cluster* cluster, Driver* driver,
                          const std::string& label, Injection injection) {
  RunReport report;
  report.system = label;
  for (int64_t i = 0; i < scale.windows; ++i) {
    const NodeId victim = static_cast<NodeId>(1 + i % (scale.nodes - 1));
    if (injection == Injection::kNodeFailure && i >= 1) {
      const SimTime trigger =
          static_cast<SimTime>(driver->geometry().TriggerTime(i));
      const SimTime when = std::max(cluster->simulator().Now(), trigger) +
                           scale.fail_delay_s;
      cluster->simulator().ScheduleAt(
          when, [cluster, victim] { cluster->FailNode(victim); });
    } else if (injection == Injection::kCacheRemoval && i >= 1) {
      const PaneId target = driver->geometry().PanesForRecurrence(i).first;
      const std::string marker = StringPrintf("P%ld_R", target);
      for (const std::string& file : cluster->node(victim).LocalFileNames()) {
        if (file.find(marker) != std::string::npos) {
          cluster->InjectCacheLoss(victim, file);
        }
      }
    }
    report.windows.push_back(Unwrap(driver->RunRecurrence(i)));
    if (injection == Injection::kNodeFailure && i >= 1) {
      cluster->RecoverNode(victim);
      cluster->dfs().ReplicateMissing();
    }
  }
  report.observability = RunObservability(*driver->observability());
  return report;
}

AnalyzedRun RunFig9Case(const Scale& scale, const RecurringQuery& query,
                        const WorkloadSpec& w, const std::string& label,
                        bool redoop, Injection injection) {
  obs::ObservabilityContext ctx;
  ctx.journal().SetCommonField("system", label);
  Cluster cluster(scale.nodes, Config());
  auto feed = MakeScaledFfgFeed(scale, w);
  AnalyzedRun run;
  if (redoop) {
    RedoopDriverOptions options;
    options.obs = &ctx;
    options.runner.threads = g_threads;
    RedoopDriver driver(&cluster, feed.get(), query, options);
    run.report = RunWithFailures(scale, &cluster, &driver, label, injection);
  } else {
    JobRunnerOptions options;
    options.obs = &ctx;
    options.threads = g_threads;
    HadoopRecurringDriver driver(&cluster, feed.get(), query, options);
    run.report = RunWithFailures(scale, &cluster, &driver, label, injection);
  }
  Analyze(ctx, &run);
  return run;
}

void RunFig9(const Scale& scale, Metrics* metrics) {
  WorkloadSpec w = JoinWorkload(0.5);
  w.rps = 4.0;
  w.record_bytes = 2 * kBytesPerMB;
  const RecurringQuery query =
      MakeAggregationQuery(4, "fig9-agg", 1, scale.win, SlideFor(scale, 0.5),
                           scale.reducers);

  const AnalyzedRun hadoop =
      RunFig9Case(scale, query, w, "hadoop", false, Injection::kNone);
  const AnalyzedRun hadoop_f = RunFig9Case(scale, query, w, "hadoop_f", false,
                                           Injection::kNodeFailure);
  const AnalyzedRun redoop =
      RunFig9Case(scale, query, w, "redoop", true, Injection::kNone);
  const AnalyzedRun redoop_f = RunFig9Case(scale, query, w, "redoop_f", true,
                                           Injection::kCacheRemoval);
  CheckMatch("fig9", hadoop.report, hadoop_f.report);
  CheckMatch("fig9", hadoop.report, redoop.report);
  CheckMatch("fig9", hadoop.report, redoop_f.report);

  metrics->Add("fig9.hadoop_total_s", hadoop.report.TotalResponseTime());
  metrics->Add("fig9.hadoop_f_total_s", hadoop_f.report.TotalResponseTime());
  metrics->Add("fig9.redoop_total_s", redoop.report.TotalResponseTime());
  metrics->Add("fig9.redoop_f_total_s", redoop_f.report.TotalResponseTime());
  metrics->Add("fig9.redoop_f_critical_path_s", redoop_f.critical_path_s);
  metrics->Add("fig9.redoop_f_cache_hit_rate", redoop_f.cache_hit_rate);
  metrics->Add("fig9.hadoop_f_stragglers",
               static_cast<double>(hadoop_f.stragglers));
}

// --- cache + combiner ablation ------------------------------------------

void RunAblationCache(const Scale& scale, Metrics* metrics) {
  struct Combo {
    bool input;
    bool output;
  };
  const RecurringQuery agg_query =
      MakeAggregationQuery(5, "ablate-agg", 1, scale.win, SlideFor(scale, 0.9),
                           scale.reducers);
  for (const Combo combo :
       {Combo{false, false}, Combo{true, false}, Combo{false, true},
        Combo{true, true}}) {
    WorkloadSpec w;
    RedoopDriverOptions options;
    options.cache.reduce_input = combo.input;
    options.cache.reduce_output = combo.output;
    auto hadoop_feed = MakeScaledWccFeed(scale, w);
    const AnalyzedRun hadoop =
        RunHadoopAnalyzed(scale, agg_query, hadoop_feed.get());
    auto feed = MakeScaledWccFeed(scale, w);
    const AnalyzedRun redoop =
        RunRedoopAnalyzed(scale, agg_query, feed.get(), options);
    CheckMatch("ablation_cache", hadoop.report, redoop.report);
    const std::string prefix = StringPrintf(
        "ablation_cache.agg.in%d_out%d", combo.input, combo.output);
    metrics->Add(prefix + ".total_s", redoop.report.TotalResponseTime());
    metrics->Add(prefix + ".warm_speedup",
                 WarmSpeedup(hadoop.report, redoop.report));
    metrics->Add(prefix + ".cache_hit_rate", redoop.cache_hit_rate);
    metrics->Add(prefix + ".cache_hit_gb",
                 static_cast<double>(redoop.cache_hit_bytes) / 1e9);
  }

  const RecurringQuery join_query =
      MakeJoinQuery(6, "ablate-join", 1, 2, scale.win, SlideFor(scale, 0.9),
                    scale.reducers);
  for (const Combo combo :
       {Combo{false, false}, Combo{true, false}, Combo{true, true}}) {
    const WorkloadSpec w = JoinWorkload(0.9);
    RedoopDriverOptions options;
    options.cache.reduce_input = combo.input;
    options.cache.reduce_output = combo.output;
    auto hadoop_feed = MakeScaledFfgFeed(scale, w);
    const AnalyzedRun hadoop =
        RunHadoopAnalyzed(scale, join_query, hadoop_feed.get());
    auto feed = MakeScaledFfgFeed(scale, w);
    const AnalyzedRun redoop =
        RunRedoopAnalyzed(scale, join_query, feed.get(), options);
    CheckMatch("ablation_cache", hadoop.report, redoop.report);
    const std::string prefix = StringPrintf(
        "ablation_cache.join.in%d_out%d", combo.input, combo.output);
    metrics->Add(prefix + ".total_s", redoop.report.TotalResponseTime());
    metrics->Add(prefix + ".warm_speedup",
                 WarmSpeedup(hadoop.report, redoop.report));
    metrics->Add(prefix + ".cache_hit_rate", redoop.cache_hit_rate);
  }

  for (const bool combiner : {false, true}) {
    WorkloadSpec w;
    const RecurringQuery query =
        MakeAggregationQuery(12, "combine-agg", 1, scale.win,
                             SlideFor(scale, 0.9), scale.reducers, combiner);
    auto hadoop_feed = MakeScaledWccFeed(scale, w);
    const AnalyzedRun hadoop =
        RunHadoopAnalyzed(scale, query, hadoop_feed.get());
    auto redoop_feed = MakeScaledWccFeed(scale, w);
    const AnalyzedRun redoop =
        RunRedoopAnalyzed(scale, query, redoop_feed.get());
    CheckMatch("ablation_cache", hadoop.report, redoop.report);
    const std::string prefix =
        StringPrintf("ablation_cache.combiner_%d", combiner);
    metrics->Add(prefix + ".hadoop_total_s",
                 hadoop.report.TotalResponseTime());
    metrics->Add(prefix + ".redoop_total_s",
                 redoop.report.TotalResponseTime());
    metrics->Add(prefix + ".warm_speedup",
                 WarmSpeedup(hadoop.report, redoop.report));
  }
}

// --- scheduler ablation -------------------------------------------------

void RunAblationScheduler(const Scale& scale, Metrics* metrics) {
  const WorkloadSpec w = JoinWorkload(0.9);
  for (const bool cache_aware : {false, true}) {
    const RecurringQuery query =
        MakeJoinQuery(8, "sched-join", 1, 2, scale.win, SlideFor(scale, 0.9),
                      scale.reducers);
    RedoopDriverOptions options;
    options.scheduler.cache_aware = cache_aware;
    auto feed = MakeScaledFfgFeed(scale, w);
    const AnalyzedRun redoop =
        RunRedoopAnalyzed(scale, query, feed.get(), options);
    const std::string prefix =
        StringPrintf("ablation_scheduler.cache_aware_%d", cache_aware);
    metrics->Add(prefix + ".total_s", redoop.report.TotalResponseTime());
    metrics->Add(prefix + ".remote_cache_gb",
                 SumCounter(redoop.report, counter::kCacheReadRemoteBytes) /
                     1e9);
    metrics->Add(prefix + ".local_cache_gb",
                 SumCounter(redoop.report, counter::kCacheReadLocalBytes) /
                     1e9);
  }
  for (const int load_weight : {0, 30, 300}) {
    const RecurringQuery query =
        MakeJoinQuery(9, "weight-join", 1, 2, scale.win, SlideFor(scale, 0.9),
                      scale.reducers);
    RedoopDriverOptions options;
    options.scheduler.load_weight_s = static_cast<double>(load_weight);
    auto feed = MakeScaledFfgFeed(scale, w);
    const AnalyzedRun redoop =
        RunRedoopAnalyzed(scale, query, feed.get(), options);
    metrics->Add(StringPrintf("ablation_scheduler.load_weight_%d.total_s",
                              load_weight),
                 redoop.report.TotalResponseTime());
  }
}

// --- overlap_sweep: fig6's speedup curve between the paper's points ------

/// The overlaps fig6 leaves out; with fig6's 0.1 / 0.5 / 0.9 cells the
/// warm-speedup curve has six points.
void RunOverlapSweep(const Scale& scale, Metrics* metrics) {
  for (const double overlap : {0.8, 0.7, 0.3}) {
    RunAggregationPair(scale, 10, "sweep-agg", overlap, {},
                       "overlap_sweep." + OverlapKey(overlap), metrics);
  }
}

// --- scalability: cluster size at a fixed workload ----------------------

/// fig6's overlap-0.9 aggregation on 1/3, 2/3 and 1.5x the cluster; the
/// full-size cell is fig6.overlap_90.
void RunScalability(const Scale& scale, Metrics* metrics) {
  for (const int32_t nodes :
       {scale.nodes / 3, scale.nodes * 2 / 3, scale.nodes * 3 / 2}) {
    Scale sized = scale;
    sized.nodes = nodes;
    RunAggregationPair(sized, 11, "scale-agg", 0.9, {},
                       StringPrintf("scalability.nodes_%d", nodes), metrics);
  }
}

// --- stragglers: slow task attempts, speculation off and on -------------

/// 15% of task attempts run 6x slower, on fig6's overlap-0.9 aggregation,
/// with and without Hadoop-style speculative execution.
void RunStragglers(const Scale& scale, Metrics* metrics) {
  for (const bool speculate : {false, true}) {
    JobRunnerOptions runner;
    runner.straggler_probability = 0.15;
    runner.straggler_slowdown = 6.0;
    runner.speculative_execution = speculate;
    runner.seed = 41;
    RunAggregationPair(scale, 13, "straggle-agg", 0.9, runner,
                       StringPrintf("stragglers.speculation_%d", speculate),
                       metrics);
  }
}

// --- consolidation: two queries on one cluster --------------------------

/// Two aggregations over one WCC source (overlaps 0.9 and 0.8), each alone
/// on its own cluster vs both on one cluster through the
/// MultiQueryCoordinator. Each query's results must match across the two
/// setups.
void RunConsolidation(const Scale& scale, Metrics* metrics) {
  Scale s = scale;
  s.windows = std::min<int64_t>(scale.windows, 6);
  WorkloadSpec w;
  w.rps = 8.0;
  const RecurringQuery queries[] = {
      MakeAggregationQuery(21, "mq-a", 1, s.win, SlideFor(s, 0.9),
                           s.reducers),
      MakeAggregationQuery(22, "mq-b", 1, s.win, SlideFor(s, 0.8),
                           s.reducers)};
  RedoopDriverOptions options;
  options.runner.threads = g_threads;

  Cluster cluster(s.nodes, Config());
  auto feed = MakeScaledWccFeed(s, w);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  for (const RecurringQuery& query : queries) {
    coordinator.AddQuery(query, options);
  }
  const std::vector<RunReport> consolidated =
      Unwrap(coordinator.Run(s.windows));

  double isolated_s = 0.0;
  double consolidated_s = 0.0;
  for (size_t q = 0; q < consolidated.size(); ++q) {
    auto isolated_feed = MakeScaledWccFeed(s, w);
    const AnalyzedRun isolated =
        RunRedoopAnalyzed(s, queries[q], isolated_feed.get());
    CheckMatch("consolidation", isolated.report, consolidated[q]);
    isolated_s += isolated.report.TotalResponseTime();
    consolidated_s += consolidated[q].TotalResponseTime();
  }
  metrics->Add("consolidation.isolated_total_s", isolated_s);
  metrics->Add("consolidation.consolidated_total_s", consolidated_s);
  metrics->Add("consolidation.slowdown",
               isolated_s > 0.0 ? consolidated_s / isolated_s : 0.0);
}

// --- cache_policy: byte budget sweep --------------------------------------

/// Budget ladder over the sweep in bench/cache_policy_sweep.h.
/// Any budgeted cell whose window outputs diverge from the unbounded
/// reference fails the whole harness, same as a Hadoop/Redoop mismatch.
void RunCachePolicy(const Scale& scale, Metrics* metrics) {
  CachePolicyScale s;
  s.nodes = scale.nodes;
  s.windows = scale.windows;
  s.win = scale.win;
  s.batch_interval = scale.batch_interval;
  s.reducers = scale.reducers;
  s.rps_factor = scale.rps_factor;
  s.threads = g_threads;
  const CachePolicySweepResult result = RunCachePolicySweep(s);
  for (const auto& [key, value] : CachePolicyMetrics(result)) {
    metrics->Add(key, value);
  }
  if (!result.all_identical) {
    std::fprintf(stderr,
                 "cache_policy: a budgeted run diverged from unbounded\n");
    g_results_matched = false;
  }
}

// --- fleet: multi-tenant serving sweep (DESIGN §17) ---------------------

/// Query-count and cluster-size grid over the shared sweep
/// (bench/fleet_sweep.h): private caches vs shared scans + cross-query
/// dedup + fair share, byte-identity asserted per cell.
void RunFleet(const Scale& scale, Metrics* metrics) {
  FleetSweepScale s = std::strcmp(scale.name, "full") == 0
                          ? FleetFullScale()
                          : FleetSmokeScale();
  s.threads = g_threads;
  const FleetSweepResult result = RunFleetSweep(s);
  for (const auto& [key, value] : FleetMetrics(result)) {
    metrics->Add(key, value);
  }
  for (const FleetCell& c : result.cells) {
    std::printf("  %-6s Q=%-4d nodes=%-5d private %10.1f s  fleet %10.1f s"
                "  speedup %5.2fx  scan savings %5.1f%%  adoptions %lld\n",
                c.label.c_str(), c.queries, c.nodes, c.private_total_s,
                c.fleet_total_s, c.speedup, 100.0 * c.scan_savings,
                static_cast<long long>(c.adoptions));
  }
  if (!result.all_identical) {
    std::fprintf(stderr,
                 "fleet: a fleet run diverged from its private baseline\n");
    g_results_matched = false;
  }
}

// --- multicore: honest host wall-clock at threads ∈ {1, 2, 8} -----------

/// The engine's map hot loop without the simulator around it: synthesize
/// pairs into a flat arena, hash-partition, and radix-sort every partition
/// as executor payloads (what ExecuteMapPayload does per map task). Pure
/// host wall-clock; the data is deterministic so every thread count sorts
/// the same pairs.
double MapPipelineWallS(int32_t threads, size_t pairs) {
  FlatKvBuffer input;
  input.Reserve(pairs);
  char key[32];
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < pairs; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int len = std::snprintf(key, sizeof(key), "user-%llu",
                                  static_cast<unsigned long long>(state >> 40));
    input.Append(std::string_view(key, static_cast<size_t>(len)), "1",
                 static_cast<int32_t>(len) + 9);
  }
  const auto start = std::chrono::steady_clock::now();
  exec::TaskExecutor executor(threads);
  constexpr size_t kPartitions = 16;
  std::vector<std::vector<uint32_t>> parts(kPartitions);
  for (auto& p : parts) p.reserve(pairs / kPartitions + 1);
  std::hash<std::string_view> hasher;
  for (size_t i = 0; i < input.size(); ++i) {
    parts[hasher(input.key(i)) % kPartitions].push_back(
        static_cast<uint32_t>(i));
  }
  std::vector<exec::TaskFuture<int>> futures;
  futures.reserve(kPartitions);
  for (auto& p : parts) {
    futures.push_back(executor.Submit([&input, part = &p] {
      SortSliceIndicesWith(input, *part, KvSortMode::kAuto, nullptr);
      return 0;
    }));
  }
  for (auto& f : futures) f.Wait();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Runs the cache-heavy fig7-style join end-to-end at --threads ∈ {1, 2, 8}
/// plus the map-pipeline kernel at each count. Byte identity across thread
/// counts is asserted at every scale; the wall-clock numbers enter the
/// JSON at full scale only (the smoke document is a byte-compared CI
/// baseline and host time is nondeterministic).
void RunMulticore(const Scale& scale, Metrics* metrics) {
  const bool full = std::strcmp(scale.name, "full") == 0;
  const WorkloadSpec w = JoinWorkload(0.9);
  const int32_t saved_threads = g_threads;
  const RunReport* reference = nullptr;
  std::vector<std::unique_ptr<AnalyzedRun>> runs;
  for (const int32_t threads : {1, 2, 8}) {
    g_threads = threads;
    const RecurringQuery query =
        MakeJoinQuery(10, "multicore-join", 1, 2, scale.win,
                      SlideFor(scale, 0.9), scale.reducers);
    auto feed = MakeScaledFfgFeed(scale, w);
    const auto start = std::chrono::steady_clock::now();
    auto run = std::make_unique<AnalyzedRun>(
        RunRedoopAnalyzed(scale, query, feed.get()));
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (reference != nullptr) CheckMatch("multicore", *reference, run->report);
    const double pipeline_s =
        MapPipelineWallS(threads, full ? 4'000'000 : 200'000);
    std::printf("  threads=%d end-to-end %.2f s, map pipeline %.3f s\n",
                threads, wall_s, pipeline_s);
    if (full) {
      const std::string prefix = StringPrintf("host.multicore.threads_%d",
                                              threads);
      metrics->Add(prefix + ".end_to_end_wall_s", wall_s);
      metrics->Add(prefix + ".map_pipeline_wall_s", pipeline_s);
    }
    runs.push_back(std::move(run));
    reference = &runs.back()->report;
  }
  g_threads = saved_threads;
}

// --- main ---------------------------------------------------------------

int Main(int argc, char** argv) {
  Scale scale = FullScale();
  std::string out_path = "BENCH_redoop.json";
  std::string only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      scale = SmokeScale();
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--only=", 0) == 0) {
      only = arg.substr(7);
    } else if (arg.rfind("--threads=", 0) == 0) {
      int64_t threads = 0;
      if (!ParseInt64(arg.substr(10), &threads) || threads < 1 ||
          threads > INT32_MAX) {
        std::fprintf(stderr, "--threads wants an integer >= 1, got '%s'\n",
                     arg.c_str() + 10);
        return 2;
      }
      g_threads = static_cast<int32_t>(threads);
    } else if (arg.rfind("--journal-out=", 0) == 0) {
      g_journal_out = arg.substr(14);
    } else {
      std::fprintf(stderr,
                   "usage: bench_harness [--smoke] [--out=FILE] "
                   "[--only=SUBSTR] [--threads=N] [--journal-out=FILE]\n");
      return 2;
    }
  }

  struct Bench {
    const char* name;
    void (*run)(const Scale&, Metrics*);
  };
  const Bench benches[] = {
      {"fig6", RunFig6},           {"fig7", RunFig7},
      {"fig8", RunFig8},           {"fig9", RunFig9},
      {"ablation_cache", RunAblationCache},
      {"ablation_scheduler", RunAblationScheduler},
      {"overlap_sweep", RunOverlapSweep},
      {"scalability", RunScalability},
      {"stragglers", RunStragglers},
      {"consolidation", RunConsolidation},
      {"cache_policy", RunCachePolicy},
      {"fleet", RunFleet},
      {"multicore", RunMulticore},
  };

  Metrics metrics;
  double wall_total_s = 0.0;
  for (const Bench& bench : benches) {
    if (!only.empty() &&
        std::string(bench.name).find(only) == std::string::npos) {
      continue;
    }
    std::printf("running %s (%s scale, %d threads)...\n", bench.name,
                scale.name, g_threads);
    std::fflush(stdout);
    const auto start = std::chrono::steady_clock::now();
    bench.run(scale, &metrics);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    wall_total_s += wall_s;
    std::printf("  %s wall-clock: %.2f s\n", bench.name, wall_s);
    // Host timings are nondeterministic; they may only enter the JSON at
    // full scale — the smoke document is a byte-compared CI baseline.
    if (std::strcmp(scale.name, "full") == 0) {
      metrics.Add(StringPrintf("host.%s.wall_s", bench.name), wall_s);
    }
  }
  if (std::strcmp(scale.name, "full") == 0) {
    metrics.Add("host.threads", static_cast<double>(g_threads));
    metrics.Add("host.total_wall_s", wall_total_s);
  }

  const std::string json = metrics.ToJson(scale.name);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 4;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("BENCH JSON written to %s\n", out_path.c_str());

  if (!g_results_matched) {
    std::fprintf(stderr, "FAILURE: some systems produced divergent results\n");
    return 5;
  }
  return 0;
}

}  // namespace
}  // namespace redoop::bench

int main(int argc, char** argv) { return redoop::bench::Main(argc, argv); }
