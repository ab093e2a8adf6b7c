#ifndef REDOOP_BENCH_CACHE_POLICY_SWEEP_H_
#define REDOOP_BENCH_CACHE_POLICY_SWEEP_H_

// Budget sweep for the capacity-bounded CacheStore: runs a fig6-shaped
// aggregation (WCC) and a fig7-shaped join (FFG) at byte budgets derived
// from the unbounded run's measured working set (peak store bytes), and
// asserts every bounded run's window outputs are byte-identical to the
// unbounded reference — evictions may only change the work volume, never
// the answers.
//
// It has one front end: bench_harness's `cache_policy` suite entry
// (`bench_harness --only=cache_policy`; metrics land in BENCH_redoop.json
// and the smoke baseline bench/baselines/smoke.json).
//
// Every emitted quantity is simulated/deterministic (byte-identical at any
// --threads), so the smoke document is a cmp-able baseline.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "core/redoop_driver.h"
#include "mapreduce/counters.h"
#include "queries/aggregation_query.h"
#include "queries/join_query.h"
#include "workload/ffg_generator.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace redoop::bench {

/// Scale knobs for the sweep; the harness fills them from its own scale.
struct CachePolicyScale {
  int32_t nodes = kClusterNodes;
  int64_t windows = kNumWindows;
  Timestamp win = kWin;
  Timestamp batch_interval = kBatchInterval;
  int32_t reducers = kNumReducers;
  double rps_factor = 1.0;
  /// Host worker threads for task payloads and feed generation
  /// (wall-clock only; metrics identical at any value).
  int32_t threads = 1;
};

/// One (workload, budget) cell of the sweep.
struct CachePolicyCell {
  std::string workload;      // "agg" | "join".
  std::string budget_label;  // "unbounded" | "budget_25pct" | ...
  int64_t budget_bytes = 0;  // 0 = unbounded.
  double total_s = 0.0;
  double hit_rate = 0.0;
  int64_t evictions = 0;
  int64_t evicted_bytes = 0;
  int64_t peak_bytes = 0;
  /// Window outputs byte-identical to the unbounded reference run.
  bool identical = true;
};

struct CachePolicySweepResult {
  std::vector<CachePolicyCell> cells;
  bool all_identical = true;
};

namespace cache_policy_internal {

inline Timestamp SweepSlide(const CachePolicyScale& s, double overlap) {
  return static_cast<Timestamp>(
      std::llround(static_cast<double>(s.win) * (1.0 - overlap)));
}

inline std::unique_ptr<SyntheticFeed> SweepWccFeed(
    const CachePolicyScale& s) {
  auto feed = std::make_unique<SyntheticFeed>(s.batch_interval, s.threads);
  WccGeneratorOptions options;
  options.seed = 1998;
  options.record_logical_bytes = 2 * kBytesPerMB;
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(8.0 * s.rps_factor),
                         options));
  return feed;
}

inline std::unique_ptr<SyntheticFeed> SweepFfgFeed(
    const CachePolicyScale& s) {
  auto feed = std::make_unique<SyntheticFeed>(s.batch_interval, s.threads);
  FfgGeneratorOptions options;
  options.seed = 2013;
  options.grid_cells_x = 180;
  options.grid_cells_y = 180;
  options.record_logical_bytes = 512 * 1024;
  auto rate = std::make_shared<ConstantRate>(2.5 * s.rps_factor);
  feed->AddSource(1, std::make_shared<FfgGenerator>(rate, options));
  feed->AddSource(2, std::make_shared<FfgGenerator>(rate, options));
  return feed;
}

/// RunReport plus the store-side figures read off the driver post-run.
struct SweepRun {
  RunReport report;
  int64_t peak_bytes = 0;
  int64_t evicted_entries = 0;
  int64_t evicted_bytes = 0;
};

inline SweepRun RunOnce(const CachePolicyScale& s, const RecurringQuery& query,
                        bool join, int64_t budget_bytes) {
  auto feed = join ? SweepFfgFeed(s) : SweepWccFeed(s);
  Cluster cluster(s.nodes, Config());
  RedoopDriverOptions options;
  options.cache.budget_bytes = budget_bytes;
  options.runner.threads = s.threads;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  SweepRun run;
  run.report = Unwrap(driver.Run(s.windows));
  run.peak_bytes = driver.store().peak_bytes();
  run.evicted_entries = driver.store().evicted_entries();
  run.evicted_bytes = driver.store().evicted_bytes();
  return run;
}

inline double SweepHitRate(const RunReport& run) {
  const double hits = SumCounter(run, counter::kCachePaneHits) +
                      SumCounter(run, counter::kCachePairHits);
  const double misses = SumCounter(run, counter::kCachePaneMisses) +
                        SumCounter(run, counter::kCachePairMisses);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

inline CachePolicyCell MakeCell(const char* workload,
                                std::string budget_label, int64_t budget,
                                const SweepRun& run) {
  CachePolicyCell cell;
  cell.workload = workload;
  cell.budget_label = std::move(budget_label);
  cell.budget_bytes = budget;
  cell.total_s = run.report.TotalResponseTime();
  cell.hit_rate = SweepHitRate(run.report);
  cell.evictions = run.evicted_entries;
  cell.evicted_bytes = run.evicted_bytes;
  cell.peak_bytes = run.peak_bytes;
  return cell;
}

}  // namespace cache_policy_internal

/// Runs the full sweep: per workload, one unbounded reference (its peak
/// store footprint defines the working set), then budgets of {25%, 5%, 1%}
/// of that working set for the aggregation and the tightest budget (1%)
/// for the join. Every bounded cell's outputs are compared byte-for-byte
/// against the unbounded reference.
inline CachePolicySweepResult RunCachePolicySweep(const CachePolicyScale& s) {
  using namespace cache_policy_internal;  // NOLINT
  CachePolicySweepResult result;
  // Budget rungs as percent of the measured working set; floor of 1 byte
  // keeps a degenerate zero-peak run unbounded-equivalent rather than UB.
  constexpr struct {
    const char* label;
    double fraction;
  } kBudgets[] = {{"budget_25pct", 0.25},
                  {"budget_5pct", 0.05},
                  {"budget_1pct", 0.01}};

  struct Workload {
    const char* name;
    bool join;
    bool all_budgets;  // false: tightest budget only (runtime cap).
  };
  // The join grid is capped to the tightest budget: pane-pair outputs make
  // its unbounded working set much larger.
  const Workload workloads[] = {{"agg", false, true}, {"join", true, false}};

  for (const Workload& wl : workloads) {
    const RecurringQuery query =
        wl.join ? MakeJoinQuery(21, "cache-policy-join", 1, 2, s.win,
                                SweepSlide(s, 0.9), s.reducers)
                : MakeAggregationQuery(20, "cache-policy-agg", 1, s.win,
                                       SweepSlide(s, 0.9), s.reducers);
    const SweepRun reference = RunOnce(s, query, wl.join, /*budget_bytes=*/0);
    result.cells.push_back(MakeCell(wl.name, "unbounded", 0, reference));
    const int64_t working_set = reference.peak_bytes;
    for (const auto& rung : kBudgets) {
      if (!wl.all_budgets && rung.fraction > 0.01) continue;
      const int64_t budget = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(working_set) *
                                  rung.fraction));
      const SweepRun run = RunOnce(s, query, wl.join, budget);
      CachePolicyCell cell = MakeCell(wl.name, rung.label, budget, run);
      cell.identical = ResultsMatch(reference.report, run.report);
      if (!cell.identical) result.all_identical = false;
      result.cells.push_back(std::move(cell));
    }
  }
  return result;
}

/// Flattens the sweep into ordered (key, value) metric pairs named
/// `cache_policy.<workload>.<budget label>.*`. The store has one victim
/// order, so no row names a policy.
inline std::vector<std::pair<std::string, double>> CachePolicyMetrics(
    const CachePolicySweepResult& result) {
  std::vector<std::pair<std::string, double>> out;
  for (const CachePolicyCell& c : result.cells) {
    const std::string prefix =
        "cache_policy." + c.workload + "." + c.budget_label;
    out.emplace_back(prefix + ".total_s", c.total_s);
    out.emplace_back(prefix + ".hit_rate", c.hit_rate);
    if (c.budget_bytes > 0) {
      out.emplace_back(prefix + ".evictions",
                       static_cast<double>(c.evictions));
      out.emplace_back(prefix + ".evicted_gb",
                       static_cast<double>(c.evicted_bytes) / 1e9);
      out.emplace_back(prefix + ".identical", c.identical ? 1.0 : 0.0);
    } else {
      out.emplace_back(prefix + ".peak_gb",
                       static_cast<double>(c.peak_bytes) / 1e9);
    }
  }
  return out;
}

}  // namespace redoop::bench

#endif  // REDOOP_BENCH_CACHE_POLICY_SWEEP_H_
