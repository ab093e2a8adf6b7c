// The metrics snapshot is a fold of the journal. These tests check that
// every view of a run agrees with it on the facts they share, and that the
// fold does not depend on how much of the journal is retained:
//   (a) the live snapshot, AnalyzeJournal's CacheStats and the summed
//       WindowReport::counters agree on pane and pair reuse, budget
//       evictions, tasks and windows;
//   (b) a run under a journal retention budget small enough to drop events
//       yields a byte-identical snapshot;
//   (c) no journal event repeats a key (a reader that finds the first
//       would miss the second);
//   (d) a task attempt is journaled by the task.* events alone: no other
//       event carries a "task" field, and the map input bytes folded from
//       the map task.start events match the job counters.
// Shapes: aggregation, the 512 KiB pane-pair join, aggregation at 1/20 of
// the unbounded store peak, and a fig9-style run with node failures,
// cache loss, stragglers and speculation; each at 1 and 4 engine threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "baseline/hadoop_driver.h"
#include "core/redoop_driver.h"
#include "mapreduce/counters.h"
#include "obs/analysis/analysis.h"
#include "obs/observability.h"
#include "tests/test_util.h"
#include "workload/ffg_generator.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SmallClusterConfig;

constexpr int32_t kNodes = 6;
constexpr int64_t kWindows = 5;
/// Small enough that every shape's journal drops events.
constexpr int64_t kJournalBudgetBytes = 32 * 1024;

enum class Shape { kAgg, kPairJoin, kBudgetedAgg, kFailures };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kAgg: return "agg";
    case Shape::kPairJoin: return "pair_join";
    case Shape::kBudgetedAgg: return "budgeted_agg";
    case Shape::kFailures: return "failures";
  }
  return "?";
}

std::unique_ptr<SyntheticFeed> MakeFeed(Shape shape) {
  if (shape != Shape::kPairJoin) return MakeWccFeed(1, 30, 20);
  auto feed = std::make_unique<SyntheticFeed>(20);
  FfgGeneratorOptions options;
  options.seed = 2013;
  options.record_logical_bytes = 512 * 1024;
  auto rate = std::make_shared<ConstantRate>(4.0);
  feed->AddSource(1, std::make_shared<FfgGenerator>(rate, options));
  feed->AddSource(2, std::make_shared<FfgGenerator>(rate, options));
  return feed;
}

RecurringQuery MakeShapeQuery(Shape shape) {
  if (shape == Shape::kPairJoin) {
    return MakeJoinQuery(2, "pairs", 1, 2, 120, 40, 4);
  }
  return MakeAggregationQuery(1, "agg", 1, 200, 40, 4);
}

struct ShapeRun {
  RunReport report;
  obs::MetricsSnapshot live;  ///< ObservabilityContext::Snapshot().
  obs::analysis::CacheStats cache;
  int64_t analyzed_windows = 0;
  int64_t store_evicted_entries = 0;
  int64_t store_evicted_bytes = 0;
  int64_t store_peak_bytes = 0;
  int64_t journal_dropped = 0;
  /// "<event type>.<key>" of the first event that repeats a key, or "".
  std::string repeated_key;
  /// Types of the events that carry a "task" field.
  std::set<std::string> task_field_types;
};

/// Runs `shape` through a RunRecurrence loop. The failures shape fails a
/// node 3 s after the trigger of windows 1 and 3 (recovered and
/// re-replicated after each; window 3's failure kills a running map
/// attempt) and wipes one node's caches before window 2, as fig9 does.
ShapeRun RunShape(Shape shape, int32_t threads, int64_t journal_budget,
                  int64_t cache_budget = 0) {
  obs::ObservabilityContext ctx;
  ctx.journal().SetCommonField("system", "redoop");
  if (journal_budget > 0) ctx.journal().SetRetentionBudget(journal_budget);
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeFeed(shape);
  RedoopDriverOptions options;
  options.obs = &ctx;
  options.runner.threads = threads;
  options.cache.budget_bytes = cache_budget;
  options.cache.hybrid_join_strategy = false;  // Joins use pane pairs.
  if (shape == Shape::kFailures) {
    options.runner.straggler_probability = 0.3;
    options.runner.speculative_execution = true;
  }
  RedoopDriver driver(&cluster, feed.get(), MakeShapeQuery(shape), options);

  ShapeRun run;
  run.report.system = "redoop";
  for (int64_t i = 0; i < kWindows; ++i) {
    const NodeId victim = static_cast<NodeId>(1 + i % (kNodes - 1));
    const bool fail_node = shape == Shape::kFailures && i % 2 == 1;
    if (fail_node) {
      const SimTime when =
          std::max(cluster.simulator().Now(),
                   static_cast<SimTime>(driver.geometry().TriggerTime(i))) +
          3.0;
      cluster.simulator().ScheduleAt(
          when, [&cluster, victim] { cluster.FailNode(victim); });
    } else if (shape == Shape::kFailures && i == 2) {
      for (const std::string& file : cluster.node(victim).LocalFileNames()) {
        cluster.InjectCacheLoss(victim, file);
      }
    }
    StatusOr<WindowReport> window = driver.RunRecurrence(i);
    EXPECT_TRUE(window.ok()) << window.status().message();
    if (!window.ok()) break;
    run.report.windows.push_back(std::move(window).value());
    if (fail_node) {
      cluster.RecoverNode(victim);
      cluster.dfs().ReplicateMissing();
    }
  }
  run.report.observability = RunObservability(ctx);
  run.live = ctx.Snapshot();

  obs::analysis::RunAnalysis analysis;
  EXPECT_TRUE(AnalyzeJournal(ctx.journal(), obs::analysis::AnalysisOptions(),
                             &analysis)
                  .ok());
  for (const obs::analysis::SystemAnalysis& s : analysis.systems) {
    run.cache.Add(s.TotalCache());
    run.analyzed_windows += static_cast<int64_t>(s.windows.size());
  }
  run.store_evicted_entries = driver.store().evicted_entries();
  run.store_evicted_bytes = driver.store().evicted_bytes();
  run.store_peak_bytes = driver.store().peak_bytes();
  run.journal_dropped = ctx.journal().dropped_events();
  for (const obs::Event& e : ctx.journal().events()) {
    std::set<std::string_view> keys;
    for (const obs::EventField& f : e.fields()) {
      if (!keys.insert(f.key()).second && run.repeated_key.empty()) {
        run.repeated_key = e.type() + "." + std::string(f.key());
      }
    }
    if (keys.count("task") > 0) run.task_field_types.insert(e.type());
  }
  return run;
}

/// 1/20 of the unbounded run's store peak.
int64_t TightCacheBudget(int32_t threads) {
  return RunShape(Shape::kAgg, threads, 0).store_peak_bytes / 20;
}

class MetricsInvariantTest
    : public ::testing::TestWithParam<std::tuple<Shape, int32_t>> {
 protected:
  Shape shape() const { return std::get<0>(GetParam()); }
  int32_t threads() const { return std::get<1>(GetParam()); }
  int64_t cache_budget() const {
    return shape() == Shape::kBudgetedAgg ? TightCacheBudget(threads()) : 0;
  }
};

TEST_P(MetricsInvariantTest, SnapshotAnalysisAndWindowCountersAgree) {
  const ShapeRun run = RunShape(shape(), threads(), 0, cache_budget());
  const obs::MetricsSnapshot& m = run.live;
  Counters summed;
  for (const WindowReport& w : run.report.windows) summed.MergeFrom(w.counters);

  // The shape exercises what it is named for.
  switch (shape()) {
    case Shape::kAgg:
      EXPECT_GT(m.Counter(obs::metric::kCachePaneHits), 0);
      break;
    case Shape::kPairJoin:
      EXPECT_GT(m.Counter(obs::metric::kCachePairHits), 0);
      break;
    case Shape::kBudgetedAgg:
      EXPECT_GT(m.Counter(obs::metric::kCacheEvictedEntries), 0);
      break;
    case Shape::kFailures:
      EXPECT_GT(m.Counter(obs::metric::kTaskFailures), 0);
      EXPECT_GT(m.Counter(obs::metric::kTaskSpeculations), 0);
      EXPECT_GT(m.Counter(obs::metric::kCacheInvalidations), 0);
      break;
  }

  // Pane verdicts and pair reuse: all three views.
  EXPECT_EQ(m.Counter(obs::metric::kCachePaneHits), run.cache.pane_hits);
  EXPECT_EQ(m.Counter(obs::metric::kCachePaneHits),
            summed.Get(counter::kCachePaneHits));
  EXPECT_EQ(m.Counter(obs::metric::kCachePaneMisses), run.cache.pane_misses);
  EXPECT_EQ(m.Counter(obs::metric::kCachePaneMisses),
            summed.Get(counter::kCachePaneMisses));
  EXPECT_EQ(m.Counter(obs::metric::kCachePairHits), run.cache.pair_hits);
  EXPECT_EQ(m.Counter(obs::metric::kCachePairHits),
            summed.Get(counter::kCachePairHits));
  EXPECT_EQ(m.Counter(obs::metric::kCachePairMisses), run.cache.pair_misses);
  EXPECT_EQ(m.Counter(obs::metric::kCachePairMisses),
            summed.Get(counter::kCachePairMisses));

  // Exception: WindowReport::counters keep pane verdicts, not their bytes.
  EXPECT_EQ(m.Counter(obs::metric::kCachePaneHitBytes), run.cache.hit_bytes);
  EXPECT_EQ(m.Counter(obs::metric::kCachePaneMissBytes), run.cache.miss_bytes);

  // Budget evictions. Exception: WindowReport::counters carry none; the
  // CacheStore's own tallies stand in as the third view.
  EXPECT_EQ(m.Counter(obs::metric::kCacheEvictedEntries), run.cache.evictions);
  EXPECT_EQ(m.Counter(obs::metric::kCacheEvictedEntries),
            run.store_evicted_entries);
  EXPECT_EQ(m.Counter(obs::metric::kCacheEvictedBytes),
            run.cache.evicted_bytes);
  EXPECT_EQ(m.Counter(obs::metric::kCacheEvictedBytes),
            run.store_evicted_bytes);

  // Tasks. Exception: CacheStats has no task count; the winning attempt's
  // task.finish is what both the snapshot and the job counters count.
  EXPECT_EQ(m.Counter(obs::metric::kTasksMap), summed.Get(counter::kMapTasks));
  EXPECT_EQ(m.Counter(obs::metric::kTasksReduce),
            summed.Get(counter::kReduceTasks));

  // Event keys: each appears once per event.
  EXPECT_EQ(run.repeated_key, "");

  // Task attempts: only the lifecycle events name a task.
  const std::set<std::string> lifecycle = {
      obs::event::kTaskStart, obs::event::kTaskFinish, obs::event::kTaskFail,
      obs::event::kTaskSpeculate};
  for (const std::string& type : run.task_field_types) {
    EXPECT_EQ(lifecycle.count(type), 1u) << type << " carries a task field";
  }

  // Map input reads: the bytes folded from map task.start events and the
  // job counters. Exception: CacheStats has no read bytes. A failed
  // attempt read its input but never finished, so under failures the
  // journal counts at least what the counters do.
  const int64_t read_bytes = m.Counter(obs::metric::kDfsLocalReadBytes) +
                             m.Counter(obs::metric::kDfsRemoteReadBytes);
  EXPECT_GT(read_bytes, 0);
  if (shape() == Shape::kFailures) {
    EXPECT_GE(read_bytes, summed.Get(counter::kMapInputBytes));
  } else {
    EXPECT_EQ(read_bytes, summed.Get(counter::kMapInputBytes));
  }

  // Windows.
  EXPECT_EQ(m.Counter(obs::metric::kWindowsCompleted), kWindows);
  EXPECT_EQ(static_cast<int64_t>(run.report.windows.size()), kWindows);
  EXPECT_EQ(run.analyzed_windows, kWindows);

  // The report's snapshot is the live one plus the slo.* rollup.
  for (const auto& [name, value] : m.counters) {
    EXPECT_EQ(run.report.observability.Counter(name), value) << name;
  }
}

TEST_P(MetricsInvariantTest, JournalRetentionDoesNotChangeTheSnapshot) {
  const int64_t budget = cache_budget();
  const ShapeRun unbounded = RunShape(shape(), threads(), 0, budget);
  const ShapeRun bounded =
      RunShape(shape(), threads(), kJournalBudgetBytes, budget);
  EXPECT_GT(bounded.journal_dropped, 0) << "the budget must drop events";
  EXPECT_EQ(unbounded.journal_dropped, 0);
  // Compared without RunObservability's slo.* export: that rollup reads
  // the retained journal, so it sees only the surviving suffix.
  EXPECT_EQ(bounded.live.ToJson(), unbounded.live.ToJson());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MetricsInvariantTest,
    ::testing::Combine(::testing::Values(Shape::kAgg, Shape::kPairJoin,
                                         Shape::kBudgetedAgg,
                                         Shape::kFailures),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<MetricsInvariantTest::ParamType>& info) {
      return std::string(ShapeName(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// RunReport::observability has one builder: a RunRecurrence loop that
// calls it reports what Run() reports.
TEST(RunObservabilityTest, RecurrenceLoopMatchesRun) {
  const RecurringQuery query = MakeAggregationQuery(1, "agg", 1, 200, 40, 4);
  auto redoop_run = [&query](bool loop) {
    Cluster cluster(kNodes, SmallClusterConfig());
    auto feed = MakeWccFeed(1, 30, 20);
    RedoopDriver driver(&cluster, feed.get(), query);
    if (!loop) return driver.Run(kWindows).value().observability.ToJson();
    for (int64_t i = 0; i < kWindows; ++i) {
      EXPECT_TRUE(driver.RunRecurrence(i).ok());
    }
    return RunObservability(*driver.observability()).ToJson();
  };
  auto hadoop_run = [&query](bool loop) {
    Cluster cluster(kNodes, SmallClusterConfig());
    auto feed = MakeWccFeed(1, 30, 20);
    HadoopRecurringDriver driver(&cluster, feed.get(), query);
    if (!loop) return driver.Run(kWindows).observability.ToJson();
    for (int64_t i = 0; i < kWindows; ++i) driver.RunRecurrence(i);
    return RunObservability(*driver.observability()).ToJson();
  };
  const std::string redoop = redoop_run(false);
  EXPECT_NE(redoop.find("slo.windows{query=agg}\": 5"), std::string::npos)
      << redoop;
  EXPECT_EQ(redoop_run(true), redoop);
  EXPECT_EQ(hadoop_run(true), hadoop_run(false));
}

}  // namespace
}  // namespace redoop
