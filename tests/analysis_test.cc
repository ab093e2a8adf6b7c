// Tests for the journal analysis engine: per-window phase breakdowns,
// critical-path extraction with straggler flagging, cache attribution,
// the JSON document model, and the run-diff regression tooling.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/redoop_driver.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/json_value.h"
#include "obs/analysis/run_diff.h"
#include "obs/event_journal.h"
#include "obs/observability.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SmallClusterConfig;
using obs::analysis::AnalysisOptions;
using obs::analysis::Direction;
using obs::analysis::DiffOptions;
using obs::analysis::DiffReport;
using obs::analysis::FlatMetrics;
using obs::analysis::JsonValue;
using obs::analysis::RunAnalysis;
using obs::analysis::Verdict;

// ---------------------------------------------------------------------------
// AnalyzeJournal on a hand-built synthetic journal
// ---------------------------------------------------------------------------

/// One window, one job, three maps (one straggler) and one reduce, plus
/// cache decisions — small enough to verify every derived number by hand.
obs::EventJournal SyntheticJournal() {
  namespace ev = obs::event;
  obs::EventJournal j;
  j.SetCommonField("system", "test");
  j.Append(0.0, ev::kWindowOpen).With("recurrence", 0).With("trigger", 10.0);
  j.Append(0.2, ev::kCachePaneHit)
      .With("recurrence", 0)
      .With("source", 1)
      .With("pane", 3)
      .With("bytes", 1000)
      .With("reason", "reused");
  j.Append(0.2, ev::kCachePaneMiss)
      .With("recurrence", 0)
      .With("source", 1)
      .With("pane", 4)
      .With("bytes", 400)
      .With("reason", "uncached");
  j.Append(0.3, ev::kCachePairMiss).With("recurrence", 0).With("count", 2);
  j.Append(0.5, ev::kJobStart).With("job", "j1");
  j.Append(1.0, ev::kTaskStart)
      .With("task", 1)
      .With("kind", "map")
      .With("node", 0)
      .With("wait", 0.5);
  j.Append(1.0, ev::kTaskStart)
      .With("task", 2)
      .With("kind", "map")
      .With("node", 1)
      .With("wait", 0.5);
  j.Append(1.5, ev::kTaskStart)
      .With("task", 3)
      .With("kind", "map")
      .With("node", 2)
      .With("wait", 1.0);
  j.Append(2.0, ev::kTaskFinish)
      .With("task", 2)
      .With("kind", "map")
      .With("node", 1)
      .With("duration", 1.0)
      .With("wait", 0.5)
      .With("startup", 0.1)
      .With("read", 0.4)
      .With("sort", 0.2)
      .With("compute", 0.2)
      .With("write", 0.1);
  j.Append(2.0, ev::kTaskFinish)
      .With("task", 1)
      .With("kind", "map")
      .With("node", 0)
      .With("duration", 1.0)
      .With("wait", 0.5)
      .With("startup", 0.1)
      .With("read", 0.4)
      .With("sort", 0.2)
      .With("compute", 0.2)
      .With("write", 0.1);
  // Task 3 is 5x the wave median of 1.0 — a straggler at the default k=3.
  j.Append(6.5, ev::kTaskFinish)
      .With("task", 3)
      .With("kind", "map")
      .With("node", 2)
      .With("duration", 5.0)
      .With("wait", 1.0)
      .With("startup", 0.1)
      .With("read", 3.9)
      .With("sort", 0.4)
      .With("compute", 0.4)
      .With("write", 0.2);
  j.Append(6.5, ev::kTaskStart)
      .With("task", 4)
      .With("kind", "reduce")
      .With("node", 3)
      .With("wait", 0.0);
  j.Append(8.5, ev::kTaskFinish)
      .With("task", 4)
      .With("kind", "reduce")
      .With("node", 3)
      .With("duration", 2.0)
      .With("wait", 0.0)
      .With("startup", 0.1)
      .With("read", 0.2)
      .With("shuffle", 0.9)
      .With("sort", 0.3)
      .With("compute", 0.4)
      .With("write", 0.1);
  j.Append(8.6, ev::kJobFinish).With("job", "j1").With("status", "ok");
  j.Append(9.0, ev::kWindowComplete)
      .With("recurrence", 0)
      .With("trigger", 10.0)
      .With("response_time", 9.0);
  return j;
}

TEST(AnalyzeJournalTest, PhaseBreakdownSumsTaskFinishFields) {
  RunAnalysis analysis;
  ASSERT_TRUE(
      AnalyzeJournal(SyntheticJournal(), AnalysisOptions(), &analysis).ok());
  ASSERT_EQ(analysis.systems.size(), 1u);
  const auto& s = analysis.systems[0];
  EXPECT_EQ(s.system, "test");
  ASSERT_EQ(s.windows.size(), 1u);
  const auto& w = s.windows[0];
  EXPECT_EQ(w.recurrence, 0);
  EXPECT_DOUBLE_EQ(w.response_time, 9.0);

  EXPECT_DOUBLE_EQ(w.map_phases.startup, 0.3);
  EXPECT_DOUBLE_EQ(w.map_phases.read, 0.4 + 0.4 + 3.9);
  EXPECT_DOUBLE_EQ(w.map_phases.wait, 0.5 + 0.5 + 1.0);
  EXPECT_DOUBLE_EQ(w.map_phases.shuffle, 0.0);
  EXPECT_DOUBLE_EQ(w.reduce_phases.shuffle, 0.9);
  EXPECT_DOUBLE_EQ(w.reduce_phases.TaskTotal(), 2.0);

  ASSERT_EQ(w.jobs.size(), 1u);
  EXPECT_EQ(w.jobs[0].tasks.size(), 4u);
}

TEST(AnalyzeJournalTest, CacheAttributionCountsPanesAndPairs) {
  RunAnalysis analysis;
  ASSERT_TRUE(
      AnalyzeJournal(SyntheticJournal(), AnalysisOptions(), &analysis).ok());
  const auto& cache = analysis.systems[0].windows[0].cache;
  EXPECT_EQ(cache.pane_hits, 1);
  EXPECT_EQ(cache.pane_misses, 1);
  EXPECT_EQ(cache.pair_hits, 0);
  EXPECT_EQ(cache.pair_misses, 2) << "pair events carry an aggregate count";
  EXPECT_EQ(cache.hit_bytes, 1000);
  EXPECT_EQ(cache.miss_bytes, 400);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.25);
}

TEST(AnalyzeJournalTest, CriticalPathFollowsSlowestChain) {
  RunAnalysis analysis;
  ASSERT_TRUE(
      AnalyzeJournal(SyntheticJournal(), AnalysisOptions(), &analysis).ok());
  const auto& path = analysis.systems[0].windows[0].critical_path;
  // startup 0.5->1.5, map(task 3) 5.0, barrier 6.5->6.5, reduce 2.0,
  // finalize 8.5->8.6.
  ASSERT_EQ(path.steps.size(), 5u);
  EXPECT_EQ(path.steps[0].label, "startup");
  EXPECT_NEAR(path.steps[0].duration, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(path.steps[0].wait, 1.0) << "slot-wait of the path map";
  EXPECT_EQ(path.steps[1].label, "map");
  EXPECT_EQ(path.steps[1].task, 3);
  EXPECT_EQ(path.steps[1].node, 2);
  EXPECT_DOUBLE_EQ(path.steps[1].duration, 5.0);
  EXPECT_EQ(path.steps[2].label, "barrier");
  EXPECT_NEAR(path.steps[2].duration, 0.0, 1e-9);
  EXPECT_EQ(path.steps[3].label, "reduce");
  EXPECT_DOUBLE_EQ(path.steps[3].duration, 2.0);
  EXPECT_EQ(path.steps[4].label, "finalize");
  EXPECT_NEAR(path.steps[4].duration, 0.1, 1e-9);
  EXPECT_NEAR(path.length, 8.1, 1e-9);
  EXPECT_NEAR(path.wait, 1.0, 1e-9);
}

TEST(AnalyzeJournalTest, FlagsStragglersAgainstWaveMedian) {
  RunAnalysis analysis;
  ASSERT_TRUE(
      AnalyzeJournal(SyntheticJournal(), AnalysisOptions(), &analysis).ok());
  const auto& stragglers = analysis.systems[0].windows[0].stragglers;
  ASSERT_EQ(stragglers.size(), 1u);
  EXPECT_EQ(stragglers[0].task, 3);
  EXPECT_TRUE(stragglers[0].is_map);
  EXPECT_DOUBLE_EQ(stragglers[0].duration, 5.0);
  EXPECT_DOUBLE_EQ(stragglers[0].wave_median, 1.0);

  // A higher threshold clears the flag.
  AnalysisOptions lax;
  lax.straggler_k = 10.0;
  RunAnalysis relaxed;
  ASSERT_TRUE(AnalyzeJournal(SyntheticJournal(), lax, &relaxed).ok());
  EXPECT_TRUE(relaxed.systems[0].windows[0].stragglers.empty());
}

TEST(AnalyzeJournalTest, GoldenBreakdownText) {
  RunAnalysis analysis;
  ASSERT_TRUE(
      AnalyzeJournal(SyntheticJournal(), AnalysisOptions(), &analysis).ok());
  const std::string expected =
      "=== system test: 1 windows, total response 9 s ===\n"
      "window 0: response=9 s  jobs=1  cache 1/4 hits "
      "(0.25 hit rate, 1000 bytes reused)\n"
      "  map     wait=2         startup=0.3       read=4.7       "
      "shuffle=0         sort=0.8       compute=0.8       write=0.4       "
      "total=7\n"
      "  reduce  wait=0         startup=0.1       read=0.2       "
      "shuffle=0.9       sort=0.3       compute=0.4       write=0.1       "
      "total=2\n"
      "totals:\n"
      "  map     wait=2         startup=0.3       read=4.7       "
      "shuffle=0         sort=0.8       compute=0.8       write=0.4       "
      "total=7\n"
      "  reduce  wait=0         startup=0.1       read=0.2       "
      "shuffle=0.9       sort=0.3       compute=0.4       write=0.1       "
      "total=2\n"
      "  cache   pane 1/2  pair 0/2  hit rate 0.25  reused 1000 bytes\n";
  EXPECT_EQ(BreakdownToText(analysis), expected);
}

TEST(AnalyzeJournalTest, GoldenCriticalPathText) {
  RunAnalysis analysis;
  ASSERT_TRUE(
      AnalyzeJournal(SyntheticJournal(), AnalysisOptions(), &analysis).ok());
  const std::string expected =
      "=== system test: critical path 8.1 s over 1 windows "
      "(slot-wait 1 s) ===\n"
      "blame: compute=3.1 cache_wait=0 slot_wait=1 skew=4 recovery=0\n"
      "window 0: path=8.1 s  wait=1 s  response=9 s\n"
      "  blame: compute=3.1 cache_wait=0 slot_wait=1 skew=4 recovery=0\n"
      "  startup                          start=0.5        dur=1          "
      "wait=1\n"
      "  map       task=3      node=2    start=1.5        dur=5          "
      "wait=0\n"
      "  barrier                          start=6.5        dur=0          "
      "wait=0\n"
      "  reduce    task=4      node=3    start=6.5        dur=2          "
      "wait=0\n"
      "  finalize                         start=8.5        dur=0.1        "
      "wait=0\n"
      "  straggler map task=3 node=2 dur=5 s (wave median 1 s)\n";
  EXPECT_EQ(CriticalPathToText(analysis), expected);
  // The blame buckets partition the path length exactly.
  const auto& w = analysis.systems[0].windows[0];
  EXPECT_NEAR(w.blame.Total(), w.critical_path.length, 1e-9);
}

TEST(AnalyzeJournalTest, ToleratesJournalsWithoutTaskStartSpans) {
  namespace ev = obs::event;
  obs::EventJournal j;
  j.Append(0.0, ev::kWindowOpen).With("recurrence", 0);
  j.Append(0.5, ev::kJobStart).With("job", "legacy");
  j.Append(2.0, ev::kTaskFinish)
      .With("task", 1)
      .With("kind", "map")
      .With("node", 0)
      .With("start", 1.0)
      .With("duration", 1.0)
      .With("read", 1.0);
  j.Append(2.5, ev::kJobFinish).With("job", "legacy");
  j.Append(3.0, ev::kWindowComplete)
      .With("recurrence", 0)
      .With("response_time", 3.0);
  RunAnalysis analysis;
  ASSERT_TRUE(AnalyzeJournal(j, AnalysisOptions(), &analysis).ok());
  const auto& w = analysis.systems[0].windows[0];
  ASSERT_EQ(w.jobs.size(), 1u);
  ASSERT_EQ(w.jobs[0].tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(w.jobs[0].tasks[0].start, 1.0);
  EXPECT_DOUBLE_EQ(w.jobs[0].tasks[0].wait, 0.0);
  EXPECT_DOUBLE_EQ(w.map_phases.read, 1.0);
  EXPECT_GT(w.critical_path.length, 0.0);
}

// ---------------------------------------------------------------------------
// Analysis of a real (tiny, deterministic) driver run
// ---------------------------------------------------------------------------

struct TinyRun {
  RunReport report;
  RunAnalysis analysis;
  std::string breakdown_json;
  std::string critical_path_json;
};

TinyRun RunTinyAggregation(bool cache_enabled = true) {
  RecurringQuery query = MakeAggregationQuery(1, "an", 1, 200, 40, 4);
  Cluster cluster(6, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 30, 20);
  obs::ObservabilityContext ctx;
  ctx.journal().SetCommonField("system", "redoop");
  RedoopDriverOptions options;
  options.obs = &ctx;
  options.cache.reduce_input = cache_enabled;
  options.cache.reduce_output = cache_enabled;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  TinyRun run;
  run.report = driver.Run(3).value();
  EXPECT_TRUE(
      AnalyzeJournal(ctx.journal(), AnalysisOptions(), &run.analysis).ok());
  run.breakdown_json = BreakdownToJson(run.analysis);
  run.critical_path_json = CriticalPathToJson(run.analysis);
  return run;
}

TEST(AnalysisIntegrationTest, ReconstructionMatchesRunReport) {
  const TinyRun run = RunTinyAggregation();
  ASSERT_EQ(run.analysis.systems.size(), 1u);
  const auto& s = run.analysis.systems[0];
  ASSERT_EQ(s.windows.size(), run.report.windows.size());
  for (size_t w = 0; w < s.windows.size(); ++w) {
    EXPECT_NEAR(s.windows[w].response_time,
                run.report.windows[w].response_time, 1e-6);
  }
  // Each window's critical path is a chain inside the window, so it cannot
  // exceed the response time, and with serial jobs it accounts for nearly
  // all of it.
  for (const auto& w : s.windows) {
    EXPECT_GT(w.critical_path.length, 0.0);
    EXPECT_LE(w.critical_path.length, w.response_time + 1e-6);
  }
  EXPECT_GT(s.TotalCache().pane_hits, 0) << "warm windows reuse panes";
}

TEST(AnalysisIntegrationTest, ReportsAreDeterministic) {
  const TinyRun a = RunTinyAggregation();
  const TinyRun b = RunTinyAggregation();
  EXPECT_EQ(a.breakdown_json, b.breakdown_json);
  EXPECT_EQ(a.critical_path_json, b.critical_path_json);

  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(a.breakdown_json, &parsed).ok())
      << "breakdown JSON must parse with the repo's own parser";
  ASSERT_TRUE(JsonValue::Parse(a.critical_path_json, &parsed).ok());
}

TEST(AnalysisIntegrationTest, DisablingCachesIsFlaggedAsRegression) {
  const TinyRun cached = RunTinyAggregation(true);
  const TinyRun uncached = RunTinyAggregation(false);

  // Attribution: the cache-disabled run reuses no bytes.
  EXPECT_GT(cached.analysis.systems[0].TotalCache().hit_bytes, 0);
  EXPECT_EQ(uncached.analysis.systems[0].TotalCache().pane_hits, 0);

  JsonValue base_doc, cand_doc;
  ASSERT_TRUE(JsonValue::Parse(cached.breakdown_json, &base_doc).ok());
  ASSERT_TRUE(JsonValue::Parse(uncached.breakdown_json, &cand_doc).ok());
  FlatMetrics base, cand;
  Flatten(base_doc, &base);
  Flatten(cand_doc, &cand);
  const DiffReport report = DiffRuns(base, cand, DiffOptions());
  EXPECT_TRUE(report.HasRegressions())
      << "losing all cache savings must be flagged";

  // Identical runs diff clean.
  const DiffReport self = DiffRuns(base, base, DiffOptions());
  EXPECT_FALSE(self.HasRegressions());
  EXPECT_EQ(self.regressed + self.improved + self.changed, 0);
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

TEST(JsonValueTest, ParsesNestedDocuments) {
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(
                  R"({"a": 1.5, "b": {"c": [1, 2, {"d": "x"}]}, "e": true})",
                  &doc)
                  .ok());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.NumberOr("a", 0.0), 1.5);
  const JsonValue* b = doc.Find("b");
  ASSERT_NE(b, nullptr);
  const JsonValue* c = b->Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->items.size(), 3u);
  EXPECT_EQ(c->items[2].StrOr("d", ""), "x");
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  JsonValue doc;
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &doc).ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1", &doc).ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1} trailing", &doc).ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2,, 3]", &doc).ok());
  EXPECT_FALSE(JsonValue::Parse("", &doc).ok());
}

// ---------------------------------------------------------------------------
// Run diff
// ---------------------------------------------------------------------------

FlatMetrics Flat(const std::string& json) {
  JsonValue doc;
  EXPECT_TRUE(JsonValue::Parse(json, &doc).ok());
  FlatMetrics flat;
  Flatten(doc, &flat);
  return flat;
}

TEST(RunDiffTest, FlattensDottedKeysInDocumentOrder) {
  const FlatMetrics flat = Flat(
      R"({"metrics": {"a": 1, "b": {"c": 2}}, "list": [3, 4], "s": "skip"})");
  ASSERT_EQ(flat.values.size(), 4u);
  EXPECT_EQ(flat.values[0].first, "metrics.a");
  EXPECT_EQ(flat.values[1].first, "metrics.b.c");
  EXPECT_EQ(flat.values[2].first, "list.0");
  EXPECT_EQ(flat.values[3].first, "list.1");
}

TEST(RunDiffTest, ClassifiesMetricDirections) {
  using obs::analysis::ClassifyMetric;
  EXPECT_EQ(ClassifyMetric("fig6.redoop_total_s"), Direction::kLowerIsBetter);
  EXPECT_EQ(ClassifyMetric("window.response_time"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(ClassifyMetric("cache.pane_misses"), Direction::kLowerIsBetter);
  EXPECT_EQ(ClassifyMetric("critical_path.length"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(ClassifyMetric("warm_speedup"), Direction::kHigherIsBetter);
  EXPECT_EQ(ClassifyMetric("cache.hit_rate"), Direction::kHigherIsBetter);
  EXPECT_EQ(ClassifyMetric("jobs"), Direction::kInformational);
  EXPECT_EQ(ClassifyMetric("recurrence"), Direction::kInformational);
}

TEST(RunDiffTest, TwentyPercentSlowdownFlaggedOnePercentNoiseIsNot) {
  const FlatMetrics base = Flat(
      R"({"a_total_s": 100.0, "b_total_s": 200.0, "speedup": 5.0})");
  const FlatMetrics cand = Flat(
      R"({"a_total_s": 120.0, "b_total_s": 202.0, "speedup": 5.02})");
  const DiffReport report = DiffRuns(base, cand, DiffOptions());
  ASSERT_EQ(report.deltas.size(), 3u);
  EXPECT_EQ(report.deltas[0].verdict, Verdict::kRegressed)
      << "+20% on a lower-is-better metric";
  EXPECT_EQ(report.deltas[1].verdict, Verdict::kUnchanged) << "+1% is noise";
  EXPECT_EQ(report.deltas[2].verdict, Verdict::kUnchanged);
  EXPECT_TRUE(report.HasRegressions());
  EXPECT_EQ(report.regressed, 1);
}

TEST(RunDiffTest, DirectionAwareVerdicts) {
  const FlatMetrics base =
      Flat(R"({"total_s": 100.0, "hit_rate": 0.8, "jobs": 10})");
  const FlatMetrics faster =
      Flat(R"({"total_s": 50.0, "hit_rate": 0.95, "jobs": 14})");
  const DiffReport report = DiffRuns(base, faster, DiffOptions());
  EXPECT_EQ(report.deltas[0].verdict, Verdict::kImproved);
  EXPECT_EQ(report.deltas[1].verdict, Verdict::kImproved);
  EXPECT_EQ(report.deltas[2].verdict, Verdict::kChanged)
      << "informational metrics change, they never regress";
  EXPECT_FALSE(report.HasRegressions());

  const DiffReport reverse = DiffRuns(faster, base, DiffOptions());
  EXPECT_EQ(reverse.deltas[0].verdict, Verdict::kRegressed);
  EXPECT_EQ(reverse.deltas[1].verdict, Verdict::kRegressed)
      << "a hit-rate drop is a regression";
  EXPECT_TRUE(reverse.HasRegressions());
}

TEST(RunDiffTest, AddedAndRemovedKeysNeverRegress) {
  const FlatMetrics base = Flat(R"({"old_total_s": 10.0, "kept": 1.0})");
  const FlatMetrics cand = Flat(R"({"kept": 1.0, "new_total_s": 99.0})");
  const DiffReport report = DiffRuns(base, cand, DiffOptions());
  EXPECT_FALSE(report.HasRegressions());
  ASSERT_EQ(report.deltas.size(), 3u);
  EXPECT_EQ(report.deltas[0].verdict, Verdict::kRemoved);
  EXPECT_EQ(report.deltas[1].verdict, Verdict::kUnchanged);
  EXPECT_EQ(report.deltas[2].verdict, Verdict::kAdded);
}

TEST(RunDiffTest, CustomToleranceWidensTheBand) {
  const FlatMetrics base = Flat(R"({"total_s": 100.0})");
  const FlatMetrics cand = Flat(R"({"total_s": 125.0})");
  DiffOptions strict;
  EXPECT_TRUE(DiffRuns(base, cand, strict).HasRegressions());
  DiffOptions lax;
  lax.tolerance = 0.30;
  EXPECT_FALSE(DiffRuns(base, cand, lax).HasRegressions());
}

TEST(RunDiffTest, DiffFilesRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string base_path = dir + "/analysis_base.json";
  const std::string cand_path = dir + "/analysis_cand.json";
  auto write = [](const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  write(base_path, R"({"metrics": {"x.total_s": 10.0}})");
  write(cand_path, R"({"metrics": {"x.total_s": 20.0}})");
  DiffReport report;
  ASSERT_TRUE(
      DiffFiles(base_path, cand_path, DiffOptions(), &report).ok());
  EXPECT_TRUE(report.HasRegressions());
  EXPECT_NE(report.ToText().find("REGRESSED"), std::string::npos);
  EXPECT_NE(report.ToJson().find("x.total_s"), std::string::npos);

  DiffReport missing;
  EXPECT_FALSE(
      DiffFiles(dir + "/nope.json", cand_path, DiffOptions(), &missing).ok());
}

}  // namespace
}  // namespace redoop
