// Tests for the observability layer: the metric fold and its snapshot,
// histogram quantile accuracy, event-journal JSONL round-trips, and
// end-to-end determinism of instrumented driver runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "core/redoop_driver.h"
#include "obs/event_journal.h"
#include "obs/metric_registry.h"
#include "obs/observability.h"
#include "obs/telemetry_scope.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SmallClusterConfig;

// ---------------------------------------------------------------------------
// MetricRegistry: the fold of journal events into metric series
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, CounterSemantics) {
  obs::ObservabilityContext ctx;
  ctx.Emit(obs::event::kCacheAdd).With("bytes", 4);
  ctx.Emit(obs::event::kCacheAdd).With("bytes", 1);
  ctx.Emit(obs::event::kCacheAdd);  // No value field: counted, adds no bytes.
  ctx.Emit(obs::event::kCachePurge).With("bytes", 0);
  ctx.Emit("not.a.metric.event").With("bytes", 99);

  const obs::MetricsSnapshot snap = ctx.Snapshot();
  EXPECT_EQ(snap.Counter(obs::metric::kCacheAdds), 3) << "one per event";
  EXPECT_EQ(snap.Counter(obs::metric::kCacheAddBytes), 5)
      << "the bytes field is the delta";
  EXPECT_EQ(snap.counters.count(obs::metric::kCachePurgedBytes), 1u)
      << "a zero delta still creates the series";
  EXPECT_EQ(snap.counters.count(obs::metric::kCacheEvictions), 0u)
      << "a metric no event fed is absent";
  EXPECT_EQ(snap.Counter("never-touched"), 0) << "absent counters read as 0";
}

TEST(MetricRegistryTest, GaugeKeepsTheLastLevel) {
  obs::ObservabilityContext ctx;
  ctx.Emit(obs::event::kFleetAdmit).With("wait", 0.5).With("queued", 10);
  ctx.Emit(obs::event::kFleetAdmit).With("wait", 1.5).With("queued", 1);
  const obs::MetricsSnapshot snap = ctx.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Gauge(obs::metric::kFleetQueueDepth), 1.0)
      << "a later level overwrites, it does not accumulate";
  EXPECT_EQ(snap.Counter(obs::metric::kFleetAdmitted), 2);
  EXPECT_DOUBLE_EQ(snap.histograms.at(obs::metric::kFleetAdmissionWait).sum,
                   2.0);
}

TEST(MetricRegistryTest, FieldTestsPickTheSeries) {
  obs::ObservabilityContext ctx;
  ctx.Emit(obs::event::kTaskFinish).With("kind", "map").With("duration", 2.0);
  ctx.Emit(obs::event::kTaskFinish).With("kind", "reduce")
      .With("duration", 3.0);
  ctx.Emit(obs::event::kTaskStart).With("kind", "map")
      .With("locality", "remote");
  ctx.Emit(obs::event::kSchedAssign).With("kind", "reduce")
      .With("affinity_considered", 1).With("affinity_taken", 0)
      .With("io_cost", 0.5);
  ctx.Emit(obs::event::kSchedAssign).With("kind", "reduce");  // Default policy.
  ctx.Emit(obs::event::kProfilerObserve).With("actual", 4.0);
  ctx.Emit(obs::event::kProfilerObserve).With("actual", 4.0)
      .With("abs_error", 1.0);

  const obs::MetricsSnapshot snap = ctx.Snapshot();
  EXPECT_EQ(snap.Counter(obs::metric::kTasksMap), 1);
  EXPECT_EQ(snap.Counter(obs::metric::kTasksReduce), 1);
  EXPECT_DOUBLE_EQ(snap.histograms.at(obs::metric::kTaskReduceDuration).sum,
                   3.0);
  EXPECT_EQ(snap.Counter(obs::metric::kSchedMapRemote), 1);
  EXPECT_EQ(snap.counters.count(obs::metric::kSchedMapLocal), 0u);
  EXPECT_EQ(snap.Counter(obs::metric::kSchedReduceAssignments), 2);
  EXPECT_EQ(snap.Counter(obs::metric::kSchedCacheAffinityMissed), 1);
  EXPECT_EQ(snap.counters.count(obs::metric::kSchedCacheAffinityTaken), 0u);
  EXPECT_EQ(snap.histograms.at(obs::metric::kSchedReduceIoCost).count, 1)
      << "only events that carry io_cost feed the histogram";
  EXPECT_EQ(snap.Counter(obs::metric::kProfilerObservations), 2);
  EXPECT_EQ(snap.histograms.at(obs::metric::kProfilerAbsErr).count, 1);
  EXPECT_DOUBLE_EQ(snap.histograms.at(obs::metric::kProfilerRelErr).max, 0.25)
      << "relative error is abs_error / actual";
}

TEST(MetricRegistryTest, DispatchSurvivesAReusedTypeAddress) {
  // Standalone events intern their type in a private store that dies with
  // them, so consecutive events may hand the fold the same type address
  // for different types.
  obs::MetricRegistry registry;
  for (int i = 0; i < 50; ++i) {
    registry.Fold(obs::Event(0.0, obs::event::kJobStart));
    registry.Fold(obs::Event(0.0, obs::event::kTaskFail));
  }
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter(obs::metric::kJobs), 50);
  EXPECT_EQ(snap.Counter(obs::metric::kTaskFailures), 50);
}

TEST(MetricRegistryTest, LabeledSeriesExportUnderEncodedNames) {
  EXPECT_EQ(obs::LabeledName("cache.pane.hits", ""), "cache.pane.hits");
  EXPECT_EQ(obs::LabeledName("cache.purged.bytes", "join", 0),
            "cache.purged.bytes{query=join,node=0}")
      << "fixed dimension order, set dims only";
  EXPECT_EQ(obs::LabeledName("cache.purged.bytes", "", 3),
            "cache.purged.bytes{node=3}");

  obs::ObservabilityContext ctx;
  obs::TelemetryScope wcc(&ctx, "wcc");
  wcc.Emit(obs::event::kCachePaneHit).With("bytes", 5);
  ctx.Emit(obs::event::kCachePaneHit).With("bytes", 2);  // Unattributed.
  wcc.Emit(obs::event::kCachePurge).With("node", 3).With("bytes", 7);
  wcc.Emit(obs::event::kWindowComplete).With("response_time", 0.25);
  // An integer `query` field labels nothing (the controller journals its
  // query id as `query_id`).
  ctx.Emit(obs::event::kCacheRebuild).With("query", 7);

  const obs::MetricsSnapshot snap = ctx.Snapshot();
  EXPECT_EQ(snap.Counter("cache.pane.hits"), 2) << "global series";
  EXPECT_EQ(snap.Counter("cache.pane.hits{query=wcc}"), 1);
  EXPECT_EQ(snap.Counter("cache.pane.hit.bytes{query=wcc}"), 5);
  EXPECT_EQ(snap.Counter("cache.purged.bytes{query=wcc,node=3}"), 7);
  EXPECT_EQ(snap.counters.count("cache.purged.bytes{query=wcc}"), 0u)
      << "a rule labeled by node keeps only the (query, node) series";
  EXPECT_EQ(snap.histograms.at("window.response_time_s{query=wcc}").count, 1);
  EXPECT_EQ(snap.Counter("cache.rebuilds"), 1);
  EXPECT_EQ(snap.counters.count("cache.rebuilds{query=7}"), 0u);
}

TEST(MetricsSnapshotTest, HitRate) {
  obs::MetricsSnapshot snap;
  EXPECT_DOUBLE_EQ(snap.HitRate("h", "m"), 0.0)
      << "no observations -> 0, not NaN";
  snap.counters["h"] = 3;
  snap.counters["m"] = 1;
  EXPECT_DOUBLE_EQ(snap.HitRate("h", "m"), 0.75);
}

// ---------------------------------------------------------------------------
// ObservabilityContext: when the fold sees an event
// ---------------------------------------------------------------------------

TEST(ObservabilityContextTest, FoldsEachEventOnceWhenComplete) {
  obs::ObservabilityContext ctx;
  obs::Event& add = ctx.Emit(obs::event::kCacheAdd);
  EXPECT_EQ(ctx.Snapshot().Counter(obs::metric::kCacheAdds), 1)
      << "Snapshot() sees the newest event";
  add.With("bytes", 6);  // Still open: its fields count until the next Emit.
  EXPECT_EQ(ctx.Snapshot().Counter(obs::metric::kCacheAddBytes), 6);
  ctx.Emit(obs::event::kJobStart);
  const obs::MetricsSnapshot snap = ctx.Snapshot();
  EXPECT_EQ(snap.Counter(obs::metric::kCacheAdds), 1) << "counted once";
  EXPECT_EQ(snap.Counter(obs::metric::kCacheAddBytes), 6);
  EXPECT_EQ(snap.Counter(obs::metric::kJobs), 1);
  EXPECT_EQ(snap.ToJson(), ctx.Snapshot().ToJson()) << "snapshots are reads";
}

TEST(ObservabilityContextTest, EvictedEventsStillCount) {
  obs::ObservabilityContext ctx;
  ctx.journal().SetRetentionBudget(1024);
  for (int i = 0; i < 1000; ++i) {
    ctx.Emit(obs::event::kCacheAdd).With("name", "x").With("bytes", 2);
  }
  EXPECT_GT(ctx.journal().dropped_events(), 900);
  EXPECT_EQ(ctx.Snapshot().Counter(obs::metric::kCacheAdds), 1000);
  EXPECT_EQ(ctx.Snapshot().Counter(obs::metric::kCacheAddBytes), 2000);
}

// ---------------------------------------------------------------------------
// Histogram quantiles
// ---------------------------------------------------------------------------

/// Exact nearest-rank quantile of a sorted vector.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

TEST(HistogramTest, QuantilesOnUniformDistribution) {
  obs::Histogram h;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(static_cast<double>(i));
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count, 1000);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_DOUBLE_EQ(h.sum, 500500.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0) << "q=0 is the exact min";
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0) << "q=1 is the exact max";

  // Bucket growth is 2^(1/8) (~9.05%), so the midpoint representative is
  // within ~4.6% of any value in the bucket.
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = ExactQuantile(values, q);
    const double approx = h.Quantile(q);
    EXPECT_NEAR(approx, exact, exact * 0.05)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(HistogramTest, QuantilesOnSkewedDistribution) {
  // 95 fast observations at ~1.0 and 5 slow outliers at ~100.0: p50 must
  // report the fast mode, p99 the slow tail.
  obs::Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 95; ++i) {
    const double v = 1.0 + 0.01 * i;
    values.push_back(v);
    h.Record(v);
  }
  for (int i = 0; i < 5; ++i) {
    const double v = 100.0 + i;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_NEAR(h.Quantile(0.50), ExactQuantile(values, 0.50),
              ExactQuantile(values, 0.50) * 0.05);
  EXPECT_NEAR(h.Quantile(0.99), ExactQuantile(values, 0.99),
              ExactQuantile(values, 0.99) * 0.05);
  EXPECT_GT(h.Quantile(0.99), 50.0) << "tail must not collapse into the mode";
  EXPECT_LT(h.Quantile(0.50), 2.5) << "mode must not absorb the tail";
}

TEST(HistogramTest, TinyAndZeroValuesCollapseIntoBucketZero) {
  obs::Histogram h;
  h.Record(0.0);
  h.Record(1e-12);
  EXPECT_EQ(h.count, 2);
  EXPECT_EQ(h.buckets.count(0), 1u);
  EXPECT_LE(h.Quantile(0.5), obs::Histogram::kMinTrackable);
}

TEST(HistogramTest, SingleSampleQuantilesAreExact) {
  for (const double v : {42.0, 0.0, -7.5, 1e-12}) {
    obs::Histogram h;
    h.Record(v);
    for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
      EXPECT_DOUBLE_EQ(h.Quantile(q), v)
          << "single-sample histograms must be exact at q=" << q
          << " for v=" << v;
    }
  }
}

TEST(HistogramTest, ZeroIsAnExactQuantile) {
  obs::Histogram h;
  h.Record(-5.0);
  h.Record(0.0);
  h.Record(5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0)
      << "the zero bucket's representative value is exactly 0";
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 5.0);
}

TEST(HistogramTest, NegativeValuesKeepValueOrder) {
  obs::Histogram h;
  h.Record(-1.0);
  h.Record(-2.0);
  h.Record(-4.0);
  EXPECT_DOUBLE_EQ(h.min, -4.0);
  EXPECT_DOUBLE_EQ(h.max, -1.0);
  EXPECT_NEAR(h.Quantile(0.5), -2.0, 2.0 * 0.05)
      << "median of mirrored negative buckets";
  EXPECT_LT(h.Quantile(0.1), h.Quantile(0.9))
      << "quantiles must be monotone across negative buckets";
  // Mixed signs: negative buckets sort before positive ones.
  h.Record(3.0);
  h.Record(8.0);
  EXPECT_LT(h.Quantile(0.2), 0.0);
  EXPECT_GT(h.Quantile(0.9), 0.0);
}

// ---------------------------------------------------------------------------
// Exporter
// ---------------------------------------------------------------------------

TEST(MetricsSnapshotTest, ExportersAreDeterministicAndWellFormed) {
  obs::MetricsSnapshot snap;
  snap.counters["z.counter"] = 5;
  snap.counters["a.counter"] = 1;
  snap.gauges["g"] = -0.0;  // Negative zero must normalize.
  snap.histograms["lat"].Record(0.25);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"a.counter\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"z.counter\": 5"), std::string::npos);
  EXPECT_LT(json.find("a.counter"), json.find("z.counter"))
      << "exporters emit names sorted";
  EXPECT_EQ(json.find("-0"), std::string::npos) << "no negative zero";
  EXPECT_NE(json.find("\"lat\": {\"count\": 1, \"sum\": 0.25"),
            std::string::npos);
  EXPECT_EQ(json, obs::MetricsSnapshot(snap).ToJson())
      << "snapshotting is stable";
}

// ---------------------------------------------------------------------------
// EventJournal
// ---------------------------------------------------------------------------

TEST(EventJournalTest, FluentFieldsAndLookups) {
  obs::EventJournal journal;
  journal.Append(1.5, obs::event::kCacheAdd)
      .With("name", std::string("RIC_Q1_S1P0_R0"))
      .With("node", 3)
      .With("bytes", int64_t{4096})
      .With("score", 0.25);
  const obs::Event& e = journal.events().front();
  EXPECT_EQ(e.time(), 1.5);
  EXPECT_EQ(e.type(), obs::event::kCacheAdd);
  EXPECT_EQ(e.StrOr("name", ""), "RIC_Q1_S1P0_R0");
  EXPECT_EQ(e.IntOr("node", -1), 3);
  EXPECT_EQ(e.IntOr("bytes", -1), 4096);
  EXPECT_DOUBLE_EQ(e.DoubleOr("score", 0.0), 0.25);
  EXPECT_EQ(e.IntOr("absent", -7), -7);
  EXPECT_EQ(e.Find("absent"), nullptr);
}

TEST(EventJournalTest, CommonFieldsApplyToLaterEventsOnly) {
  obs::EventJournal journal;
  journal.Append(0.0, "before");
  journal.SetCommonField("system", "redoop");
  journal.Append(1.0, "after");
  EXPECT_EQ(journal.events()[0].Find("system"), nullptr);
  EXPECT_EQ(journal.events()[1].StrOr("system", ""), "redoop");
}

TEST(EventJournalTest, JsonlRoundTripIsByteIdentical) {
  obs::EventJournal journal;
  journal.SetCommonField("system", "redoop");
  journal.Append(0.0, obs::event::kWindowOpen).With("recurrence", 0);
  journal.Append(12.25, obs::event::kCacheAdd)
      .With("name", "quote\"and\\slash")
      .With("bytes", int64_t{1} << 40)
      .With("ratio", 0.333333)
      .With("whole", 4.0);  // Integral-looking double must stay a double.
  journal.Append(100.5, obs::event::kTaskFinish)
      .With("kind", "map")
      .With("duration", 1.75);

  const std::string jsonl = journal.ToJsonl();
  obs::EventJournal parsed;
  ASSERT_TRUE(obs::EventJournal::Parse(jsonl, &parsed).ok());
  ASSERT_EQ(parsed.size(), journal.size());
  EXPECT_EQ(parsed.ToJsonl(), jsonl) << "parse -> serialize is the identity";

  // Types survive: the integral-looking double is still a double.
  const obs::Event& add = parsed.events()[1];
  const obs::EventField* whole = add.Find("whole");
  ASSERT_NE(whole, nullptr);
  EXPECT_EQ(whole->kind, obs::EventField::Kind::kDouble);
  const obs::EventField* bytes = add.Find("bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->kind, obs::EventField::Kind::kInt);
  EXPECT_EQ(bytes->i64, int64_t{1} << 40);
  EXPECT_EQ(add.StrOr("name", ""), "quote\"and\\slash");
}

TEST(EventJournalTest, MalformedLinesFailWithLineNumbers) {
  const std::string good1 = "{\"t\":1.000000,\"type\":\"a\"}";
  const std::string good2 = "{\"t\":2.000000,\"type\":\"b\",\"n\":3}";
  obs::EventJournal out;

  // Garbage on line 2: the error names the line, nothing is skipped.
  Status status =
      obs::EventJournal::Parse(good1 + "\nGARBAGE\n" + good2, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos)
      << status.message();

  // Truncated final line (no closing brace).
  status = obs::EventJournal::Parse(
      good1 + "\n{\"t\":2.000000,\"type\":\"b\"", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos)
      << status.message();

  // Trailing garbage after a well-formed object.
  status = obs::EventJournal::Parse(good1 + "}{", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 1"), std::string::npos)
      << status.message();

  // Blank lines are the one tolerated irregularity.
  status = obs::EventJournal::Parse(good1 + "\n\n" + good2 + "\n", &out);
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(out.size(), 2u);
}

TEST(EventJournalTest, CorruptedRoundTripsNeverParseSilentlyWrong) {
  obs::EventJournal journal;
  journal.SetCommonField("system", "fuzz");
  journal.Append(1.0, obs::event::kCacheAdd)
      .With("name", "file-P3_R")
      .With("bytes", 4096)
      .With("ratio", 0.125);
  journal.Append(2.5, obs::event::kTaskFinish)
      .With("kind", "reduce")
      .With("duration", 7.75);
  const std::string jsonl = journal.ToJsonl();

  // Every proper-prefix truncation either fails (mid-line cut) or parses
  // back to an exact prefix of the original journal (cut at a newline).
  for (size_t cut = 1; cut < jsonl.size(); ++cut) {
    const std::string truncated = jsonl.substr(0, cut);
    obs::EventJournal parsed;
    const Status status = obs::EventJournal::Parse(truncated, &parsed);
    if (status.ok()) {
      const std::string reserialized = parsed.ToJsonl();
      EXPECT_EQ(jsonl.compare(0, reserialized.size(), reserialized), 0)
          << "accepted truncation at byte " << cut
          << " must be a clean line-boundary prefix";
    } else {
      EXPECT_NE(status.message().find("line"), std::string::npos)
          << "error must carry a line number: " << status.message();
    }
  }

  // Single-byte structural corruption (braces, quotes, colons, digits
  // replaced with '!') must fail or round-trip deterministically — never
  // crash, never drop lines silently.
  for (size_t i = 0; i < jsonl.size(); ++i) {
    if (jsonl[i] == '\n') continue;
    std::string corrupted = jsonl;
    corrupted[i] = '!';
    obs::EventJournal parsed;
    const Status status = obs::EventJournal::Parse(corrupted, &parsed);
    if (status.ok()) {
      EXPECT_EQ(parsed.size(), journal.size())
          << "an accepted corruption at byte " << i
          << " must not silently drop events";
    }
  }
}

TEST(EventJournalTest, LoadFileReportsMissingAndLoadsRealFiles) {
  obs::EventJournal out;
  const Status missing =
      obs::EventJournal::LoadFile("/nonexistent/journal.jsonl", &out);
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.message().find("/nonexistent/journal.jsonl"),
            std::string::npos);

  obs::EventJournal journal;
  journal.Append(3.0, "x").With("k", 1);
  const std::string path = ::testing::TempDir() + "/journal_roundtrip.jsonl";
  ASSERT_TRUE(journal.WriteFile(path).ok());
  ASSERT_TRUE(obs::EventJournal::LoadFile(path, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.events()[0].IntOr("k", 0), 1);
  std::remove(path.c_str());
}

TEST(EventJournalTest, CountType) {
  obs::EventJournal journal;
  journal.Append(0.0, "a");
  journal.Append(1.0, "b");
  journal.Append(2.0, "a");
  EXPECT_EQ(journal.CountType("a"), 2u);
  EXPECT_EQ(journal.CountType("b"), 1u);
  EXPECT_EQ(journal.CountType("c"), 0u);
}

TEST(ObservabilityContextTest, TimeSourceStampsEmittedEvents) {
  obs::ObservabilityContext ctx;
  double now = 5.0;
  ctx.SetTimeSource([&now] { return now; });
  ctx.Emit("first");
  now = 9.5;
  ctx.Emit("second");
  ctx.EmitAt(2.0, "explicit");
  EXPECT_DOUBLE_EQ(ctx.journal().events()[0].time(), 5.0);
  EXPECT_DOUBLE_EQ(ctx.journal().events()[1].time(), 9.5);
  EXPECT_DOUBLE_EQ(ctx.journal().events()[2].time(), 2.0);
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented runs are deterministic and observable
// ---------------------------------------------------------------------------

struct InstrumentedRun {
  std::string journal_jsonl;
  std::string metrics_json;
  obs::MetricsSnapshot snapshot;
};

InstrumentedRun RunInstrumentedAggregation() {
  RecurringQuery query = MakeAggregationQuery(1, "obs", 1, 200, 40, 4);
  Cluster cluster(6, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 30, 20);
  obs::ObservabilityContext ctx;
  ctx.journal().SetCommonField("system", "redoop");
  RedoopDriverOptions options;
  options.obs = &ctx;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  RunReport report = driver.Run(3).value();
  InstrumentedRun run;
  run.journal_jsonl = ctx.journal().ToJsonl();
  run.metrics_json = ctx.Snapshot().ToJson();
  run.snapshot = report.observability;
  return run;
}

TEST(ObservabilityIntegrationTest, IdenticalRunsProduceIdenticalArtifacts) {
  const InstrumentedRun a = RunInstrumentedAggregation();
  const InstrumentedRun b = RunInstrumentedAggregation();
  EXPECT_EQ(a.journal_jsonl, b.journal_jsonl)
      << "journals must be byte-identical across identical runs";
  EXPECT_EQ(a.metrics_json, b.metrics_json)
      << "metric snapshots must be byte-identical across identical runs";
}

TEST(ObservabilityIntegrationTest, OverlappingWindowsHitThePaneCaches) {
  const InstrumentedRun run = RunInstrumentedAggregation();
  const obs::MetricsSnapshot& m = run.snapshot;
  EXPECT_GT(m.Counter(obs::metric::kCachePaneHits), 0)
      << "warm windows must reuse panes cached by earlier recurrences";
  EXPECT_GT(m.Counter(obs::metric::kCachePaneMisses), 0)
      << "the cold window and each fresh pane are misses";
  EXPECT_GT(m.HitRate(obs::metric::kCachePaneHits,
                      obs::metric::kCachePaneMisses),
            0.5)
      << "win/slide = 5 panes of overlap per window";
  EXPECT_EQ(m.Counter(obs::metric::kWindowsCompleted), 3);
  EXPECT_GT(m.Counter(obs::metric::kTasksMap), 0);
  EXPECT_GT(m.Counter(obs::metric::kTasksReduce), 0);
  EXPECT_EQ(m.histograms.at(obs::metric::kWindowResponseTime).count, 3);

  // The journal carries the decision events the trace reconstruction and
  // the CLI depend on.
  obs::EventJournal journal;
  ASSERT_TRUE(obs::EventJournal::Parse(run.journal_jsonl, &journal).ok());
  EXPECT_GT(journal.CountType(obs::event::kCacheAdd), 0u);
  EXPECT_GT(journal.CountType(obs::event::kCachePaneHit), 0u);
  EXPECT_GT(journal.CountType(obs::event::kSchedAssign), 0u);
  EXPECT_GT(journal.CountType(obs::event::kProfilerObserve), 0u);
  EXPECT_GT(journal.CountType(obs::event::kTaskFinish), 0u);
  EXPECT_EQ(journal.CountType(obs::event::kWindowComplete), 3u);
  for (const obs::Event& e : journal.events()) {
    EXPECT_EQ(e.StrOr("system", ""), "redoop") << "common field on " << e.type();
  }
}

TEST(EventJournalTest, ParseDoesNotRestampCommonFieldsOfTarget) {
  obs::EventJournal source;
  source.Append(1.0, "x").With("k", "v");
  const std::string jsonl = source.ToJsonl();

  obs::EventJournal target;
  target.SetCommonField("system", "live");
  target.Append(0.5, "pre-existing");
  ASSERT_TRUE(obs::EventJournal::Parse(jsonl, &target).ok());
  ASSERT_EQ(target.size(), 1u);
  EXPECT_EQ(target.events()[0].Find("system"), nullptr)
      << "parsed lines must not inherit the target's common fields";
  EXPECT_EQ(target.ToJsonl(), jsonl) << "parse -> serialize stays identity";
  // The replaced journal accepts appends from this thread (writer unpinned).
  target.Append(2.0, "after-parse");
  EXPECT_EQ(target.size(), 2u);
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(EventJournalDeathTest, CrossThreadAppendViolatesSingleWriter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        obs::EventJournal journal;
        journal.Append(0.0, "pinned-here");
        std::thread([&journal] { journal.Append(1.0, "other-thread"); })
            .join();
      },
      "single-writer");
}
#endif  // GTEST_HAS_DEATH_TEST

// ---------------------------------------------------------------------------
// TelemetryScope
// ---------------------------------------------------------------------------

#if GTEST_HAS_DEATH_TEST
// The query a scope stamps becomes a series label, so the charset rule for
// label values is enforced where the query is bound: scope construction.
TEST(MetricRegistryDeathTest, LabelValueCharsetIsEnforced) {
  obs::ObservabilityContext ctx;
  EXPECT_DEATH({ obs::TelemetryScope scope(&ctx, "a{b"); }, "label value");
}
#endif  // GTEST_HAS_DEATH_TEST

TEST(TelemetryScopeTest, StampsAttributionAndDualWritesMetrics) {
  obs::ObservabilityContext ctx;
  int64_t window_cell = -1;
  obs::TelemetryScope scope(&ctx, "wcc", &window_cell);

  scope.Emit("custom").With("k", 1);  // window < 0: no window field.
  window_cell = 4;
  scope.Emit("custom2");
  scope.Emit(obs::event::kJobStart);

  const obs::Event& first = ctx.journal().events()[0];
  EXPECT_EQ(first.StrOr("query", ""), "wcc");
  EXPECT_EQ(first.Find("window"), nullptr);
  const obs::Event& second = ctx.journal().events()[1];
  EXPECT_EQ(second.IntOr("window", -1), 4);

  // The stamped query is what the fold labels by: one event feeds the
  // global series and the query's series, and no window label exists.
  const obs::MetricsSnapshot snap = ctx.Snapshot();
  EXPECT_EQ(snap.Counter("jobs"), 1) << "global series";
  EXPECT_EQ(snap.Counter("jobs{query=wcc}"), 1);
  EXPECT_EQ(snap.counters.size(), 2u);

  // An unattributed scope stamps nothing, so it feeds the global series
  // only.
  obs::TelemetryScope plain(&ctx);
  plain.Emit(obs::event::kJobStart);
  EXPECT_EQ(ctx.Snapshot().Counter("jobs"), 2);
  EXPECT_EQ(ctx.Snapshot().Counter("jobs{query=wcc}"), 1);
}

// ---------------------------------------------------------------------------
// Flight recorder (bounded journal retention)
// ---------------------------------------------------------------------------

TEST(EventJournalTest, RetentionBudgetEvictsOldestEvents) {
  obs::EventJournal unbounded;
  obs::EventJournal bounded;
  bounded.SetRetentionBudget(1);  // Tiny: every sealed event evicts.
  int64_t total_bytes = 0;
  for (int i = 0; i < 50; ++i) {
    unbounded.Append(i, "tick").With("i", i);
    bounded.Append(i, "tick").With("i", i);
    total_bytes +=
        static_cast<int64_t>(unbounded.events().back().ToJson().size()) + 1;
  }
  EXPECT_EQ(unbounded.size(), 50u);
  // The newest event is never evicted (sizes seal at the next Append), so
  // the bounded journal retains exactly the still-open tail.
  EXPECT_EQ(bounded.size(), 1u);
  EXPECT_EQ(bounded.events().back().IntOr("i", -1), 49);
  EXPECT_EQ(bounded.dropped_events(), 49);
  EXPECT_GT(bounded.dropped_bytes(), 0);
  EXPECT_LT(bounded.dropped_bytes(), total_bytes);

  // A generous budget drops nothing.
  obs::EventJournal roomy;
  roomy.SetRetentionBudget(total_bytes + 1024);
  for (int i = 0; i < 50; ++i) roomy.Append(i, "tick").With("i", i);
  EXPECT_EQ(roomy.size(), 50u);
  EXPECT_EQ(roomy.dropped_events(), 0);

  bounded.Clear();
  EXPECT_EQ(bounded.dropped_events(), 0) << "Clear resets drop counters";
  EXPECT_EQ(bounded.dropped_bytes(), 0);
}

TEST(EventJournalTest, TruncationMarkerRoundTripsThroughJsonl) {
  obs::EventJournal journal;
  journal.SetRetentionBudget(256);
  for (int i = 0; i < 200; ++i) {
    journal.Append(static_cast<double>(i), "tick").With("i", i);
  }
  ASSERT_GT(journal.dropped_events(), 0);

  const std::string jsonl = journal.ToJsonl();
  EXPECT_NE(jsonl.find(obs::event::kJournalTruncated), std::string::npos)
      << "serialized form must disclose the truncation";
  const size_t first_newline = jsonl.find('\n');
  EXPECT_LT(jsonl.find(obs::event::kJournalTruncated), first_newline)
      << "marker leads the file: " << jsonl.substr(0, 80);

  obs::EventJournal parsed;
  const Status status = obs::EventJournal::Parse(jsonl, &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(parsed.size(), journal.size())
      << "the marker is folded into counters, not kept as an event";
  EXPECT_EQ(parsed.dropped_events(), journal.dropped_events());
  EXPECT_EQ(parsed.dropped_bytes(), journal.dropped_bytes());
  EXPECT_EQ(parsed.ToJsonl(), jsonl) << "parse -> serialize is identity";
}

/// Appends events [begin, end) of a deterministic stream of overlapping
/// task spans: even steps start task step/2, odd steps finish the task
/// started three steps of that kind earlier (or tick before there is
/// one), so eviction hits span begins whose ends are still to come.
void AppendOverlappingSpans(obs::EventJournal* journal, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    const double t = static_cast<double>(i);
    if (i % 2 == 0) {
      journal->Append(t, obs::event::kTaskStart).With("task", i / 2);
    } else if (i / 2 >= 3) {
      journal->Append(t, obs::event::kTaskFinish)
          .With("task", i / 2 - 3)
          .With("ms", 1.5 * i);
    } else {
      journal->Append(t, "tick").With("i", i);
    }
  }
}

TEST(EventJournalTest, LateBudgetSealsBacklogLikeAnEarlyOne) {
  constexpr int kBacklog = 40;
  constexpr int kTotal = 300;
  obs::EventJournal sizer;
  AppendOverlappingSpans(&sizer, 0, kBacklog);
  int64_t backlog_bytes = 0;
  for (const obs::Event& e : sizer.events()) {
    backlog_bytes += static_cast<int64_t>(e.ToJson().size()) + 1;
  }
  for (const int64_t budget :
       {backlog_bytes, backlog_bytes + 100, 3 * backlog_bytes}) {
    obs::EventJournal early;
    early.SetRetentionBudget(budget);
    AppendOverlappingSpans(&early, 0, kTotal);
    obs::EventJournal late;
    AppendOverlappingSpans(&late, 0, kBacklog);
    late.SetRetentionBudget(budget);
    AppendOverlappingSpans(&late, kBacklog, kTotal);
    ASSERT_GT(early.dropped_events(), 0) << "budget " << budget;
    EXPECT_EQ(late.ToJsonl(), early.ToJsonl()) << "budget " << budget;
    EXPECT_EQ(late.dropped_events(), early.dropped_events());
    EXPECT_EQ(late.dropped_bytes(), early.dropped_bytes());
  }
}

TEST(EventJournalTest, ShrinkingALateBudgetEvictsPinnedCounts) {
  // Pinned counts: sealing every event at Append, unbounded journals
  // included, evicts exactly this for the sequence below, and sealing
  // only under a budget must match it.
  obs::EventJournal journal;
  AppendOverlappingSpans(&journal, 0, 120);
  journal.SetRetentionBudget(1 << 20);  // Roomy: seals, evicts nothing.
  AppendOverlappingSpans(&journal, 120, 200);
  EXPECT_EQ(journal.dropped_events(), 0);
  journal.SetRetentionBudget(2048);
  EXPECT_EQ(journal.dropped_events(), 0) << "shrinking evicts on Append";
  AppendOverlappingSpans(&journal, 200, 201);
  EXPECT_EQ(journal.size(), 38u);
  EXPECT_EQ(journal.dropped_events(), 163);
  EXPECT_EQ(journal.dropped_bytes(), 8431);
  EXPECT_EQ(journal.events().front().time(), 160.0);
  AppendOverlappingSpans(&journal, 201, 260);
  EXPECT_EQ(journal.size(), 39u);
  EXPECT_EQ(journal.dropped_events(), 221);
  EXPECT_EQ(journal.dropped_bytes(), 11523);
  EXPECT_EQ(journal.events().front().time(), 218.0);
  // Unbounded again, then a budget once more: the second backlog is
  // sealed with the span orphans of the first bounded phase still pending.
  journal.SetRetentionBudget(0);
  AppendOverlappingSpans(&journal, 260, 320);
  EXPECT_EQ(journal.dropped_events(), 221) << "unbounded never evicts";
  journal.SetRetentionBudget(1536);
  AppendOverlappingSpans(&journal, 320, 340);
  EXPECT_EQ(journal.size(), 29u);
  EXPECT_EQ(journal.dropped_events(), 311);
  EXPECT_EQ(journal.dropped_bytes(), 16383);
  EXPECT_EQ(journal.events().front().time(), 308.0);
}

// ---------------------------------------------------------------------------
// Journal storage: compact fields in journal-owned chunks
// ---------------------------------------------------------------------------

/// Appends one event shaped like a traced task.finish: the common
/// "system" field plus 18 fields (4 strings, 6 ints, 8 doubles). Values
/// keep a fixed width, so every event serializes to the same size.
void AppendTaskFinishShaped(obs::EventJournal* journal, int i) {
  journal->Append(100000.0 + 0.25 * i, obs::event::kTaskFinish)
      .With("query", "fig7-join")
      .With("window", 7)
      .With("trace", "4387b044323d9816")
      .With("pspan", "82855514cf96ae51")
      .With("kind", "map")
      .With("task", 100000 + i)
      .With("node", i % 8)
      .With("pane", 100 + i % 900)
      .With("attempt", 0)
      .With("start", 1802.25)
      .With("duration", 5.8453)
      .With("bytes", int64_t{51380224})
      .With("wait", 0.5)
      .With("startup", 1.5)
      .With("read", 1.405)
      .With("sort", 0.810302)
      .With("compute", 1.225)
      .With("write", 1.405);
}

TEST(EventJournalStorageTest, TaskFinishShapedEventsStayUnder600Bytes) {
  constexpr int kEvents = 10000;
  obs::EventJournal journal;
  journal.SetCommonField("system", "redoop");
  for (int i = 0; i < kEvents; ++i) AppendTaskFinishShaped(&journal, i);
  ASSERT_EQ(journal.events().back().fields().size(), 19u);
  // 19 fields of 24 B, a 48 B event header and 50 string bytes: 554 B.
  EXPECT_LE(journal.storage_bytes(), int64_t{600} * kEvents)
      << journal.storage_bytes() / kEvents << " B per event";
  const obs::Event& e = journal.events()[1234];
  EXPECT_EQ(e.IntOr("task", -1), 101234);
  EXPECT_EQ(e.StrOr("system", ""), "redoop");
  EXPECT_EQ(e.StrOr("pspan", ""), "82855514cf96ae51");
  EXPECT_DOUBLE_EQ(e.DoubleOr("sort", 0.0), 0.810302);
}

TEST(EventJournalStorageTest, FlightRecorderReleasesStorageChunks) {
  obs::EventJournal journal;
  journal.SetCommonField("system", "redoop");
  journal.SetRetentionBudget(64 * 1024);
  int i = 0;
  for (; i < 20000; ++i) AppendTaskFinishShaped(&journal, i);
  const int64_t early = journal.storage_bytes();
  const size_t retained = journal.size();
  for (; i < 200000; ++i) AppendTaskFinishShaped(&journal, i);
  EXPECT_EQ(journal.size(), retained);
  EXPECT_NEAR(static_cast<double>(journal.storage_bytes()),
              static_cast<double>(early),
              static_cast<double>(obs::EventJournal::kStorageChunkBytes))
      << "chunks no retained event points into must be released";
  EXPECT_EQ(journal.events().back().IntOr("task", -1), 100000 + i - 1);
  EXPECT_EQ(journal.events().front().StrOr("trace", ""), "4387b044323d9816");
}

TEST(EventJournalStorageTest, OddValuesAndChunkBoundariesRoundTrip) {
  const std::string long_value(3 * obs::EventJournal::kStorageChunkBytes,
                               'x');
  obs::EventJournal journal;
  journal.Append(0.0, "odd")
      .With("empty", "")
      .With("escaped", "q\"b\\n\nt\tr\rc\x01end")
      .With("long", long_value);
  // Events of 50 fields: some event's fields cross a chunk boundary and
  // move to the next chunk mid-chain; one event outgrows a whole chunk.
  for (int e = 0; e < 40; ++e) {
    obs::Event& event = journal.Append(1.0 + e, "wide");
    const int fields = e == 20 ? 1000 : 50;
    for (int f = 0; f < fields; ++f) {
      event.With("f" + std::to_string(f), "v" + std::to_string(e * f));
    }
  }
  const obs::Event& odd = journal.events().front();
  ASSERT_NE(odd.Find("empty"), nullptr);
  EXPECT_EQ(odd.Find("empty")->kind, obs::EventField::Kind::kString);
  EXPECT_EQ(odd.Find("empty")->str(), "");
  EXPECT_EQ(odd.StrOr("escaped", ""), "q\"b\\n\nt\tr\rc\x01end");
  EXPECT_EQ(odd.StrOr("long", ""), long_value);
  for (int e = 0; e < 40; ++e) {
    const obs::Event& event = journal.events()[static_cast<size_t>(e) + 1];
    ASSERT_EQ(event.fields().size(), e == 20 ? 1000u : 50u);
    for (size_t f = 0; f < event.fields().size(); ++f) {
      EXPECT_EQ(event.fields()[f].key(), "f" + std::to_string(f));
      EXPECT_EQ(event.fields()[f].str(),
                "v" + std::to_string(e * static_cast<int>(f)));
    }
  }

  const std::string jsonl = journal.ToJsonl();
  obs::EventJournal parsed;
  ASSERT_TRUE(obs::EventJournal::Parse(jsonl, &parsed).ok());
  EXPECT_EQ(parsed.ToJsonl(), jsonl) << "parse -> serialize is the identity";
  EXPECT_EQ(parsed.events().front().StrOr("long", ""), long_value);
  EXPECT_EQ(parsed.events().front().StrOr("escaped", ""),
            "q\"b\\n\nt\tr\rc\x01end");
}

TEST(EventJournalStorageTest, ReusedKeyBufferInternsItsCurrentText) {
  obs::EventJournal journal;
  std::string key = "alpha";
  obs::Event& e = journal.Append(0.0, "x");
  e.With(key, 1);
  key.replace(0, key.size(), "gamma");  // Same buffer, same length.
  e.With(key, 2);
  EXPECT_EQ(e.IntOr("alpha", -1), 1);
  EXPECT_EQ(e.IntOr("gamma", -1), 2);
  EXPECT_EQ(e.ToJson(),
            "{\"t\":0.000000,\"type\":\"x\",\"alpha\":1,\"gamma\":2}");
}

TEST(EventJournalStorageTest, EventsStayReadableAcrossMoveParseAndClear) {
  obs::EventJournal journal;
  journal.SetCommonField("system", "redoop");
  for (int i = 0; i < 2000; ++i) AppendTaskFinishShaped(&journal, i);
  const obs::Event* first = &journal.events().front();
  const std::string_view trace = first->Find("trace")->str();

  // Moving the journal moves the store handle, not the storage.
  obs::EventJournal moved(std::move(journal));
  EXPECT_EQ(first, &moved.events().front());
  EXPECT_EQ(trace, "4387b044323d9816");
  EXPECT_EQ(first->StrOr("query", ""), "fig7-join");
  obs::EventJournal assigned;
  assigned.Append(0.0, "replaced");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.events()[1999].IntOr("task", -1), 101999);

  // Re-parse into the same journal: the old store goes, the new events
  // read from the parsed one.
  const std::string jsonl = assigned.ToJsonl();
  ASSERT_TRUE(obs::EventJournal::Parse(jsonl, &assigned).ok());
  EXPECT_EQ(assigned.size(), 2000u);
  EXPECT_EQ(assigned.events()[7].StrOr("pspan", ""), "82855514cf96ae51");
  EXPECT_EQ(assigned.ToJsonl(), jsonl);

  // Clear frees the chunks; a refill writes and reads fresh storage.
  assigned.Clear();
  EXPECT_EQ(assigned.size(), 0u);
  assigned.SetCommonField("system", "redoop");
  for (int i = 0; i < 300; ++i) AppendTaskFinishShaped(&assigned, i);
  EXPECT_EQ(assigned.events()[299].IntOr("task", -1), 100299);
  EXPECT_EQ(assigned.events()[0].StrOr("system", ""), "redoop");

  // A standalone event owns its store and keeps it when moved.
  obs::Event standalone(3.0, "solo");
  standalone.With("k", "v").With("n", 5);
  obs::Event taken(std::move(standalone));
  EXPECT_EQ(taken.ToJson(),
            "{\"t\":3.000000,\"type\":\"solo\",\"k\":\"v\",\"n\":5}");
}

TEST(EventJournalStorageTest, IndependentJournalsAppendConcurrently) {
  // Interning and store bookkeeping are per journal: two journals, each
  // with its own writer thread, may be filled at the same time.
  obs::EventJournal a;
  obs::EventJournal b;
  a.SetCommonField("system", "a");
  b.SetCommonField("system", "b");
  b.SetRetentionBudget(32 * 1024);
  std::thread ta([&a] {
    for (int i = 0; i < 5000; ++i) AppendTaskFinishShaped(&a, i);
  });
  std::thread tb([&b] {
    for (int i = 0; i < 5000; ++i) AppendTaskFinishShaped(&b, i);
  });
  ta.join();
  tb.join();
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_EQ(a.events()[4321].IntOr("task", -1), 104321);
  EXPECT_EQ(a.events()[4321].StrOr("system", ""), "a");
  EXPECT_GT(b.dropped_events(), 0);
  EXPECT_EQ(b.events().back().IntOr("task", -1), 104999);
  EXPECT_EQ(b.events().back().StrOr("system", ""), "b");
}

TEST(ObservabilityIntegrationTest, DriverOwnsContextWhenNoneProvided) {
  RecurringQuery query = MakeAggregationQuery(1, "own", 1, 200, 40, 4);
  Cluster cluster(6, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriver driver(&cluster, feed.get(), query);
  ASSERT_NE(driver.observability(), nullptr);
  RunReport report = driver.Run(2).value();
  EXPECT_GT(driver.observability()->journal().size(), 0u);
  EXPECT_GT(report.observability.Counter(obs::metric::kCachePaneHits), 0);
}

}  // namespace
}  // namespace redoop
