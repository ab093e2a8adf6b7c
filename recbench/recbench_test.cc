// Tests of the benchmark's own arithmetic, its traced decorators, and its
// reference results.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baseline/hadoop_driver.h"
#include "cluster/cluster.h"
#include "mapreduce/reducer.h"
#include "reference.h"
#include "stats.h"
#include "tracing.h"
#include "workloads.h"

namespace recbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 0.5), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 0.9), 90.0);
  EXPECT_EQ(Percentile(OneTo(101), 0.9), 91.0);
  EXPECT_EQ(Percentile(OneTo(1), 0.9), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, TenBeyondRule) {
  // p90 leaves exactly ten samples above it at n = 100, nine at n = 99.
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9);
  EXPECT_TRUE(PercentileSupported(100, 0.9));
  EXPECT_FALSE(PercentileSupported(99, 0.9));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  // The rule counts samples strictly above the reported value.
  const std::vector<double> samples = OneTo(100);
  const double p90 = Percentile(samples, 0.9);
  int64_t above = 0;
  for (double s : samples) above += s > p90 ? 1 : 0;
  EXPECT_EQ(above, SamplesBeyond(samples.size(), 0.9));
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(DriftTest, LastQuarterOverFirstQuarter) {
  // Quarters of 8 samples hold two each: medians 11 and 21.
  EXPECT_DOUBLE_EQ(Drift({10, 12, 15, 15, 15, 15, 20, 22}), 21.0 / 11.0);
  EXPECT_DOUBLE_EQ(Drift({5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(Drift({1, 2, 3}), 1.0);  // Too short to have quarters.
}

TEST(SpanUnionTest, OverlapsAndGapsCountOnce) {
  const std::vector<Interval> spans = {{0, 10}, {5, 15}, {20, 25}, {24, 30},
                                       {40, 41}};
  EXPECT_EQ(UnionLength(spans, {0, 100}), 15 + 10 + 1);
  // Clipping to the parent drops the parts outside it.
  EXPECT_EQ(UnionLength(spans, {8, 22}), 7 + 2);
  EXPECT_EQ(UnionLength({}, {0, 100}), 0);
  // Touching spans merge without double counting the shared point.
  EXPECT_EQ(UnionLength({{0, 5}, {5, 10}}, {0, 100}), 10);
}

TEST(SpanUnionTest, SelfTimeSubtractsCoveredPart) {
  // Two engine threads run children concurrently inside a 100 ns parent:
  // the union covers [10, 60) and [70, 80), so 40 ns are the parent's own.
  const Interval parent{0, 100};
  const std::vector<Interval> children = {{10, 50}, {20, 60}, {70, 80}};
  EXPECT_EQ(SelfTime(parent, children), 40);
  EXPECT_EQ(SelfTime(parent, {}), 100);
  // A child straddling the parent's end only covers the inside part.
  EXPECT_EQ(SelfTime(parent, {{90, 150}}), 90);
}

TEST(PerRecurrenceTest, MeansDivideByRecurrenceCount) {
  PerRecurrence layers;
  layers.Add("map_ms", 4.0);
  layers.Add("hits", 1);
  layers.Add("lookups", 10);
  layers.EndRecurrence();
  layers.Add("map_ms", 6.0);  // "hits" unset here: counts as 0.
  layers.Add("lookups", 10);
  layers.EndRecurrence();
  layers.Add("map_ms", 8.0);
  layers.Add("hits", 8);
  layers.Add("lookups", 10);
  layers.EndRecurrence();
  EXPECT_EQ(layers.recurrences(), 3);
  EXPECT_DOUBLE_EQ(layers.Mean("map_ms"), 6.0);
  EXPECT_DOUBLE_EQ(layers.Mean("hits"), 3.0);
  EXPECT_DOUBLE_EQ(layers.Mean("never_set"), 0.0);
  // Ratio of sums (9 / 30), not the mean of per-recurrence ratios.
  EXPECT_DOUBLE_EQ(layers.Ratio("hits", "lookups"), 0.3);
  EXPECT_DOUBLE_EQ(layers.Ratio("hits", "never_set"), 0.0);
}

TEST(PerRecurrenceTest, EmptyIsZero) {
  PerRecurrence layers;
  EXPECT_DOUBLE_EQ(layers.Mean("x"), 0.0);
}

/// Emits one pair per group on the flat path only.
class FlatOnlyReducer : public redoop::Reducer {
 public:
  void Reduce(const std::string&, std::span<const redoop::KeyValue>,
              redoop::ReduceContext*) const override {
    ADD_FAILURE() << "string path taken";
  }
  bool PrefersFlatInput() const override { return true; }
  void ReduceFlat(std::string_view key, const redoop::KvRange& values,
                  redoop::ReduceContext* context) const override {
    context->Emit(key, std::to_string(values.size()));
  }
};

TEST(TracedReducerTest, ForwardsFlatPathAndCountsValues) {
  auto inner = std::make_shared<const FlatOnlyReducer>();
  const TracedReducer traced(inner);
  EXPECT_TRUE(traced.PrefersFlatInput());

  redoop::FlatKvBuffer buffer;
  buffer.Append("k", "a");
  buffer.Append("k", "b");
  SpanRecorder& recorder = SpanRecorder::Get();
  recorder.Drain();
  recorder.SetEnabled(true);
  redoop::ReduceContext context;
  traced.ReduceFlat("k", redoop::KvRange(buffer, 0, 2), &context);
  recorder.SetEnabled(false);
  const std::vector<KindTotals> totals = recorder.Drain();
  const KindTotals& reduce = totals[static_cast<int>(SpanKind::kReduce)];
  EXPECT_EQ(reduce.calls, 1);
  EXPECT_EQ(reduce.items, 2);
  ASSERT_EQ(reduce.spans.size(), 1u);
  EXPECT_LE(reduce.spans[0].begin_ns, reduce.spans[0].end_ns);
  ASSERT_EQ(context.flat().size(), 1u);
  EXPECT_EQ(context.flat().value(0), "2");
}

TEST(TraceQueryTest, WrapsEveryRoleAndKeepsSharing) {
  redoop::RecurringQuery query;
  auto reducer = std::make_shared<const FlatOnlyReducer>();
  query.config.mapper = std::make_shared<const redoop::IdentityMapper>();
  query.config.reducer = reducer;
  query.config.combiner = reducer;
  query.source_mappers[7] = std::make_shared<const redoop::IdentityMapper>();
  query.pipeline_signature = "sig";

  const redoop::RecurringQuery traced = TraceQuery(query);
  EXPECT_NE(traced.config.mapper, query.config.mapper);
  EXPECT_NE(traced.source_mappers.at(7), query.source_mappers.at(7));
  EXPECT_NE(traced.config.reducer, query.config.reducer);
  EXPECT_EQ(traced.config.reducer, traced.config.combiner);
  EXPECT_EQ(traced.finalizer, nullptr);
  EXPECT_EQ(traced.pipeline_signature, "sig");
}

/// The reference must agree with the plain-Hadoop driver, which runs each
/// window as one MapReduce job on the engine, on a few low-rate windows of
/// each query shape.
void ExpectReferenceMatchesHadoop(const std::string& workload) {
  WorkloadSpec spec = *FindWorkload(workload);
  spec.rps = 0.05;
  constexpr int64_t kRecurrences = 4;
  const redoop::RecurringQuery query = MakeQuery(spec);
  const std::vector<Digest> reference = ReferenceDigests(
      query, GenerateInputs(spec, 7, kRecurrences), kRecurrences);
  ASSERT_EQ(reference.size(), static_cast<size_t>(kRecurrences));

  redoop::Cluster cluster(kNodes);
  ReplayFeed feed(GenerateInputs(spec, 7, kRecurrences));
  redoop::HadoopRecurringDriver hadoop(&cluster, &feed, query);
  for (int64_t r = 0; r < kRecurrences; ++r) {
    const redoop::WindowReport report = hadoop.RunRecurrence(r);
    ASSERT_FALSE(report.output.empty()) << workload << " window " << r;
    EXPECT_EQ(DigestOf(report.output), reference[static_cast<size_t>(r)])
        << workload << " window " << r;
  }
}

TEST(ReferenceTest, AggregationMatchesHadoopBaseline) {
  ExpectReferenceMatchesHadoop("agg-pane-merge");
}

TEST(ReferenceTest, JoinMatchesHadoopBaseline) {
  ExpectReferenceMatchesHadoop("join-pane-pairs");
}

TEST(ReferenceTest, DigestRejectsUnsortedAndCountsMultisets) {
  const std::vector<redoop::KeyValue> sorted = {{"a", "1"}, {"a", "2"},
                                                {"b", "1"}};
  const std::vector<redoop::KeyValue> unsorted = {{"b", "1"}, {"a", "1"}};
  EXPECT_EQ(DigestOf(unsorted).records, -1);
  const Digest whole = DigestOf(sorted);
  EXPECT_EQ(whole.records, 3);
  // Digests of disjoint parts add up to the digest of their union.
  const Digest first = DigestOf({{"a", "1"}, {"b", "1"}});
  const Digest second = DigestOf({{"a", "2"}});
  EXPECT_EQ(Digest({first.records + second.records, first.hash + second.hash}),
            whole);
  EXPECT_FALSE(DigestOf({{"a", "1"}, {"a", "3"}, {"b", "1"}}) == whole);
}

}  // namespace
}  // namespace recbench
