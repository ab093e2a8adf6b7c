// Determinism suite for the parallel task-execution engine: the `threads`
// knob may only change host wall-clock, never anything observable inside
// the simulation. Every workload here runs at threads ∈ {1, 2, 8} and the
// reports must match *exactly* — window outputs byte-for-byte, counters,
// response times to the last ULP, and the full event journal (which has no
// host timestamps, so whole-stream string equality is meaningful).
//
// threads=1 is the seed engine's inline execution path; 2 and 8 exercise
// the offload + join-event path with different amounts of worker
// interleaving. A failure at any thread count means a payload closure
// touched shared state, a join fired out of order, or an RNG draw moved.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/redoop_driver.h"
#include "mapreduce/job_runner.h"
#include "queries/aggregation_query.h"
#include "queries/join_query.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeFfgFeed;
using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SmallClusterConfig;

constexpr int32_t kThreadCounts[] = {1, 2, 8};

/// Everything observable from one run, in directly comparable form.
struct RunFingerprint {
  std::vector<std::vector<KeyValue>> window_outputs;
  std::vector<std::string> window_counters;  // Counters::ToString per window.
  std::vector<SimDuration> response_times;
  std::vector<SimDuration> shuffle_times;
  std::vector<SimDuration> reduce_times;
  std::string journal_jsonl;  // Full event journal, no host timestamps.
};

RunFingerprint Fingerprint(RedoopDriver* driver, const RunReport& report) {
  RunFingerprint fp;
  for (const WindowReport& w : report.windows) {
    fp.window_outputs.push_back(w.output);
    fp.window_counters.push_back(w.counters.ToString());
    fp.response_times.push_back(w.response_time);
    fp.shuffle_times.push_back(w.shuffle_time);
    fp.reduce_times.push_back(w.reduce_time);
  }
  fp.journal_jsonl = driver->observability()->journal().ToJsonl();
  return fp;
}

void ExpectIdentical(const RunFingerprint& base, const RunFingerprint& other,
                     int32_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(base.window_outputs.size(), other.window_outputs.size());
  for (size_t w = 0; w < base.window_outputs.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    ASSERT_EQ(base.window_outputs[w].size(), other.window_outputs[w].size());
    for (size_t i = 0; i < base.window_outputs[w].size(); ++i) {
      ASSERT_EQ(base.window_outputs[w][i], other.window_outputs[w][i])
          << "record " << i;
    }
    EXPECT_EQ(base.window_counters[w], other.window_counters[w]);
    // Exact: simulated time must not move by one ULP under parallelism.
    EXPECT_EQ(base.response_times[w], other.response_times[w]);
    EXPECT_EQ(base.shuffle_times[w], other.shuffle_times[w]);
    EXPECT_EQ(base.reduce_times[w], other.reduce_times[w]);
  }
  EXPECT_EQ(base.journal_jsonl, other.journal_jsonl);
}

RunFingerprint RunAggregation(int32_t threads) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "det-agg", 1, 200, 40, 4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriverOptions options;
  options.runner.threads = threads;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  const RunReport report = driver.Run(4).value();
  return Fingerprint(&driver, report);
}

TEST(ParallelDeterminismTest, AggregationIdenticalAtEveryThreadCount) {
  const RunFingerprint base = RunAggregation(1);
  ASSERT_FALSE(base.window_outputs.empty());
  for (int32_t threads : kThreadCounts) {
    ExpectIdentical(base, RunAggregation(threads), threads);
  }
}

RunFingerprint RunJoin(int32_t threads, bool hybrid) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeJoinQuery(2, "det-join", 1, 2, 120, 40, 2);
  Cluster cluster(8, config);
  auto feed = MakeFfgFeed(1, 2, 6, 20);
  RedoopDriverOptions options;
  options.cache.hybrid_join_strategy = hybrid;
  options.runner.threads = threads;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  const RunReport report = driver.Run(3).value();
  return Fingerprint(&driver, report);
}

TEST(ParallelDeterminismTest, JoinIdenticalAtEveryThreadCount) {
  const RunFingerprint base = RunJoin(1, /*hybrid=*/true);
  ASSERT_FALSE(base.window_outputs.empty());
  for (int32_t threads : kThreadCounts) {
    ExpectIdentical(base, RunJoin(threads, /*hybrid=*/true), threads);
  }
}

TEST(ParallelDeterminismTest, PanePairPathIdenticalAtEveryThreadCount) {
  // hybrid off forces the pane-pair machinery (explicit reduce tasks with
  // side inputs — the offload path that captures cached payloads).
  const RunFingerprint base = RunJoin(1, /*hybrid=*/false);
  ASSERT_FALSE(base.window_outputs.empty());
  for (int32_t threads : kThreadCounts) {
    ExpectIdentical(base, RunJoin(threads, /*hybrid=*/false), threads);
  }
}

RunFingerprint RunAdaptive(int32_t threads) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(3, "det-adaptive", 1, 200, 40, 4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 40, 20);
  RedoopDriverOptions options;
  options.adaptive.enabled = true;
  options.runner.threads = threads;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  const RunReport report = driver.Run(4).value();
  return Fingerprint(&driver, report);
}

TEST(ParallelDeterminismTest, AdaptivePartitioningIdenticalAtEveryThreadCount) {
  const RunFingerprint base = RunAdaptive(1);
  ASSERT_FALSE(base.window_outputs.empty());
  for (int32_t threads : kThreadCounts) {
    ExpectIdentical(base, RunAdaptive(threads), threads);
  }
}

// ---------------------------------------------------------------------------
// RNG-stream invariance: stragglers and speculation draw from the runner's
// Bernoulli stream. The draws are hoisted to task start (before offload),
// so the stream must be identical at every thread count — the journal (which
// records per-task durations and speculation events) proves it.
// ---------------------------------------------------------------------------

class CountReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    context->Emit(key, std::to_string(values.size()), 8);
  }
};

JobSpec MakeStragglerJob(Cluster* cluster) {
  std::vector<Record> records;
  for (int i = 0; i < 64; ++i) {
    records.emplace_back(i, "key-" + std::to_string(i % 5), "v", 512);
  }
  auto created = cluster->dfs().CreateFile("in", std::move(records), 0, 64);
  EXPECT_TRUE(created.ok());
  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const CountReducer>();
  spec.config.num_reducers = 2;
  MapInput input;
  input.file_name = "in";
  spec.map_inputs.push_back(input);
  return spec;
}

struct JobFingerprint {
  std::vector<KeyValue> output;
  std::string counters;
  SimDuration elapsed = 0.0;
  std::string journal_jsonl;
};

JobFingerprint RunStragglerJob(int32_t threads) {
  Config config;
  config.SetInt("dfs.block_size", 4096);
  Cluster cluster(4, config);
  obs::ObservabilityContext obs;
  DefaultScheduler scheduler;
  JobRunnerOptions options;
  options.straggler_probability = 0.5;
  options.straggler_slowdown = 8.0;
  options.speculative_execution = true;
  options.seed = 17;
  options.threads = threads;
  options.obs = &obs;
  JobRunner runner(&cluster, &scheduler, options);
  JobResult result = runner.Run(MakeStragglerJob(&cluster));
  EXPECT_TRUE(result.status.ok());
  JobFingerprint fp;
  fp.output = result.MergedOutput();
  fp.counters = result.counters.ToString();
  fp.elapsed = result.Elapsed();
  fp.journal_jsonl = obs.journal().ToJsonl();
  return fp;
}

TEST(ParallelDeterminismTest, StragglerAndSpeculationDrawsAreThreadInvariant) {
  const JobFingerprint base = RunStragglerJob(1);
  for (int32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const JobFingerprint other = RunStragglerJob(threads);
    ASSERT_EQ(base.output.size(), other.output.size());
    for (size_t i = 0; i < base.output.size(); ++i) {
      EXPECT_EQ(base.output[i], other.output[i]);
    }
    EXPECT_EQ(base.counters, other.counters);
    EXPECT_EQ(base.elapsed, other.elapsed);
    EXPECT_EQ(base.journal_jsonl, other.journal_jsonl);
  }
}

// ---------------------------------------------------------------------------
// Failure path: a node dies mid-run, killing running attempts whose join
// events are already queued (stale joins) — results must still be exactly
// the seed's, and the drain must not leak or deadlock (ASan/TSan cover the
// rest).
// ---------------------------------------------------------------------------

JobFingerprint RunWithMidJobNodeDeath(int32_t threads) {
  Config config;
  config.SetInt("dfs.block_size", 4096);
  config.SetInt("dfs.replication", 3);
  Cluster cluster(4, config);
  obs::ObservabilityContext obs;
  DefaultScheduler scheduler;
  JobRunnerOptions options;
  options.threads = threads;
  options.obs = &obs;
  JobRunner runner(&cluster, &scheduler, options);
  JobSpec spec = MakeStragglerJob(&cluster);
  // Kill a node shortly after tasks start: running attempts on it fail
  // after their start-side accounting ran but (in offload mode) possibly
  // before their join event fired.
  cluster.simulator().Schedule(0.62, [&cluster] { cluster.FailNode(1); });
  JobResult result = runner.Run(spec);
  EXPECT_TRUE(result.status.ok());
  JobFingerprint fp;
  fp.output = result.MergedOutput();
  fp.counters = result.counters.ToString();
  fp.elapsed = result.Elapsed();
  fp.journal_jsonl = obs.journal().ToJsonl();
  return fp;
}

TEST(ParallelDeterminismTest, MidJobNodeFailureIdenticalAtEveryThreadCount) {
  const JobFingerprint base = RunWithMidJobNodeDeath(1);
  ASSERT_FALSE(base.output.empty());
  for (int32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const JobFingerprint other = RunWithMidJobNodeDeath(threads);
    ASSERT_EQ(base.output.size(), other.output.size());
    for (size_t i = 0; i < base.output.size(); ++i) {
      EXPECT_EQ(base.output[i], other.output[i]);
    }
    EXPECT_EQ(base.counters, other.counters);
    EXPECT_EQ(base.elapsed, other.elapsed);
    EXPECT_EQ(base.journal_jsonl, other.journal_jsonl);
  }
}

}  // namespace
}  // namespace redoop
