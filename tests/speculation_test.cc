// Tests for the straggler model and speculative execution (a substrate
// feature the paper's experiments explicitly disabled — and so does our
// default configuration).

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "mapreduce/job_runner.h"

namespace redoop {
namespace {

class CountReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    context->Emit(key, std::to_string(values.size()), 8);
  }
};

Config TestConfig() {
  Config config;
  config.SetInt("dfs.block_size", 4096);
  return config;
}

JobSpec MakeJob(Cluster* cluster, const std::string& input_name) {
  std::vector<Record> records;
  for (int i = 0; i < 64; ++i) {
    records.emplace_back(i, "key-" + std::to_string(i % 5), "v", 512);
  }
  auto created = cluster->dfs().CreateFile(input_name, std::move(records), 0, 64);
  EXPECT_TRUE(created.ok());
  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const CountReducer>();
  spec.config.num_reducers = 2;
  MapInput input;
  input.file_name = input_name;
  spec.map_inputs.push_back(input);
  return spec;
}

int32_t TotalMapSlots(const Cluster& cluster) {
  int32_t total = 0;
  for (int32_t n = 0; n < cluster.num_nodes(); ++n) {
    total += cluster.node(n).map_slots_total();
  }
  return total;
}

TEST(StragglerTest, StragglersSlowTheJobDown) {
  Cluster baseline_cluster(4, TestConfig());
  DefaultScheduler scheduler;
  JobRunner baseline(&baseline_cluster, &scheduler);
  JobResult fast = baseline.Run(MakeJob(&baseline_cluster, "in"));
  ASSERT_TRUE(fast.status.ok());

  Cluster straggler_cluster(4, TestConfig());
  JobRunnerOptions options;
  options.straggler_probability = 1.0;  // Everything straggles.
  options.straggler_slowdown = 4.0;
  JobRunner slow_runner(&straggler_cluster, &scheduler, options);
  JobResult slow = slow_runner.Run(MakeJob(&straggler_cluster, "in"));
  ASSERT_TRUE(slow.status.ok());

  EXPECT_GT(slow.Elapsed(), 2.0 * fast.Elapsed());
  // Results identical regardless of timing.
  const std::vector<KeyValue> fast_output = fast.MergedOutput();
  const std::vector<KeyValue> slow_output = slow.MergedOutput();
  ASSERT_EQ(fast_output.size(), slow_output.size());
  for (size_t i = 0; i < fast_output.size(); ++i) {
    EXPECT_EQ(fast_output[i], slow_output[i]);
  }
}

TEST(SpeculationTest, BackupsRescueStragglers) {
  // Half the attempts straggle 8x. With speculation, a fast backup
  // usually wins; the job finishes much earlier.
  JobRunnerOptions straggle;
  straggle.straggler_probability = 0.5;
  straggle.straggler_slowdown = 8.0;
  straggle.seed = 17;

  DefaultScheduler scheduler;
  Cluster plain_cluster(4, TestConfig());
  JobRunner plain(&plain_cluster, &scheduler, straggle);
  JobResult without = plain.Run(MakeJob(&plain_cluster, "in"));
  ASSERT_TRUE(without.status.ok());

  JobRunnerOptions speculate = straggle;
  speculate.speculative_execution = true;
  speculate.speculation_factor = 1.3;
  Cluster spec_cluster(4, TestConfig());
  JobRunner runner(&spec_cluster, &scheduler, speculate);
  JobResult with = runner.Run(MakeJob(&spec_cluster, "in"));
  ASSERT_TRUE(with.status.ok());

  EXPECT_LT(with.Elapsed(), without.Elapsed())
      << "speculation should beat a straggler-ridden run";
  // Same results either way.
  const std::vector<KeyValue> with_output = with.MergedOutput();
  const std::vector<KeyValue> without_output = without.MergedOutput();
  ASSERT_EQ(with_output.size(), without_output.size());
  for (size_t i = 0; i < with_output.size(); ++i) {
    EXPECT_EQ(with_output[i], without_output[i]);
  }
  // No leaked slots: everything returned after the job.
  EXPECT_EQ(spec_cluster.TotalFreeMapSlots(), TotalMapSlots(spec_cluster));
}

TEST(SpeculationTest, NoBackupsWhenNothingStraggles) {
  JobRunnerOptions options;
  options.speculative_execution = true;
  DefaultScheduler scheduler;
  Cluster cluster(4, TestConfig());
  JobRunner runner(&cluster, &scheduler, options);
  JobResult result = runner.Run(MakeJob(&cluster, "in"));
  ASSERT_TRUE(result.status.ok());

  Cluster baseline_cluster(4, TestConfig());
  JobRunner baseline(&baseline_cluster, &scheduler);
  JobResult plain = baseline.Run(MakeJob(&baseline_cluster, "in"));
  EXPECT_NEAR(result.Elapsed(), plain.Elapsed(), 1e-9)
      << "speculation checks fire after completion and change nothing";
  EXPECT_EQ(cluster.TotalFreeMapSlots(), TotalMapSlots(cluster));
}

TEST(SpeculationTest, SurvivesNodeFailureMidSpeculation) {
  JobRunnerOptions options;
  options.straggler_probability = 0.6;
  options.straggler_slowdown = 10.0;
  options.speculative_execution = true;
  options.seed = 23;
  DefaultScheduler scheduler;
  Cluster cluster(5, TestConfig());
  JobRunner runner(&cluster, &scheduler, options);
  // Kill a node while primaries/backups are in flight.
  cluster.simulator().Schedule(4.0, [&cluster] { cluster.FailNode(1); });
  JobResult result = runner.Run(MakeJob(&cluster, "in"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.MergedOutput().size(), 5u) << "5 distinct keys";
  // Slot accounting is intact on every surviving node.
  for (int32_t n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.node(n).alive()) continue;
    EXPECT_EQ(cluster.node(n).map_slots_used(), 0) << "node " << n;
    EXPECT_EQ(cluster.node(n).reduce_slots_used(), 0) << "node " << n;
  }
}

TEST(SpeculationTest, DeterministicAcrossRuns) {
  JobRunnerOptions options;
  options.straggler_probability = 0.5;
  options.speculative_execution = true;
  options.seed = 31;
  DefaultScheduler scheduler;
  auto run_once = [&] {
    Cluster cluster(4, TestConfig());
    JobRunner runner(&cluster, &scheduler, options);
    return runner.Run(MakeJob(&cluster, "in")).Elapsed();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace redoop
