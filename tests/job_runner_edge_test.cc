// Additional JobRunner edge cases: partition filters, placement hints,
// page-cache read dedup, reducer-only jobs, and empty inputs.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/cache_aware_scheduler.h"
#include "mapreduce/job_runner.h"

namespace redoop {
namespace {

class SumReducer : public Reducer {
 public:
  void Reduce(const std::string& key, std::span<const KeyValue> values,
              ReduceContext* context) const override {
    int64_t total = 0;
    for (const KeyValue& v : values) total += std::stoll(v.value);
    context->Emit(key, std::to_string(total), 8);
  }
};

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest() : cluster_(4, MakeConfig()), runner_(&cluster_, &scheduler_) {}

  static Config MakeConfig() {
    Config config;
    config.SetInt("dfs.block_size", 4096);
    return config;
  }

  Cluster cluster_;
  DefaultScheduler scheduler_;
  JobRunner runner_;
};

TEST_F(EdgeTest, JobWithNoInputsCompletesEmpty) {
  JobSpec spec;
  spec.config.reducer = std::make_shared<const SumReducer>();
  spec.config.num_reducers = 2;
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.output.empty());
  EXPECT_GT(result.Elapsed(), 0.0) << "startup + empty reducers still cost";
}

TEST_F(EdgeTest, EmptyInputSliceYieldsNoMaps) {
  std::vector<Record> records = {{0, "k", "1", 64}};
  ASSERT_TRUE(cluster_.dfs().CreateFile("in", records, 0, 1).ok());
  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const SumReducer>();
  spec.config.num_reducers = 1;
  MapInput input;
  input.file_name = "in";
  input.record_begin = 1;
  input.record_end = 1;  // Empty slice.
  spec.map_inputs.push_back(input);
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.counters.Get(counter::kMapTasks), 0);
  EXPECT_TRUE(result.output.empty());
}

TEST_F(EdgeTest, ActivePartitionsFilterReduces) {
  // Keys spread over 4 partitions, but only partition 1 is active.
  std::vector<Record> records;
  for (int i = 0; i < 40; ++i) {
    records.emplace_back(i, "key-" + std::to_string(i), "1", 64);
  }
  ASSERT_TRUE(cluster_.dfs().CreateFile("in", records, 0, 40).ok());

  HashPartitioner partitioner;
  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const SumReducer>();
  spec.config.num_reducers = 4;
  MapInput input;
  input.file_name = "in";
  spec.map_inputs.push_back(input);
  spec.active_partitions = {1};

  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.counters.Get(counter::kReduceTasks), 1);
  ASSERT_FALSE(result.output.empty());
  for (const KeyValue& kv : result.output) {
    EXPECT_EQ(partitioner.Partition(kv.key, 4), 1)
        << kv.key << " does not belong to the active partition";
  }
}

TEST_F(EdgeTest, WarmReadsChargeOnlyOnce) {
  // Two explicit tasks on the same node reading the same cache: the
  // second read hits the page cache (only one local-read counter bump).
  auto payload = std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{{"k", "1", 1 << 20}}));
  auto make_task = [&](int32_t partition) {
    ExplicitReduceTask task;
    task.partition = partition;
    task.preferred_node = 2;
    ReduceSideInput side;
    side.cache_name = "shared";
    side.partition = partition;
    side.location = 2;
    side.bytes = 1 << 20;
    side.records = 1;
    side.payload = payload;
    task.side_inputs = {side};
    return task;
  };
  JobSpec spec;
  spec.config.reducer = std::make_shared<const IdentityReducer>();
  spec.config.num_reducers = 2;
  spec.explicit_reduce_tasks = {make_task(0), make_task(1)};

  // The cache-aware scheduler anchors both tasks on the preferred node 2
  // (the default scheduler would scatter them and defeat the page cache).
  CacheAwareScheduler cache_aware(&cluster_.cost_model());
  JobRunner runner(&cluster_, &cache_aware);
  JobResult result = runner.Run(spec);
  ASSERT_TRUE(result.status.ok());
  for (const TaskReport& report : result.task_reports) {
    ASSERT_EQ(report.node, 2) << "both tasks must co-locate";
  }
  const int64_t local = result.counters.Get(counter::kCacheReadLocalBytes);
  const int64_t remote = result.counters.Get(counter::kCacheReadRemoteBytes);
  EXPECT_EQ(local + remote, 1 << 20)
      << "the shared cache is charged exactly once across co-located tasks";
}

TEST_F(EdgeTest, PreferredNodeHintIsHonored) {
  auto payload = std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{{"k", "1", 64}}));
  ExplicitReduceTask task;
  task.partition = 0;
  task.preferred_node = 3;
  ReduceSideInput side;
  side.cache_name = "c";
  side.partition = 0;
  side.location = 0;
  side.bytes = 64;
  side.records = 1;
  side.payload = payload;
  task.side_inputs = {side};

  JobSpec spec;
  spec.config.reducer = std::make_shared<const IdentityReducer>();
  spec.config.num_reducers = 1;
  spec.explicit_reduce_tasks = {task};

  // The default scheduler ignores hints; the cache-aware one honors them.
  CacheAwareScheduler cache_aware(&cluster_.cost_model());
  JobRunner runner(&cluster_, &cache_aware);
  JobResult result = runner.Run(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.task_reports.size(), 1u);
  EXPECT_EQ(result.task_reports[0].node, 3);
}

TEST_F(EdgeTest, OutputConcatenatedInPartitionOrder) {
  std::vector<Record> records;
  for (int i = 0; i < 30; ++i) {
    records.emplace_back(i, "key-" + std::to_string(i), "1", 64);
  }
  ASSERT_TRUE(cluster_.dfs().CreateFile("in", records, 0, 30).ok());
  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const SumReducer>();
  spec.config.num_reducers = 3;
  MapInput input;
  input.file_name = "in";
  spec.map_inputs.push_back(input);
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());

  HashPartitioner partitioner;
  int32_t last_partition = 0;
  std::string last_key_in_partition;
  for (const KeyValue& kv : result.output) {
    const int32_t p = partitioner.Partition(kv.key, 3);
    ASSERT_GE(p, last_partition) << "partitions must appear in order";
    if (p != last_partition) {
      last_partition = p;
      last_key_in_partition.clear();
    }
    EXPECT_GE(kv.key, last_key_in_partition)
        << "keys sorted within a partition";
    last_key_in_partition = kv.key;
  }
}

TEST_F(EdgeTest, RunnerIsReusableAcrossJobs) {
  std::vector<Record> records = {{0, "a", "1", 64}, {1, "b", "2", 64}};
  ASSERT_TRUE(cluster_.dfs().CreateFile("in", records, 0, 2).ok());
  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const SumReducer>();
  spec.config.num_reducers = 1;
  MapInput input;
  input.file_name = "in";
  spec.map_inputs.push_back(input);

  JobResult first = runner_.Run(spec);
  JobResult second = runner_.Run(spec);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.output.size(), second.output.size());
  EXPECT_GT(second.submitted_at, first.finished_at - 1e-9)
      << "the simulated clock moves forward across jobs";
  // Durations are identical: same work, warm state does not leak between
  // jobs (page-cache dedup is per job).
  EXPECT_NEAR(first.Elapsed(), second.Elapsed(), 1e-9);
}

TEST_F(EdgeTest, CombinerCollapsesShuffleWithoutChangingResults) {
  // 60 records, 3 distinct keys, SumReducer doubling as combiner.
  std::vector<Record> records;
  for (int i = 0; i < 60; ++i) {
    records.emplace_back(i, "key-" + std::to_string(i % 3), "1", 64);
  }
  ASSERT_TRUE(cluster_.dfs().CreateFile("in", records, 0, 60).ok());

  auto make_spec = [&](bool combiner) {
    JobSpec spec;
    spec.config.mapper = std::make_shared<const IdentityMapper>();
    spec.config.reducer = std::make_shared<const SumReducer>();
    if (combiner) spec.config.combiner = spec.config.reducer;
    spec.config.num_reducers = 2;
    MapInput input;
    input.file_name = "in";
    spec.map_inputs.push_back(input);
    return spec;
  };

  JobResult plain = runner_.Run(make_spec(false));
  JobResult combined = runner_.Run(make_spec(true));
  ASSERT_TRUE(plain.status.ok());
  ASSERT_TRUE(combined.status.ok());

  // Identical results.
  ASSERT_EQ(plain.output.size(), combined.output.size());
  for (size_t i = 0; i < plain.output.size(); ++i) {
    EXPECT_EQ(plain.output[i].key, combined.output[i].key);
    EXPECT_EQ(plain.output[i].value, combined.output[i].value);
  }
  // Far fewer shuffled bytes: per map task at most 3 pairs survive.
  const int64_t plain_shuffle =
      plain.counters.Get(counter::kShuffleLocalBytes) +
      plain.counters.Get(counter::kShuffleRemoteBytes);
  const int64_t combined_shuffle =
      combined.counters.Get(counter::kShuffleLocalBytes) +
      combined.counters.Get(counter::kShuffleRemoteBytes);
  EXPECT_LT(combined_shuffle, plain_shuffle / 2);
  EXPECT_EQ(plain.counters.Get(counter::kReduceInputRecords), 60);
  EXPECT_LT(combined.counters.Get(counter::kReduceInputRecords), 60);
}

// A cached side input that arrives unsorted (a multi-emission reducer's
// output cache fed back, say) is re-sorted inside the reduce payload
// before the merge. The order-sensitive reducer below sees every value of
// a key in merge order, so the result and the pane caches must equal
// those of the same job fed the sorted copy — with payloads inline and on
// a two-thread pool.
class ConcatReducer : public Reducer {
 public:
  void Reduce(const std::string& key, std::span<const KeyValue> values,
              ReduceContext* context) const override {
    std::string joined;
    for (const KeyValue& v : values) {
      if (!joined.empty()) joined += '|';
      joined += v.value;
    }
    context->Emit(key, joined, 8);
  }
};

struct SideInputRun {
  std::vector<KeyValue> output;
  std::vector<std::pair<std::string, std::vector<KeyValue>>> caches;
};

SideInputRun RunWithSideInputs(std::shared_ptr<const FlatKvBuffer> first,
                               int32_t threads) {
  Cluster cluster(4, Config());
  DefaultScheduler scheduler;
  JobRunnerOptions options;
  options.threads = threads;
  JobRunner runner(&cluster, &scheduler, options);
  const std::vector<Record> records = {{0, "b", "m1", 64},
                                       {1, "a", "m2", 64},
                                       {2, "c", "m3", 64},
                                       {3, "b", "m4", 64}};
  EXPECT_TRUE(cluster.dfs().CreateFile("pane7", records, 0, 4).ok());

  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const ConcatReducer>();
  spec.config.num_reducers = 1;
  MapInput input;
  input.file_name = "pane7";
  input.source = 1;
  input.pane = 7;
  spec.map_inputs.push_back(input);
  spec.cache.cache_reduce_input = true;
  spec.cache.input_cache_name = [](SourceId s, PaneId p, int32_t r) {
    return "RIC_S" + std::to_string(s) + "P" + std::to_string(p) + "_R" +
           std::to_string(r);
  };
  const auto add_side = [&spec](std::string name,
                                std::shared_ptr<const FlatKvBuffer> payload) {
    ReduceSideInput side;
    side.cache_name = std::move(name);
    side.partition = 0;
    side.location = 0;
    side.bytes = payload->total_logical_bytes();
    side.records = static_cast<int64_t>(payload->size());
    side.payload = std::move(payload);
    spec.side_inputs.push_back(std::move(side));
  };
  add_side("prior", std::move(first));
  add_side("later", std::make_shared<const FlatKvBuffer>(
                        FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{
                            {"a", "s1", 8}, {"b", "s2", 8}})));

  JobResult result = runner.Run(spec);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  SideInputRun run;
  run.output = result.output;
  for (const MaterializedCache& cache : result.caches) {
    run.caches.emplace_back(cache.name, cache.payload->ToKeyValues());
  }
  return run;
}

TEST_F(EdgeTest, UnsortedSideInputMatchesItsSortedCopy) {
  const auto unsorted = std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{
          {"c", "u1", 8}, {"a", "u3", 8}, {"b", "u2", 8}, {"a", "u0", 8}}));
  ASSERT_FALSE(unsorted->IsSorted());
  const auto sorted =
      std::make_shared<const FlatKvBuffer>(unsorted->SortedCopy());
  // The merge orders each key's values by bytes across all runs.
  const std::vector<KeyValue> want = {{"a", "m2|s1|u0|u3", 8},
                                      {"b", "m1|m4|s2|u2", 8},
                                      {"c", "m3|u1", 8}};
  for (const int32_t threads : {1, 2}) {
    const SideInputRun from_unsorted = RunWithSideInputs(unsorted, threads);
    const SideInputRun from_sorted = RunWithSideInputs(sorted, threads);
    EXPECT_EQ(from_unsorted.output, want) << "threads=" << threads;
    EXPECT_EQ(from_unsorted.output, from_sorted.output)
        << "threads=" << threads;
    EXPECT_EQ(from_unsorted.caches, from_sorted.caches)
        << "threads=" << threads;
    ASSERT_EQ(from_unsorted.caches.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(from_unsorted.caches[0].second.size(), 4u)
        << "the pane cache holds its own pane's pairs only";
  }
}

}  // namespace
}  // namespace redoop
