// Additional JobRunner edge cases: partition filters, placement hints,
// page-cache read dedup, reducer-only jobs, and empty inputs.

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/cache_aware_scheduler.h"
#include "mapreduce/job_runner.h"

namespace redoop {
namespace {

class SumReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    int64_t total = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      total += std::stoll(std::string(values.value(i)));
    }
    context->Emit(key, std::to_string(total), 8);
  }
};

// SumReducer whose string Reduce fails the test: the engine must reach a
// reducer, and a combiner, through ReduceFlat alone.
class FlatOnlySumReducer : public Reducer {
 public:
  void Reduce(const std::string&, std::span<const KeyValue>,
              ReduceContext*) const override {
    ADD_FAILURE() << "the engine called the string Reduce";
  }
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    SumReducer().ReduceFlat(key, values, context);
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
  EXPECT_TRUE(result.MergedOutput().empty());
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
  EXPECT_TRUE(result.MergedOutput().empty());
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
  const std::vector<KeyValue> output = result.MergedOutput();
  ASSERT_FALSE(output.empty());
  for (const KeyValue& kv : output) {
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

// Emits two pairs per key group, against (key, value) order and with
// distinct logical sizes: (key, "z<sum>") first, then (key, "a<sum>").
class TwoPairReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    int64_t total = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      total += std::stoll(std::string(values.value(i)));
    }
    context->Emit(key, "z" + std::to_string(total), 40);
    context->Emit(key, "a" + std::to_string(total), 24);
  }
};

JobSpec TwoPairJob(int32_t num_reducers) {
  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const TwoPairReducer>();
  spec.config.num_reducers = num_reducers;
  MapInput input;
  input.file_name = "in";
  spec.map_inputs.push_back(input);
  return spec;
}

std::vector<Record> KeyRecords(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    records.emplace_back(i, "key-" + std::to_string(i), "1", 64);
  }
  return records;
}

TEST_F(EdgeTest, MergedOutputIsSortedAcrossPartitions) {
  ASSERT_TRUE(cluster_.dfs().CreateFile("in", KeyRecords(30), 0, 30).ok());
  JobResult result = runner_.Run(TwoPairJob(3));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.partition_outputs.size(), 3u);

  // Each partition is one sorted run, but keys interleave across them:
  // concatenating the runs in partition order is not sorted.
  std::vector<KeyValue> concatenated;
  for (const auto& run : result.partition_outputs) {
    ASSERT_FALSE(run->empty());
    EXPECT_TRUE(run->IsSorted());
    for (const KeyValue& kv : run->ToKeyValues()) concatenated.push_back(kv);
  }
  EXPECT_FALSE(IsSortedByKey(concatenated));

  // What the concatenated output plus SortByKey gave: every pair the
  // reducer emitted, sorted by (key, value) — logical sizes included.
  std::vector<KeyValue> want;
  for (int i = 0; i < 30; ++i) {
    want.emplace_back("key-" + std::to_string(i), "z1", 40);
    want.emplace_back("key-" + std::to_string(i), "a1", 24);
  }
  SortByKey(&want);
  EXPECT_EQ(result.MergedOutput(), want);
}

TEST_F(EdgeTest, PartFileKeepsPartitionAndEmissionOrder) {
  constexpr int kKeys = 100;
  constexpr int32_t kReducers = 3;
  ASSERT_TRUE(
      cluster_.dfs().CreateFile("in", KeyRecords(kKeys), 0, kKeys).ok());
  JobSpec spec = TwoPairJob(kReducers);
  spec.output_prefix = "out";
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());

  // The part file holds the partitions in order, each key group's pairs
  // in the order the reducer emitted them (unsorted "z" before "a").
  HashPartitioner partitioner;
  std::vector<std::vector<std::string>> keys(kReducers);
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    keys[static_cast<size_t>(partitioner.Partition(key, kReducers))]
        .push_back(key);
  }
  std::vector<Record> want;
  for (std::vector<std::string>& partition : keys) {
    std::sort(partition.begin(), partition.end());
    for (const std::string& key : partition) {
      want.emplace_back(0, key, "z1", 40);
      want.emplace_back(0, key, "a1", 24);
    }
  }
  auto file = cluster_.dfs().GetFile("out/part-all");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->rows(), want);

  // Same records in the same order: the blocks split where a file of
  // those records splits, on the same replica nodes, as drawn by a DFS
  // that saw the same file creations.
  Cluster reference(4, MakeConfig());
  ASSERT_TRUE(
      reference.dfs().CreateFile("in", KeyRecords(kKeys), 0, kKeys).ok());
  ASSERT_TRUE(reference.dfs().CreateFile("out/part-all", want, 0, 0).ok());
  const DfsFile* expected = *reference.dfs().GetFile("out/part-all");
  const std::vector<Block>& blocks = (*file)->blocks;
  ASSERT_GE(blocks.size(), 2u);
  ASSERT_EQ(blocks.size(), expected->blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].record_begin, expected->blocks[b].record_begin);
    EXPECT_EQ(blocks[b].record_end, expected->blocks[b].record_end);
    EXPECT_EQ(blocks[b].replicas, expected->blocks[b].replicas);
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
  EXPECT_EQ(first.MergedOutput().size(), second.MergedOutput().size());
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
  const std::vector<KeyValue> plain_output = plain.MergedOutput();
  const std::vector<KeyValue> combined_output = combined.MergedOutput();
  ASSERT_EQ(plain_output.size(), combined_output.size());
  for (size_t i = 0; i < plain_output.size(); ++i) {
    EXPECT_EQ(plain_output[i].key, combined_output[i].key);
    EXPECT_EQ(plain_output[i].value, combined_output[i].value);
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

TEST(ReducerEntryPointTest, EngineCallsOnlyReduceFlat) {
  // 60 records of 512 bytes over 5 keys in 4 KiB blocks: several map
  // tasks, each combining its split, and three reduce partitions.
  std::vector<Record> records;
  for (int i = 0; i < 60; ++i) {
    records.emplace_back(i, "key-" + std::to_string(i % 5),
                         std::to_string(i), 512);
  }
  // Key k sums k, k + 5, ..., k + 55.
  const std::vector<KeyValue> want = {{"key-0", "330", 8},
                                      {"key-1", "342", 8},
                                      {"key-2", "354", 8},
                                      {"key-3", "366", 8},
                                      {"key-4", "378", 8}};
  for (const int32_t threads : {1, 2}) {
    Config config;
    config.SetInt("dfs.block_size", 4096);
    Cluster cluster(4, config);
    DefaultScheduler scheduler;
    JobRunnerOptions options;
    options.threads = threads;
    JobRunner runner(&cluster, &scheduler, options);
    ASSERT_TRUE(cluster.dfs().CreateFile("in", records, 0, 60).ok());
    JobSpec spec;
    spec.config.mapper = std::make_shared<const IdentityMapper>();
    spec.config.reducer = std::make_shared<const FlatOnlySumReducer>();
    spec.config.combiner = spec.config.reducer;
    spec.config.num_reducers = 3;
    MapInput input;
    input.file_name = "in";
    spec.map_inputs.push_back(input);

    const JobResult result = runner.Run(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_GT(result.counters.Get(counter::kMapTasks), 1)
        << "threads=" << threads;
    EXPECT_LT(result.counters.Get(counter::kReduceInputRecords), 60)
        << "the combiner ran; threads=" << threads;
    EXPECT_EQ(result.MergedOutput(), want) << "threads=" << threads;
  }
}

// A cached side input that arrives unsorted (a multi-emission reducer's
// output cache fed back, say) is re-sorted inside the reduce payload
// before the merge. The order-sensitive reducer below sees every value of
// a key in merge order, so the result and the pane caches must equal
// those of the same job fed the sorted copy — with payloads inline and on
// a two-thread pool.
class ConcatReducer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    std::string joined;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!joined.empty()) joined += '|';
      joined += values.value(i);
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
  run.output = result.MergedOutput();
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
