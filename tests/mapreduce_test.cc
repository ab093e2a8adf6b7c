// Unit tests for the MapReduce engine: KV utilities, partitioner, counters,
// and the JobRunner (correctness of computed results, locality, side
// inputs, explicit tasks, cache directives, failures and re-execution).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "mapreduce/counters.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/kv.h"
#include "mapreduce/partitioner.h"

namespace redoop {
namespace {

// ------------------------- KV / partitioner / counters ---------------------

TEST(KeyValueTest, ConvenienceCtorSizesFromStrings) {
  KeyValue kv("key", "value");
  EXPECT_EQ(kv.logical_bytes, 3 + 5 + 8);
}

TEST(KeyValueTest, SortByKeyIsTotalAndDeterministic) {
  std::vector<KeyValue> kvs = {
      {"b", "2", 1}, {"a", "9", 1}, {"b", "1", 1}, {"a", "1", 1}};
  SortByKey(&kvs);
  EXPECT_EQ(kvs[0].key, "a");
  EXPECT_EQ(kvs[0].value, "1");
  EXPECT_EQ(kvs[1].value, "9");
  EXPECT_EQ(kvs[2].key, "b");
  EXPECT_EQ(kvs[2].value, "1");
}

TEST(KeyValueTest, TotalLogicalBytes) {
  std::vector<KeyValue> kvs = {{"a", "b", 10}, {"c", "d", 20}};
  EXPECT_EQ(TotalLogicalBytes(kvs), 30);
}

TEST(PartitionerTest, HashIsStableAndInRange) {
  HashPartitioner p;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const int32_t part = p.Partition(key, 7);
    EXPECT_GE(part, 0);
    EXPECT_LT(part, 7);
    EXPECT_EQ(part, p.Partition(key, 7)) << "must be deterministic";
  }
}

TEST(PartitionerTest, SpreadsKeys) {
  HashPartitioner p;
  std::map<int32_t, int> counts;
  for (int i = 0; i < 1000; ++i) {
    ++counts[p.Partition("key-" + std::to_string(i), 4)];
  }
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [part, count] : counts) {
    EXPECT_GT(count, 150) << "partition " << part << " starved";
  }
}

TEST(CountersTest, IncrementGetMerge) {
  Counters a;
  a.Increment("x");
  a.Increment("x", 4);
  EXPECT_EQ(a.Get("x"), 5);
  EXPECT_EQ(a.Get("missing"), 0);
  Counters b;
  b.Increment("x", 10);
  b.Increment("y", 1);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("x"), 15);
  EXPECT_EQ(a.Get("y"), 1);
  EXPECT_NE(a.ToString().find("x = 15"), std::string::npos);
}

// ------------------------------ JobRunner ----------------------------------

// Word-count-shaped fixtures: mapper splits values into words, reducer
// counts per word.
class WordMapper : public Mapper {
 public:
  void Map(const Record& record, MapContext* context) const override {
    for (const std::string& word : SplitWords(record.value)) {
      context->Emit(word, "1", 16);
    }
  }

 private:
  static std::vector<std::string> SplitWords(const std::string& s) {
    std::vector<std::string> words;
    size_t start = 0;
    while (start < s.size()) {
      size_t end = s.find(' ', start);
      if (end == std::string::npos) end = s.size();
      if (end > start) words.push_back(s.substr(start, end - start));
      start = end + 1;
    }
    return words;
  }
};

class CountReducer : public Reducer {
 public:
  void Reduce(const std::string& key, std::span<const KeyValue> values,
              ReduceContext* context) const override {
    int64_t total = 0;
    for (const KeyValue& v : values) total += std::stoll(v.value);
    context->Emit(key, std::to_string(total), 16);
  }
};

class JobRunnerTest : public ::testing::Test {
 protected:
  JobRunnerTest() : cluster_(4, MakeConfig()), runner_(&cluster_, &scheduler_) {}

  static Config MakeConfig() {
    Config config;
    config.SetInt("dfs.block_size", 2048);
    return config;
  }

  void WriteInput(const std::string& name,
                  const std::vector<std::string>& lines) {
    std::vector<Record> records;
    for (size_t i = 0; i < lines.size(); ++i) {
      records.emplace_back(static_cast<Timestamp>(i), "line", lines[i], 256);
    }
    ASSERT_TRUE(cluster_.dfs()
                    .CreateFile(name, std::move(records), 0,
                                static_cast<Timestamp>(lines.size()))
                    .ok());
  }

  JobSpec WordCountSpec(const std::string& input) {
    JobSpec spec;
    spec.config.mapper = std::make_shared<const WordMapper>();
    spec.config.reducer = std::make_shared<const CountReducer>();
    spec.config.num_reducers = 3;
    MapInput in;
    in.file_name = input;
    spec.map_inputs.push_back(in);
    return spec;
  }

  static std::map<std::string, std::string> AsMap(
      const std::vector<KeyValue>& kvs) {
    std::map<std::string, std::string> m;
    for (const KeyValue& kv : kvs) m[kv.key] = kv.value;
    return m;
  }

  Cluster cluster_;
  DefaultScheduler scheduler_;
  JobRunner runner_;
};

TEST_F(JobRunnerTest, WordCountIsExact) {
  WriteInput("in", {"a b a", "c b a", "c c c c"});
  JobResult result = runner_.Run(WordCountSpec("in"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const auto counts = AsMap(result.output);
  EXPECT_EQ(counts.at("a"), "3");
  EXPECT_EQ(counts.at("b"), "2");
  EXPECT_EQ(counts.at("c"), "5");
  EXPECT_GT(result.Elapsed(), 0.0);
  EXPECT_EQ(result.counters.Get(counter::kMapInputRecords), 3);
  EXPECT_EQ(result.counters.Get(counter::kReduceTasks), 3);
}

TEST_F(JobRunnerTest, MissingInputFails) {
  JobResult result = runner_.Run(WordCountSpec("does-not-exist"));
  EXPECT_TRUE(result.status.IsNotFound());
}

TEST_F(JobRunnerTest, RecordRangeSelectsSlice) {
  WriteInput("in", {"a", "b", "c", "d"});
  JobSpec spec = WordCountSpec("in");
  spec.map_inputs[0].record_begin = 1;
  spec.map_inputs[0].record_end = 3;
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  const auto counts = AsMap(result.output);
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_TRUE(counts.count("b"));
  EXPECT_TRUE(counts.count("c"));
}

TEST_F(JobRunnerTest, MultipleInputsConcatenate) {
  WriteInput("in1", {"x"});
  WriteInput("in2", {"x y"});
  JobSpec spec = WordCountSpec("in1");
  MapInput second;
  second.file_name = "in2";
  spec.map_inputs.push_back(second);
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(AsMap(result.output).at("x"), "2");
}

TEST_F(JobRunnerTest, PerSourceMapperOverride) {
  WriteInput("left", {"k"});
  WriteInput("right", {"k"});
  JobSpec spec;
  spec.config.mapper = std::make_shared<const IdentityMapper>();
  spec.config.reducer = std::make_shared<const IdentityReducer>();
  spec.config.num_reducers = 1;
  MapInput l, r;
  l.file_name = "left";
  l.source = 1;
  r.file_name = "right";
  r.source = 2;
  spec.map_inputs = {l, r};

  class TagMapper : public Mapper {
   public:
    explicit TagMapper(std::string tag) : tag_(std::move(tag)) {}
    void Map(const Record& record, MapContext* context) const override {
      context->Emit(record.key, tag_, 8);
    }
    std::string tag_;
  };
  spec.per_source_mappers[1] = std::make_shared<const TagMapper>("L");
  spec.per_source_mappers[2] = std::make_shared<const TagMapper>("R");

  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.output.size(), 2u);
  EXPECT_EQ(result.output[0].value, "L");
  EXPECT_EQ(result.output[1].value, "R");
}

TEST_F(JobRunnerTest, SideInputsFeedReducers) {
  HashPartitioner partitioner;
  auto payload = std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{{"word", "5", 16}}));
  const int32_t partition = partitioner.Partition("word", 3);

  WriteInput("in", {"word"});
  JobSpec spec = WordCountSpec("in");
  ReduceSideInput side;
  side.cache_name = "cache";
  side.partition = partition;
  side.location = 0;
  side.bytes = 16;
  side.records = 1;
  side.payload = payload;
  spec.side_inputs.push_back(side);

  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(AsMap(result.output).at("word"), "6") << "1 mapped + 5 cached";
}

TEST_F(JobRunnerTest, ReduceInputCachingMaterializesPerPane) {
  WriteInput("pane7", {"a b", "b"});
  JobSpec spec = WordCountSpec("pane7");
  spec.map_inputs[0].source = 1;
  spec.map_inputs[0].pane = 7;
  spec.cache.cache_reduce_input = true;
  spec.cache.input_cache_name = [](SourceId s, PaneId p, int32_t r) {
    return "RIC_S" + std::to_string(s) + "P" + std::to_string(p) + "_R" +
           std::to_string(r);
  };
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_FALSE(result.caches.empty());
  int64_t cached_records = 0;
  for (const MaterializedCache& cache : result.caches) {
    EXPECT_FALSE(cache.is_reduce_output);
    EXPECT_EQ(cache.source, 1);
    EXPECT_EQ(cache.pane, 7);
    EXPECT_TRUE(cluster_.node(cache.node).HasLocalFile(cache.name));
    cached_records += cache.records;
    // Payload is sorted.
    EXPECT_TRUE(cache.payload->IsSorted());
  }
  EXPECT_EQ(cached_records, 3) << "all shuffled pairs cached";
}

/// Runs word count over one file per pane (source 1) with reduce-input
/// caching on, and checks that every reduce-input cache holds exactly the
/// pairs its own pane shuffled to its partition, in key order: never a
/// side input's pairs or another pane's.
void ExpectPaneCachesHoldOnlyTheirPane(
    JobRunner* runner, JobSpec spec,
    const std::map<PaneId, std::vector<std::string>>& lines_by_pane) {
  spec.cache.cache_reduce_input = true;
  spec.cache.input_cache_name = [](SourceId s, PaneId p, int32_t r) {
    return "RIC_S" + std::to_string(s) + "P" + std::to_string(p) + "_R" +
           std::to_string(r);
  };
  const int32_t reducers = spec.config.num_reducers;
  HashPartitioner partitioner;
  std::map<std::pair<PaneId, int32_t>, std::vector<std::string>> expected;
  for (const auto& [pane, lines] : lines_by_pane) {
    for (const std::string& line : lines) {
      size_t start = 0;
      while (start < line.size()) {
        size_t end = line.find(' ', start);
        if (end == std::string::npos) end = line.size();
        const std::string word = line.substr(start, end - start);
        expected[{pane, partitioner.Partition(word, reducers)}].push_back(word);
        start = end + 1;
      }
    }
  }
  for (auto& [cell, words] : expected) std::sort(words.begin(), words.end());

  JobResult result = runner->Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  size_t input_caches = 0;
  for (const MaterializedCache& cache : result.caches) {
    if (cache.is_reduce_output) continue;
    ++input_caches;
    EXPECT_EQ(cache.source, 1);
    const auto it = expected.find({cache.pane, cache.partition});
    ASSERT_NE(it, expected.end()) << cache.name;
    std::vector<std::string> keys;
    for (size_t i = 0; i < cache.payload->size(); ++i) {
      keys.emplace_back(cache.payload->key(i));
      EXPECT_EQ(cache.payload->value(i), "1") << cache.name;
    }
    EXPECT_EQ(keys, it->second) << cache.name;
    EXPECT_EQ(cache.records, static_cast<int64_t>(keys.size()));
    EXPECT_EQ(cache.bytes, cache.payload->total_logical_bytes());
  }
  EXPECT_EQ(input_caches, expected.size());
}

TEST_F(JobRunnerTest, SinglePaneReduceInputCacheIsItsOwnMerge) {
  const std::vector<std::string> lines = {"a b a", "c b a", "d e f g"};
  WriteInput("pane7", lines);
  JobSpec spec = WordCountSpec("pane7");
  spec.map_inputs[0].source = 1;
  spec.map_inputs[0].pane = 7;
  ExpectPaneCachesHoldOnlyTheirPane(&runner_, spec, {{7, lines}});
}

/// A cached side input in the partition of "word": that reduce task's
/// merged input holds it, the pane caches must not.
void AddWordSideInput(JobSpec* spec) {
  HashPartitioner partitioner;
  ReduceSideInput side;
  side.cache_name = "prior";
  side.partition = partitioner.Partition("word", spec->config.num_reducers);
  side.location = 0;
  side.bytes = 16;
  side.records = 1;
  side.payload = std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{{"word", "1", 16}}));
  spec->side_inputs.push_back(side);
}

TEST_F(JobRunnerTest, SinglePaneReduceInputCacheExcludesSideInputs) {
  const std::vector<std::string> lines = {"word a b", "c word"};
  WriteInput("pane7", lines);
  JobSpec spec = WordCountSpec("pane7");
  spec.map_inputs[0].source = 1;
  spec.map_inputs[0].pane = 7;
  AddWordSideInput(&spec);
  ExpectPaneCachesHoldOnlyTheirPane(&runner_, spec, {{7, lines}});
}

TEST_F(JobRunnerTest, MultiPaneReduceInputCachesExcludeSideInputs) {
  const std::vector<std::string> pane3 = {"word a b", "c word"};
  const std::vector<std::string> pane4 = {"a word", "d e"};
  WriteInput("pane3", pane3);
  WriteInput("pane4", pane4);
  JobSpec spec = WordCountSpec("pane3");
  spec.map_inputs[0].source = 1;
  spec.map_inputs[0].pane = 3;
  MapInput second;
  second.file_name = "pane4";
  second.source = 1;
  second.pane = 4;
  spec.map_inputs.push_back(second);
  AddWordSideInput(&spec);
  ExpectPaneCachesHoldOnlyTheirPane(&runner_, spec,
                                    {{3, pane3}, {4, pane4}});
}

TEST_F(JobRunnerTest, ReduceOutputCachingMaterializes) {
  WriteInput("in", {"a a a"});
  JobSpec spec = WordCountSpec("in");
  spec.cache.cache_reduce_output = true;
  spec.cache.output_cache_name = [](int32_t r) {
    return "ROC_R" + std::to_string(r);
  };
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.caches.size(), 1u) << "only one partition has output";
  EXPECT_TRUE(result.caches[0].is_reduce_output);
  ASSERT_EQ(result.caches[0].payload->size(), 1u);
  EXPECT_EQ(result.caches[0].payload->value(0), "3");
}

TEST_F(JobRunnerTest, ExplicitReduceTasksJoinSideInputsOnly) {
  auto left = std::make_shared<const FlatKvBuffer>(FlatKvBuffer::FromKeyValues(
      std::vector<KeyValue>{{"k", "L1", 8}, {"k", "L2", 8}}));
  auto right = std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{{"k", "R1", 8}}));

  JobSpec spec;
  spec.config.reducer = std::make_shared<const IdentityReducer>();
  spec.config.num_reducers = 2;
  ExplicitReduceTask task;
  task.partition = 0;
  task.output_cache_name = "pairout";
  task.label_left = 3;
  task.label_right = 5;
  ReduceSideInput a;
  a.cache_name = "l";
  a.partition = 0;
  a.location = 1;
  a.bytes = 16;
  a.records = 2;
  a.payload = left;
  ReduceSideInput b = a;
  b.cache_name = "r";
  b.records = 1;
  b.payload = right;
  task.side_inputs = {a, b};
  spec.explicit_reduce_tasks.push_back(task);

  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.output.size(), 3u);
  ASSERT_EQ(result.caches.size(), 1u);
  EXPECT_EQ(result.caches[0].name, "pairout");
  EXPECT_EQ(result.caches[0].pane, 3);
  EXPECT_EQ(result.caches[0].pane_right, 5);
  EXPECT_TRUE(result.caches[0].is_reduce_output);
}

TEST_F(JobRunnerTest, ExplicitTaskWithEmptyOutputStillMaterializesCache) {
  JobSpec spec;
  spec.config.reducer = std::make_shared<const NullReducer>();
  spec.config.num_reducers = 1;
  auto payload = std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{{"k", "v", 8}}));
  ExplicitReduceTask task;
  task.partition = 0;
  task.output_cache_name = "empty-pair";
  ReduceSideInput side;
  side.cache_name = "c";
  side.partition = 0;
  side.location = 0;
  side.bytes = 8;
  side.records = 1;
  side.payload = payload;
  task.side_inputs = {side};
  spec.explicit_reduce_tasks.push_back(task);

  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.caches.size(), 1u);
  EXPECT_EQ(result.caches[0].records, 0);
  EXPECT_EQ(result.caches[0].bytes, 0);
}

TEST_F(JobRunnerTest, OutputWrittenToDfsWhenRequested) {
  WriteInput("in", {"a"});
  JobSpec spec = WordCountSpec("in");
  spec.output_prefix = "out/job1";
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(cluster_.dfs().Exists("out/job1/part-all"));
  EXPECT_GT(result.counters.Get(counter::kHdfsWriteBytes), 0);
}

TEST_F(JobRunnerTest, PhaseTimesArePopulated) {
  WriteInput("in", {"a b c d e f", "g h i"});
  JobResult result = runner_.Run(WordCountSpec("in"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.map_phase_time, 0.0);
  EXPECT_GT(result.shuffle_time_total + result.reduce_time_total, 0.0);
  // Every task has a report with a positive total.
  for (const TaskReport& report : result.task_reports) {
    EXPECT_GT(report.timing.Total(), 0.0);
    EXPECT_GE(report.node, 0);
  }
}

TEST_F(JobRunnerTest, NodeFailureMidJobTriggersReexecution) {
  // Many records over small blocks -> enough map tasks that some are still
  // pending/running when the failure fires.
  std::vector<std::string> lines(60, "alpha beta");
  WriteInput("big", lines);
  JobSpec spec = WordCountSpec("big");

  // Fire while the map phase is in flight (job startup is 2 s; the first
  // map wave finishes ~1 s later).
  cluster_.simulator().Schedule(2.5, [this] { cluster_.FailNode(1); });
  JobResult result = runner_.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const auto counts = AsMap(result.output);
  EXPECT_EQ(counts.at("alpha"), "60");
  EXPECT_EQ(counts.at("beta"), "60");
  EXPECT_GT(result.counters.Get(counter::kMapTaskRetries) +
                result.counters.Get(counter::kReduceTaskRetries),
            0)
      << "the failure should have forced at least one re-execution";
}

TEST_F(JobRunnerTest, JobSurvivesFailureOfMultipleNodes) {
  std::vector<std::string> lines(40, "w");
  WriteInput("big", lines);
  cluster_.simulator().Schedule(2.5, [this] { cluster_.FailNode(0); });
  cluster_.simulator().Schedule(3.5, [this] { cluster_.FailNode(2); });
  JobResult result = runner_.Run(WordCountSpec("big"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(AsMap(result.output).at("w"), "40");
}

TEST_F(JobRunnerTest, DiskFullHandlerInvoked) {
  // Tiny node capacity forces the handler path.
  Config config = MakeConfig();
  config.SetInt("node.local_capacity", 64);
  Cluster tiny(2, config);
  DefaultScheduler scheduler;
  JobRunner runner(&tiny, &scheduler);
  int calls = 0;
  runner.SetDiskFullHandler([&](NodeId, int64_t) {
    ++calls;
    return 0;
  });
  std::vector<Record> records;
  for (int i = 0; i < 4; ++i) records.emplace_back(i, "k", "v v v", 256);
  ASSERT_TRUE(tiny.dfs().CreateFile("in", std::move(records), 0, 4).ok());
  JobSpec spec;
  spec.config.mapper = std::make_shared<const WordMapper>();
  spec.config.reducer = std::make_shared<const CountReducer>();
  spec.config.num_reducers = 1;
  MapInput in;
  in.file_name = "in";
  spec.map_inputs.push_back(in);
  spec.cache.cache_reduce_input = true;
  spec.cache.input_cache_name = [](SourceId, PaneId, int32_t) {
    return std::string("big-cache");
  };
  JobResult result = runner.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(calls, 0);
}

}  // namespace
}  // namespace redoop
