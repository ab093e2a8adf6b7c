// Randomized equivalence sweep: deterministically generated random window
// geometries, workload seeds, and driver options — every combination must
// keep Redoop's results byte-identical to plain Hadoop's. Complements the
// hand-picked cases in equivalence_property_test.cc.
//
// Also home of the flat-vs-string representation property: random pair
// sets (empty keys, >8-byte shared prefixes, embedded NULs) must sort,
// group, and merge identically through FlatKvBuffer and the string
// kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "baseline/hadoop_driver.h"
#include "common/random.h"
#include "core/redoop_driver.h"
#include "mapreduce/kv.h"
#include "mapreduce/kv_arena.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeFfgFeed;
using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SameOutput;
using ::redoop::testing::SmallClusterConfig;

class FuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalenceTest, RandomConfigRedoopEqualsHadoop) {
  Random rng(GetParam());

  // Random geometry: win a multiple of the 20 s batch interval; slide a
  // divisor-ish fraction of win, also batch-aligned.
  const Timestamp win = 20 * (4 + static_cast<Timestamp>(rng.Uniform(12)));
  Timestamp slide = 20 * (1 + static_cast<Timestamp>(
                                  rng.Uniform(static_cast<uint64_t>(win / 20))));
  if (slide > win) slide = win;

  const bool join = rng.Bernoulli(0.4);
  const uint64_t seed = 1000 + rng.Uniform(100000);
  const int32_t reducers = 2 + static_cast<int32_t>(rng.Uniform(5));
  const int32_t nodes = 4 + static_cast<int32_t>(rng.Uniform(6));
  const int64_t windows = 2 + static_cast<int64_t>(rng.Uniform(3));

  RedoopDriverOptions options;
  options.cache.reduce_input = !rng.Bernoulli(0.15);
  options.cache.reduce_output = !rng.Bernoulli(0.25);
  options.scheduler.cache_aware = rng.Bernoulli(0.8);
  options.cache.hybrid_join_strategy = rng.Bernoulli(0.7);
  options.adaptive.enabled = rng.Bernoulli(0.3);
  if (options.adaptive.enabled) options.adaptive.proactive_threshold = 0.05;

  SCOPED_TRACE(::testing::Message()
               << "win=" << win << " slide=" << slide << " join=" << join
               << " seed=" << seed << " reducers=" << reducers
               << " nodes=" << nodes << " windows=" << windows
               << " ric=" << options.cache.reduce_input
               << " roc=" << options.cache.reduce_output
               << " adaptive=" << options.adaptive.enabled
               << " hybrid=" << options.cache.hybrid_join_strategy);

  RecurringQuery query =
      join ? MakeJoinQuery(9, "fuzz-join", 1, 2, win, slide, reducers)
           : MakeAggregationQuery(9, "fuzz-agg", 1, win, slide, reducers);

  Cluster hadoop_cluster(nodes, SmallClusterConfig());
  Cluster redoop_cluster(nodes, SmallClusterConfig());
  std::unique_ptr<SyntheticFeed> hadoop_feed;
  std::unique_ptr<SyntheticFeed> redoop_feed;
  if (join) {
    hadoop_feed = MakeFfgFeed(1, 2, 4, 20, seed);
    redoop_feed = MakeFfgFeed(1, 2, 4, 20, seed);
  } else {
    hadoop_feed = MakeWccFeed(1, 20, 20, seed);
    redoop_feed = MakeWccFeed(1, 20, 20, seed);
  }

  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query);
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query, options);

  for (int64_t i = 0; i < windows; ++i) {
    WindowReport h = hadoop.RunRecurrence(i);
    WindowReport r = redoop.RunRecurrence(i).value();
    ASSERT_TRUE(SameOutput(h.output, r.output))
        << "diverged at window " << i << " (hadoop " << h.output.size()
        << " rows, redoop " << r.output.size() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// Flat-vs-string representation property
// ---------------------------------------------------------------------------

/// Keys engineered to stress the normalized-prefix sort: empty, shorter
/// and longer than the 8-byte prefix, long shared prefixes (every compare
/// is a prefix tie), and embedded NULs (real 0x00 vs padding).
std::string TrickyKey(Random& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return "";
    case 1:  // Short: fits entirely in the prefix.
      return std::string(1, static_cast<char>('a' + rng.Uniform(3)));
    case 2: {  // Long shared prefix: ties resolved past byte 8.
      std::string key = "shared-prefix-long-";
      key += static_cast<char>('a' + rng.Uniform(4));
      return key;
    }
    case 3: {  // Embedded NUL, also as the 8th/9th byte.
      std::string key = "ab";
      key += '\0';
      key += static_cast<char>('a' + rng.Uniform(2));
      return key;
    }
    case 4: {  // Exactly at the 8-byte prefix boundary, optional tail.
      std::string key = "12345678";
      if (rng.Bernoulli(0.5)) key += static_cast<char>('a' + rng.Uniform(2));
      return key;
    }
    default: {  // Proper-prefix pairs: "p", "pp", "ppp", ...
      return std::string(1 + rng.Uniform(10), 'p');
    }
  }
}

std::vector<KeyValue> TrickyPairs(Random& rng, size_t count) {
  std::vector<KeyValue> kvs;
  kvs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    kvs.emplace_back(TrickyKey(rng), std::to_string(rng.Uniform(8)),
                     static_cast<int32_t>(8 + rng.Uniform(16)));
  }
  return kvs;
}

class FlatVsStringFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatVsStringFuzzTest, SortOrderIdentical) {
  Random rng(GetParam());
  std::vector<KeyValue> kvs = TrickyPairs(rng, 300);
  const FlatKvBuffer flat = FlatKvBuffer::FromKeyValues(kvs);
  const FlatKvBuffer sorted = flat.SortedCopy();
  std::stable_sort(kvs.begin(), kvs.end(), KeyValueLess{});
  ASSERT_TRUE(sorted.IsSorted());
  EXPECT_EQ(sorted.ToKeyValues(), kvs);
}

TEST_P(FlatVsStringFuzzTest, MergeOutputIdentical) {
  Random rng(GetParam() + 1000);
  const size_t num_runs = 1 + rng.Uniform(6);
  std::vector<std::vector<KeyValue>> string_runs(num_runs);
  for (KeyValue& kv : TrickyPairs(rng, 400)) {
    string_runs[rng.Uniform(num_runs)].push_back(std::move(kv));
  }
  std::vector<FlatKvBuffer> flat_runs;
  std::vector<std::span<const KeyValue>> string_views;
  std::vector<KvRange> flat_views;
  for (std::vector<KeyValue>& run : string_runs) {
    SortByKey(&run);
    flat_runs.push_back(FlatKvBuffer::FromKeyValues(run));
  }
  for (size_t r = 0; r < num_runs; ++r) {
    string_views.emplace_back(string_runs[r]);
    flat_views.emplace_back(flat_runs[r], 0, flat_runs[r].size());
  }
  const std::vector<KeyValue> string_merged = MergeSortedRuns(string_views);
  const FlatKvBuffer flat_merged = MergeFlatRuns(flat_views);
  EXPECT_EQ(flat_merged.ToKeyValues(), string_merged);
}

TEST_P(FlatVsStringFuzzTest, ReduceGroupsIdentical) {
  Random rng(GetParam() + 2000);
  std::vector<KeyValue> kvs = TrickyPairs(rng, 250);
  SortByKey(&kvs);
  const FlatKvBuffer flat = FlatKvBuffer::FromKeyValues(kvs);
  // Walk key-group boundaries in both representations; the (key, members)
  // sequences must coincide — this is the grouping both the reduce walk
  // and the combiner rely on.
  std::vector<std::pair<std::string, std::vector<std::string>>> string_groups;
  for (size_t i = 0; i < kvs.size();) {
    size_t j = i;
    std::vector<std::string> values;
    while (j < kvs.size() && kvs[j].key == kvs[i].key) {
      values.push_back(kvs[j].value);
      ++j;
    }
    string_groups.emplace_back(kvs[i].key, std::move(values));
    i = j;
  }
  std::vector<std::pair<std::string, std::vector<std::string>>> flat_groups;
  for (size_t i = 0; i < flat.size();) {
    const std::string_view key = flat.key(i);
    size_t j = i;
    std::vector<std::string> values;
    while (j < flat.size() && flat.key(j) == key) {
      values.emplace_back(flat.value(j));
      ++j;
    }
    flat_groups.emplace_back(std::string(key), std::move(values));
    i = j;
  }
  EXPECT_EQ(flat_groups, string_groups);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsStringFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace redoop
