// Property tests for the two shuffle kernels: the k-way range merge with
// its shared-key-prefix skip (MergeFlatRuns), and the partition-indexed
// map output (BuildMapOutput).
//
// The merge must equal concatenating its runs in order and stable-sorting
// by (key, value) — bytes and logical sizes — above all on runs whose keys
// share long prefixes, where the skip decides most matches. The map output
// must equal, partition by partition, the per-partition SortedCopy()
// buckets it replaced (combined first when the job has a combiner), both
// inline and as concurrent executor payloads.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/task_executor.h"
#include "gtest/gtest.h"
#include "mapreduce/kv.h"
#include "mapreduce/kv_arena.h"
#include "mapreduce/map_output.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/reducer.h"

namespace redoop {
namespace {

// ---------------------------------------------------------------------------
// Range merge
// ---------------------------------------------------------------------------

/// What the merge must produce: the runs concatenated in order, then
/// stable-sorted by (key, value) — equal pairs keep run order.
std::vector<KeyValue> Reference(
    const std::vector<std::vector<KeyValue>>& runs) {
  std::vector<KeyValue> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::stable_sort(all.begin(), all.end(), KeyValueLess());
  return all;
}

/// Merges `runs` as whole buffers and as slices of one buffer holding the
/// runs back to back (the map output's shape), expecting the reference
/// both ways.
void ExpectMergeMatches(std::vector<std::vector<KeyValue>> runs) {
  for (auto& run : runs) {
    std::stable_sort(run.begin(), run.end(), KeyValueLess());
  }
  const std::vector<KeyValue> want = Reference(runs);

  std::vector<FlatKvBuffer> buffers;
  for (const auto& run : runs) {
    buffers.push_back(FlatKvBuffer::FromKeyValues(run));
  }
  std::vector<KvRange> whole;
  for (const FlatKvBuffer& buf : buffers) {
    whole.emplace_back(buf, 0, buf.size());
  }
  const FlatKvBuffer merged = MergeFlatRuns(whole);
  EXPECT_EQ(merged.ToKeyValues(), want) << "whole-buffer runs";
  EXPECT_EQ(merged.total_logical_bytes(), TotalLogicalBytes(want));

  FlatKvBuffer one;
  std::vector<KvRange> slices;
  size_t begin = 0;
  for (const auto& run : runs) {
    for (const KeyValue& kv : run) {
      one.Append(kv.key, kv.value, kv.logical_bytes);
    }
    slices.emplace_back(one, begin, begin + run.size());
    begin += run.size();
  }
  EXPECT_EQ(MergeFlatRuns(slices).ToKeyValues(), want)
      << "slices of one buffer";
}

/// Keys drawn from `prefix` plus a short random tail; the tail's bytes
/// span the full range (NULs and bytes below '&' included) and may be
/// empty, so some keys are proper prefixes of others.
std::string PrefixedKey(Random* rng, const std::string& prefix) {
  std::string key = prefix;
  const size_t tail = rng->Uniform(11);
  for (size_t i = 0; i < tail; ++i) {
    key.push_back(static_cast<char>(rng->Uniform(4) == 0
                                        ? rng->Uniform(256)
                                        : '0' + rng->Uniform(10)));
  }
  return key;
}

/// `k` runs of [min_len, max_len] pairs with keys from `make_key`, values
/// from a small domain (so equal pairs occur), random logical sizes (so
/// stability is visible).
template <typename MakeKey>
std::vector<std::vector<KeyValue>> RandomRuns(Random* rng, size_t k,
                                              size_t min_len, size_t max_len,
                                              MakeKey make_key) {
  std::vector<std::vector<KeyValue>> runs(k);
  for (auto& run : runs) {
    const size_t n = min_len + rng->Uniform(max_len - min_len + 1);
    for (size_t i = 0; i < n; ++i) {
      run.emplace_back(make_key(), std::to_string(rng->Uniform(3)),
                       static_cast<int32_t>(8 + rng->Uniform(100)));
    }
  }
  return runs;
}

TEST(RangeMergePropertyTest, LongSharedPrefixes) {
  const std::string prefixes[] = {"client-", "shared/prefix/0123456789/",
                                  std::string("nul\0nul\0", 8)};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    const std::string& prefix = prefixes[seed % 3];
    ExpectMergeMatches(RandomRuns(&rng, 1 + rng.Uniform(12), 0, 30, [&] {
      return PrefixedKey(&rng, prefix);
    }));
  }
}

TEST(RangeMergePropertyTest, AllKeysEqual) {
  Random rng(7);
  ExpectMergeMatches(RandomRuns(&rng, 9, 1, 20, [] { return "client-42"; }));
}

TEST(RangeMergePropertyTest, OneKeyAPrefixOfAnother) {
  Random rng(8);
  const std::string keys[] = {"client-1", std::string("client-1\0", 9),
                              "client-10", "client-1\x01", "client-"};
  ExpectMergeMatches(RandomRuns(&rng, 6, 1, 15, [&] {
    return std::string(keys[rng.Uniform(5)]);
  }));
  // The shared prefix is as long as the shortest run's keys allow.
  ExpectMergeMatches({{{"ab", "1", 8}, {"ab", "2", 8}},
                      {{"abc", "0", 8}},
                      {{"ab", "0", 8}, {"abd", "0", 8}}});
}

TEST(RangeMergePropertyTest, EmbeddedNulsAndEmptyKeys) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Random rng(100 + seed);
    ExpectMergeMatches(RandomRuns(&rng, 5, 0, 12, [&] {
      if (rng.Uniform(5) == 0) return std::string();
      return PrefixedKey(&rng, std::string("\0\0key", 5));
    }));
  }
}

TEST(RangeMergePropertyTest, EmptyAndSingleRuns) {
  ExpectMergeMatches({});
  ExpectMergeMatches({{}, {}, {}});
  ExpectMergeMatches({{}, {{"client-3", "x", 9}, {"client-1", "y", 10}}, {}});
  Random rng(9);
  ExpectMergeMatches(RandomRuns(&rng, 1, 1, 40, [&] {
    return PrefixedKey(&rng, "client-");
  }));
}

TEST(RangeMergePropertyTest, FourHundredFiftyTinyRuns) {
  // The pane-job shape: one run per map task, one or two pairs each.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Random rng(200 + seed);
    ExpectMergeMatches(RandomRuns(&rng, 450, 1, 2, [&] {
      return "client-" + std::to_string(rng.Uniform(300));
    }));
  }
}

TEST(SharedKeyPrefixTest, MinimumOverRunBoundsAndFirstKeys) {
  FlatKvBuffer buf;
  for (const char* key : {"client-1", "client-19", "client-2", "client-77"}) {
    buf.Append(key, "v", 8);
  }
  // Runs {client-1, client-19} and {client-2, client-77}: each run's
  // bounds share "client-1" / "client-", and the first keys "client-".
  std::vector<KvRange> runs = {KvRange(buf, 0, 2), KvRange(buf, 2, 4)};
  EXPECT_EQ(SharedKeyPrefix(runs), 7u);
  runs = {KvRange(buf, 0, 2)};
  EXPECT_EQ(SharedKeyPrefix(runs), 8u);
  runs = {KvRange(buf, 1, 1), KvRange(buf, 3, 4)};  // Empty runs count not.
  EXPECT_EQ(SharedKeyPrefix(runs), 9u);
  runs = {};
  EXPECT_EQ(SharedKeyPrefix(runs), 0u);
  FlatKvBuffer with_empty;
  with_empty.Append("", "v", 8);
  with_empty.Append("client-1", "v", 8);
  runs = {KvRange(with_empty, 0, 2)};
  EXPECT_EQ(SharedKeyPrefix(runs), 0u);
}

// ---------------------------------------------------------------------------
// Partition-indexed map output
// ---------------------------------------------------------------------------

/// An order-sensitive combiner: joins its group's values with '|', so a
/// different member order shows in the bytes.
class ConcatCombiner : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    std::string joined;
    int32_t bytes = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!joined.empty()) joined += '|';
      joined += values.value(i);
      bytes += values.logical_bytes(i);
    }
    context->Emit(key, joined, bytes);
  }
};

/// The layout the map output replaced: per partition, the pairs in
/// emission order, SortedCopy()'d — and, with a combiner, combined group by
/// group in sorted order and sorted again.
std::vector<std::vector<KeyValue>> ReferenceBuckets(
    const FlatKvBuffer& emitted, int32_t partitions, const Reducer* combiner) {
  HashPartitioner partitioner;
  std::vector<FlatKvBuffer> raw(static_cast<size_t>(partitions));
  for (size_t i = 0; i < emitted.size(); ++i) {
    raw[static_cast<size_t>(partitioner.Partition(emitted.key(i), partitions))]
        .AppendFrom(emitted, i);
  }
  std::vector<std::vector<KeyValue>> buckets;
  for (const FlatKvBuffer& part : raw) {
    const FlatKvBuffer sorted = part.SortedCopy();
    if (combiner == nullptr) {
      buckets.push_back(sorted.ToKeyValues());
      continue;
    }
    ReduceContext combined;
    const std::vector<KeyValue> pairs = sorted.ToKeyValues();
    size_t i = 0;
    while (i < pairs.size()) {
      size_t j = i;
      while (j < pairs.size() && pairs[j].key == pairs[i].key) ++j;
      combiner->Reduce(pairs[i].key,
                       std::span<const KeyValue>(pairs.data() + i, j - i),
                       &combined);
      i = j;
    }
    buckets.push_back(combined.flat().SortedCopy().ToKeyValues());
  }
  return buckets;
}

FlatKvBuffer RandomEmission(uint64_t seed) {
  Random rng(seed);
  FlatKvBuffer emitted;
  const size_t n = rng.Uniform(400);
  for (size_t i = 0; i < n; ++i) {
    emitted.Append(PrefixedKey(&rng, "client-"),
                   std::to_string(rng.Uniform(5)),
                   static_cast<int32_t>(8 + rng.Uniform(64)));
  }
  return emitted;
}

/// Checks one map output against the reference buckets; returns the
/// layout as strings so runs on different threads can be compared.
std::vector<std::vector<KeyValue>> CheckLayout(const FlatKvBuffer& emitted,
                                               int32_t partitions,
                                               const Reducer* combiner) {
  const MapOutput out =
      BuildMapOutput(emitted, HashPartitioner(), partitions, combiner);
  const std::vector<std::vector<KeyValue>> want =
      ReferenceBuckets(emitted, partitions, combiner);
  std::vector<std::vector<KeyValue>> got;
  EXPECT_EQ(out.partitions.size(), static_cast<size_t>(partitions));
  uint32_t next = 0;
  for (int32_t p = 0; p < partitions; ++p) {
    const MapOutput::Partition& index = out.partitions[static_cast<size_t>(p)];
    EXPECT_EQ(index.begin, next) << "partitions are laid out in order";
    next = index.end;
    const KvRange range = out.Range(p);
    std::vector<KeyValue> pairs;
    for (size_t k = 0; k < range.size(); ++k) {
      pairs.emplace_back(std::string(range.key(k)), std::string(range.value(k)),
                         range.logical_bytes(k));
    }
    EXPECT_EQ(pairs, want[static_cast<size_t>(p)]) << "partition " << p;
    EXPECT_EQ(index.logical_bytes, TotalLogicalBytes(pairs));
    got.push_back(std::move(pairs));
  }
  EXPECT_EQ(next, out.pairs.size()) << "the index covers every pair";
  return got;
}

TEST(MapOutputPropertyTest, MatchesSortedPartitionBuckets) {
  const ConcatCombiner combiner;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const FlatKvBuffer emitted = RandomEmission(seed);
    for (const int32_t partitions : {1, 3, 16}) {
      CheckLayout(emitted, partitions, nullptr);
      CheckLayout(emitted, partitions, &combiner);
    }
  }
}

TEST(MapOutputPropertyTest, SameLayoutAsConcurrentPayloads) {
  // Map payloads run concurrently on the executor; the layout of each must
  // not depend on where or next to what it ran.
  const ConcatCombiner combiner;
  std::vector<FlatKvBuffer> emissions;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    emissions.push_back(RandomEmission(seed));
  }
  for (const Reducer* c : {static_cast<const Reducer*>(nullptr),
                           static_cast<const Reducer*>(&combiner)}) {
    std::vector<std::vector<std::vector<KeyValue>>> inline_layouts;
    for (const FlatKvBuffer& emitted : emissions) {
      inline_layouts.push_back(CheckLayout(emitted, 16, c));
    }
    for (const int32_t threads : {1, 8}) {
      exec::TaskExecutor executor(threads);
      std::vector<exec::TaskFuture<std::vector<std::vector<KeyValue>>>> futures;
      for (const FlatKvBuffer& emitted : emissions) {
        futures.push_back(executor.Submit([&emitted, c] {
          const MapOutput out =
              BuildMapOutput(emitted, HashPartitioner(), 16, c);
          std::vector<std::vector<KeyValue>> layout;
          for (int32_t p = 0; p < 16; ++p) {
            const KvRange range = out.Range(p);
            std::vector<KeyValue> pairs;
            for (size_t k = 0; k < range.size(); ++k) {
              pairs.emplace_back(std::string(range.key(k)),
                                 std::string(range.value(k)),
                                 range.logical_bytes(k));
            }
            layout.push_back(std::move(pairs));
          }
          return layout;
        }));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        EXPECT_EQ(futures[i].Take(), inline_layouts[i])
            << "threads=" << threads << " emission " << i;
      }
    }
  }
}

}  // namespace
}  // namespace redoop
