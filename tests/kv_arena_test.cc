// Unit tests for the flat KV arena: slice layout, chunk sizing, the
// normalized-prefix sort, flat merge, KvRange views, and the scratch
// materialization the string Reduce adapter relies on.
#include "mapreduce/kv_arena.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "mapreduce/kv.h"

namespace redoop {
namespace {

TEST(FlatKvBufferTest, AppendAndRead) {
  FlatKvBuffer buf;
  buf.Append("alpha", "1", 14);
  buf.Append("", "empty-key", 17);
  buf.Append("beta", "", 12);
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.key(0), "alpha");
  EXPECT_EQ(buf.value(0), "1");
  EXPECT_EQ(buf.logical_bytes(0), 14);
  EXPECT_EQ(buf.key(1), "");
  EXPECT_EQ(buf.value(1), "empty-key");
  EXPECT_EQ(buf.key(2), "beta");
  EXPECT_EQ(buf.value(2), "");
  EXPECT_EQ(buf.total_logical_bytes(), 14 + 17 + 12);
}

TEST(FlatKvBufferTest, FramingAppendMatchesKeyValueDefault) {
  FlatKvBuffer buf;
  buf.Append("key", "value");
  const KeyValue kv("key", "value");
  EXPECT_EQ(buf.logical_bytes(0), kv.logical_bytes);
}

TEST(FlatKvBufferTest, RoundTripsThroughKeyValues) {
  std::vector<KeyValue> kvs = {
      {"b", "2", 10}, {"a", "1", 9}, {"a", "0", 9}, {"c", "", 8}};
  FlatKvBuffer buf = FlatKvBuffer::FromKeyValues(kvs);
  EXPECT_EQ(buf.ToKeyValues(), kvs);
}

/// HostBytes() of the slice index alone, for `pairs` reserved pairs — what
/// a buffer's footprint is beyond its chunks.
int64_t SliceIndexBytes(size_t pairs) {
  FlatKvBuffer probe;
  probe.Reserve(pairs);
  return probe.HostBytes();
}

/// A buffer of `n` pairs with keys long enough to share 8-byte prefixes,
/// appended in descending key order so sorting has work to do.
FlatKvBuffer DescendingPairs(size_t n) {
  FlatKvBuffer buf;
  for (size_t i = n; i > 0; --i) {
    buf.Append("key-" + std::to_string(i), "value-" + std::to_string(i * 7),
               16);
  }
  return buf;
}

TEST(FlatKvBufferTest, PairLargerThanChunkGetsOwnChunk) {
  FlatKvBuffer buf;
  buf.Reserve(3);
  const int64_t slice_bytes = buf.HostBytes();
  const std::string big(1 << 20, 'x');  // 1 MiB > the 256 KiB cap.
  buf.Append("small", "pair", 8);
  const int64_t first_chunk = buf.HostBytes() - slice_bytes;
  EXPECT_EQ(first_chunk, 4 * 1024);
  buf.Append("big", big, 4);
  EXPECT_EQ(buf.HostBytes() - slice_bytes, first_chunk + 3 + (1 << 20))
      << "the oversized pair gets one chunk of exactly its bytes";
  buf.Append("after", "big", 8);
  EXPECT_EQ(buf.HostBytes() - slice_bytes,
            first_chunk + 3 + (1 << 20) + 256 * 1024)
      << "growth after an oversized chunk resumes at the cap";
  EXPECT_EQ(buf.key(0), "small");
  EXPECT_EQ(buf.value(1), big);
  EXPECT_EQ(buf.key(2), "after");
}

TEST(FlatKvBufferTest, OpenEndedChunksGrowFrom4KiBTo256KiB) {
  constexpr size_t kPairs = 8000;
  FlatKvBuffer buf;
  buf.Reserve(kPairs);  // Fixes the slice index so deltas are chunks.
  int64_t last = buf.HostBytes();
  std::vector<int64_t> chunks;
  const std::string value(96, 'v');
  for (size_t i = 0; i < kPairs; ++i) {
    buf.Append("kkkk", value, 8);  // 100 bytes per pair.
    if (buf.HostBytes() != last) {
      chunks.push_back(buf.HostBytes() - last);
      last = buf.HostBytes();
    }
  }
  const std::vector<int64_t> expected = {
      4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10,
      128 << 10, 256 << 10, 256 << 10, 256 << 10};
  EXPECT_EQ(chunks, expected);
  EXPECT_EQ(buf.data_bytes(), kPairs * 100);
}

TEST(FlatKvBufferTest, ReservedBucketHoldsOneExactChunk) {
  // A map partition bucket: the pair count and key+value bytes are known
  // before the copy, and the reservation exceeds the open-ended cap.
  const FlatKvBuffer source = DescendingPairs(20000);
  ASSERT_GT(source.data_bytes(), 256u * 1024);
  FlatKvBuffer bucket;
  bucket.Reserve(source.size(), source.data_bytes());
  for (size_t i = 0; i < source.size(); ++i) bucket.AppendFrom(source, i);
  EXPECT_EQ(bucket.HostBytes(),
            SliceIndexBytes(source.size()) +
                static_cast<int64_t>(source.data_bytes()));
  EXPECT_EQ(bucket.ToKeyValues(), source.ToKeyValues());
}

TEST(FlatKvBufferTest, SortedCopyHoldsOneExactChunk) {
  const FlatKvBuffer source = DescendingPairs(20000);
  const FlatKvBuffer sorted = source.SortedCopy();
  EXPECT_TRUE(sorted.IsSorted());
  EXPECT_EQ(sorted.data_bytes(), source.data_bytes());
  EXPECT_EQ(sorted.HostBytes(),
            SliceIndexBytes(source.size()) +
                static_cast<int64_t>(source.data_bytes()));
}

TEST(FlatKvBufferTest, ViewsStableAcrossAppends) {
  FlatKvBuffer buf;
  buf.Append("first", "v", 8);
  const std::string_view key0 = buf.key(0);
  // Force several chunk rollovers.
  const std::string filler(100 * 1024, 'f');
  for (int i = 0; i < 16; ++i) buf.Append("k", filler, 8);
  EXPECT_EQ(key0, "first") << "chunk storage must never relocate";
}

TEST(FlatKvBufferTest, NormalizedPrefixOrdersLikeBytes) {
  // Integer order of prefixes must equal lexicographic order of the first
  // 8 bytes, including empty keys, proper prefixes, and high bytes.
  const std::vector<std::string> keys = {
      "", "a", std::string("a\0", 2), "aa", "ab", "abcdefgh", "abcdefghZ",
      "b", std::string("\xff\xfe", 2), std::string("\x01", 1)};
  for (const std::string& a : keys) {
    for (const std::string& b : keys) {
      const std::string a8 = a.substr(0, 8);
      const std::string b8 = b.substr(0, 8);
      const uint64_t pa = FlatKvBuffer::NormalizedPrefix(a);
      const uint64_t pb = FlatKvBuffer::NormalizedPrefix(b);
      if (a8 < b8) {
        EXPECT_LE(pa, pb) << a << " vs " << b;
      } else if (b8 < a8) {
        EXPECT_LE(pb, pa) << a << " vs " << b;
      } else {
        EXPECT_EQ(pa, pb) << a << " vs " << b;
      }
    }
  }
}

TEST(FlatKvBufferTest, SortedOrderMatchesKeyValueLess) {
  Random random(7);
  FlatKvBuffer buf;
  std::vector<KeyValue> kvs;
  for (int i = 0; i < 500; ++i) {
    // Shared prefixes longer than 8 bytes force the tie fallback.
    std::string key = "shared-prefix-";
    key += static_cast<char>('a' + random.Uniform(4));
    if (random.Uniform(4) == 0) key = "";
    if (random.Uniform(5) == 0) key += '\0';
    std::string value = std::to_string(random.Uniform(10));
    buf.Append(key, value, 8);
    kvs.emplace_back(std::move(key), std::move(value), 8);
  }
  FlatKvBuffer sorted = buf.SortedCopy();
  std::stable_sort(kvs.begin(), kvs.end(), KeyValueLess{});
  EXPECT_TRUE(sorted.IsSorted());
  EXPECT_EQ(sorted.ToKeyValues(), kvs)
      << "prefix sort must equal stable (key, value) sort";
}

TEST(MergeFlatRunsTest, MergesSortedRunsStably) {
  FlatKvBuffer a;
  a.Append("a", "1", 8);
  a.Append("c", "runA", 8);
  FlatKvBuffer b;
  b.Append("b", "2", 8);
  b.Append("c", "runA", 8);  // Equal (key, value) as run a's pair.
  FlatKvBuffer c;  // Empty run.
  const std::vector<const FlatKvBuffer*> runs = {&a, &b, &c};
  FlatKvBuffer merged = MergeFlatRuns(runs);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_TRUE(merged.IsSorted());
  EXPECT_EQ(merged.key(0), "a");
  EXPECT_EQ(merged.key(1), "b");
  EXPECT_EQ(merged.key(2), "c");
  EXPECT_EQ(merged.key(3), "c");
}

TEST(MergeFlatRunsTest, SingleAndEmptyRuns) {
  FlatKvBuffer only;
  only.Append("x", "1", 8);
  const std::vector<const FlatKvBuffer*> single = {&only};
  EXPECT_EQ(MergeFlatRuns(single).size(), 1u);
  const std::vector<const FlatKvBuffer*> none = {};
  EXPECT_TRUE(MergeFlatRuns(none).empty());
}

TEST(MergeFlatRunsTest, ResultHoldsOneExactChunk) {
  const FlatKvBuffer a = DescendingPairs(9000).SortedCopy();
  const FlatKvBuffer b = DescendingPairs(7000).SortedCopy();
  const FlatKvBuffer empty;
  const std::vector<const FlatKvBuffer*> runs = {&a, &empty, &b};
  const FlatKvBuffer merged = MergeFlatRuns(runs);
  ASSERT_EQ(merged.size(), a.size() + b.size());
  EXPECT_TRUE(merged.IsSorted());
  const size_t bytes = a.data_bytes() + b.data_bytes();
  EXPECT_EQ(merged.HostBytes(), SliceIndexBytes(merged.size()) +
                                    static_cast<int64_t>(bytes));
  // The single-run fast path copies into the same exact reservation.
  const std::vector<const FlatKvBuffer*> single = {&empty, &a};
  EXPECT_EQ(MergeFlatRuns(single).HostBytes(),
            SliceIndexBytes(a.size()) + static_cast<int64_t>(a.data_bytes()));
}

TEST(KvRangeTest, ContiguousAndIndexViews) {
  FlatKvBuffer buf;
  buf.Append("k", "a", 8);
  buf.Append("k", "b", 8);
  buf.Append("k", "c", 8);
  const KvRange contiguous(buf, 1, 3);
  ASSERT_EQ(contiguous.size(), 2u);
  EXPECT_EQ(contiguous.value(0), "b");
  EXPECT_EQ(contiguous.value(1), "c");
  const std::vector<uint32_t> indices = {2, 0};
  const KvRange subset(buf, indices);
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset.value(0), "c");
  EXPECT_EQ(subset.value(1), "a");
}

TEST(KvGroupScratchTest, MaterializesAndRecyclesStorage) {
  FlatKvBuffer buf;
  buf.Append("key", "long-value-one", 8);
  buf.Append("key", "two", 9);
  KvGroupScratch scratch;
  std::span<const KeyValue> group = scratch.Fill(KvRange(buf, 0, 2));
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].value, "long-value-one");
  EXPECT_EQ(group[1].logical_bytes, 9);
  // Refill with a shorter group: contents replaced, size honored.
  FlatKvBuffer other;
  other.Append("x", "y", 4);
  group = scratch.Fill(KvRange(other, 0, 1));
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].key, "x");
}

TEST(SortSliceIndicesTest, SortsSubsetOnly) {
  FlatKvBuffer buf;
  buf.Append("c", "1", 8);
  buf.Append("a", "1", 8);
  buf.Append("b", "1", 8);
  std::vector<uint32_t> idx = {0, 2};  // "c", "b" — skip "a".
  SortSliceIndices(buf, &idx);
  EXPECT_EQ(idx, (std::vector<uint32_t>{2, 0}));
}

}  // namespace
}  // namespace redoop
