// Property tests for the LSD radix sort over KvSortEntry: its output
// permutation must be byte-identical to a reference std::stable_sort by
// (normalized prefix, full byte comparison) — the same total order the
// comparison path realizes — across adversarial key distributions and at
// every thread count the executor-parallel histogram pass supports.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/task_executor.h"
#include "gtest/gtest.h"
#include "mapreduce/kv_arena.h"

namespace redoop {
namespace {

/// Reference order: stable sort by (prefix, Compare). Stability supplies
/// the index tie-break, making the order identical to the sorter's
/// (prefix, key bytes, value bytes, index) total order.
std::vector<uint32_t> ReferenceOrder(const FlatKvBuffer& buf) {
  std::vector<uint32_t> indices(buf.size());
  std::iota(indices.begin(), indices.end(), 0u);
  std::stable_sort(indices.begin(), indices.end(),
                   [&](uint32_t a, uint32_t b) {
                     const uint64_t pa = buf.prefix(a);
                     const uint64_t pb = buf.prefix(b);
                     if (pa != pb) return pa < pb;
                     return buf.Compare(a, buf, b) < 0;
                   });
  return indices;
}

void ExpectAllModesMatchReference(const FlatKvBuffer& buf) {
  const std::vector<uint32_t> want = ReferenceOrder(buf);
  for (const KvSortMode mode :
       {KvSortMode::kAuto, KvSortMode::kComparison, KvSortMode::kRadix}) {
    std::vector<uint32_t> got(buf.size());
    std::iota(got.begin(), got.end(), 0u);
    SortSliceIndicesWith(buf, got, mode);
    EXPECT_EQ(got, want) << "mode=" << static_cast<int>(mode);
  }
  for (const int32_t threads : {1, 2, 8}) {
    exec::TaskExecutor executor(threads);
    std::vector<uint32_t> got(buf.size());
    std::iota(got.begin(), got.end(), 0u);
    SortSliceIndicesWith(buf, got, KvSortMode::kRadix, &executor);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

std::string RandomKey(Random* rng, size_t max_len) {
  const size_t len = rng->Uniform(max_len + 1);
  std::string key(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    // Full byte range: non-ASCII bytes and embedded NULs included, so the
    // unsigned-byte normalized prefix and the radix passes both get
    // exercised above 0x7f.
    key[i] = static_cast<char>(rng->Uniform(256));
  }
  return key;
}

TEST(RadixSortPropertyTest, RandomKeysAllLengths) {
  Random rng(20260809);
  for (int round = 0; round < 10; ++round) {
    FlatKvBuffer buf;
    const size_t n = 1 + rng.Uniform(5000);
    for (size_t i = 0; i < n; ++i) {
      buf.Append(RandomKey(&rng, 24), RandomKey(&rng, 8), 16);
    }
    ExpectAllModesMatchReference(buf);
  }
}

TEST(RadixSortPropertyTest, EmptyAndShortKeys) {
  Random rng(7);
  FlatKvBuffer buf;
  for (size_t i = 0; i < 4096; ++i) {
    // Lots of empty keys (prefix 0) mixed with 1..7-byte keys whose
    // prefixes are zero-padded — the padding-vs-NUL boundary the
    // normalized prefix has to keep ordered.
    buf.Append(RandomKey(&rng, 7), i % 3 == 0 ? "" : "v", 8);
  }
  ExpectAllModesMatchReference(buf);
}

TEST(RadixSortPropertyTest, SharedEightBytePrefixes) {
  Random rng(11);
  FlatKvBuffer buf;
  for (size_t i = 0; i < 4096; ++i) {
    // All keys collide on the full 8-byte prefix, forcing every
    // discrimination into the post-radix comparison finish.
    std::string key = "prefix!!";
    key += RandomKey(&rng, 12);
    buf.Append(key, RandomKey(&rng, 4), 24);
  }
  ExpectAllModesMatchReference(buf);
}

TEST(RadixSortPropertyTest, DuplicatePairsKeepIndexOrder) {
  FlatKvBuffer buf;
  for (size_t i = 0; i < 3000; ++i) {
    buf.Append(i % 2 == 0 ? "dup" : "other", "same-value", 21);
  }
  ExpectAllModesMatchReference(buf);
  // Fully-equal pairs must come out in ascending buffer index: the order
  // downstream byte-identity (merge, grouping, pane layout) rests on.
  std::vector<uint32_t> got(buf.size());
  std::iota(got.begin(), got.end(), 0u);
  SortSliceIndicesWith(buf, got, KvSortMode::kRadix);
  uint32_t prev_dup = 0;
  bool first = true;
  for (const uint32_t i : got) {
    if (buf.key(i) != "dup") continue;
    if (!first) EXPECT_LT(prev_dup, i);
    prev_dup = i;
    first = false;
  }
}

TEST(RadixSortPropertyTest, SkewedByteDistributions) {
  Random rng(13);
  for (int round = 0; round < 6; ++round) {
    FlatKvBuffer buf;
    const size_t n = 2048 + rng.Uniform(2048);
    for (size_t i = 0; i < n; ++i) {
      std::string key;
      switch (round % 3) {
        case 0:  // Single hot byte: every radix pass sees one bucket.
          key.assign(8 + rng.Uniform(8), '\xff');
          break;
        case 1:  // Low-entropy low bytes, random high byte.
          key.assign(8, '\0');
          key[0] = static_cast<char>(rng.Uniform(256));
          break;
        default:  // Monotone run with random tail.
          key = std::to_string(i) + RandomKey(&rng, 4);
          break;
      }
      buf.Append(key, RandomKey(&rng, 6), 20);
    }
    ExpectAllModesMatchReference(buf);
  }
}

TEST(RadixSortPropertyTest, TinyInputs) {
  for (const size_t n : {0u, 1u, 2u, 3u, 17u}) {
    Random rng(100 + n);
    FlatKvBuffer buf;
    for (size_t i = 0; i < n; ++i) {
      buf.Append(RandomKey(&rng, 10), RandomKey(&rng, 3), 12);
    }
    ExpectAllModesMatchReference(buf);
  }
}

TEST(RadixSortPropertyTest, LargeParallelHistogramPath) {
  // Big enough that the parallel histogram build actually splits into
  // multiple executor tasks (kMinEntriesPerTask = 64k per slice).
  Random rng(2026);
  FlatKvBuffer buf;
  const size_t n = 200'000;
  buf.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    char key[24];
    const int len = std::snprintf(key, sizeof(key), "u%llu",
                                  static_cast<unsigned long long>(
                                      rng.Uniform(n / 4)));
    buf.Append(std::string_view(key, static_cast<size_t>(len)), "1", 12);
  }
  const std::vector<uint32_t> want = ReferenceOrder(buf);
  for (const int32_t threads : {1, 2, 8}) {
    exec::TaskExecutor executor(threads);
    std::vector<uint32_t> got(buf.size());
    std::iota(got.begin(), got.end(), 0u);
    SortSliceIndicesWith(buf, got, KvSortMode::kRadix, &executor);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace redoop
