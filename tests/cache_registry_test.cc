// Unit tests for the per-node local cache registry (paper §4.1) and the
// cache payload store.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "common/random.h"
#include "core/cache_key.h"
#include "core/cache_store.h"
#include "core/local_cache_registry.h"

namespace redoop {
namespace {

NodeOptions BigNode() {
  NodeOptions o;
  o.local_capacity_bytes = 1 << 20;
  return o;
}

// Well-formed pane-cache keys for registry/store rows.
CacheKey Ric(PaneId pane, int32_t partition = 0) {
  return CacheKey::ReduceInput(/*query=*/1, /*source=*/1, pane, partition);
}
CacheKey Roc(PaneId pane, int32_t partition = 0) {
  return CacheKey::ReduceOutput(/*query=*/1, /*source=*/1, pane, partition);
}

// A cache payload holding `pairs`, as a materializing job would hand it over.
std::shared_ptr<const FlatKvBuffer> Pairs(std::vector<KeyValue> pairs) {
  return std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(pairs));
}

TEST(LocalCacheRegistryTest, AddAndFind) {
  LocalCacheRegistry registry(0, /*purge_cycle=*/60.0);
  registry.AddEntry(Roc(3), CacheType::kReduceOutput, 100);
  registry.AddEntry(Ric(4), CacheType::kReduceInput, 200);
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_TRUE(registry.Has(Roc(3)));
  const LocalCacheEntry* entry = registry.Find(Roc(3));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->type, CacheType::kReduceOutput);
  EXPECT_FALSE(entry->expired);
  EXPECT_EQ(entry->bytes, 100);
  EXPECT_EQ(registry.Find(Roc(99)), nullptr);
}

TEST(LocalCacheRegistryTest, MarkExpired) {
  LocalCacheRegistry registry(0, 60.0);
  registry.AddEntry(Ric(1), CacheType::kReduceInput, 10);
  EXPECT_TRUE(registry.MarkExpired(Ric(1)));
  EXPECT_TRUE(registry.Find(Ric(1))->expired);
  EXPECT_EQ(registry.expired_count(), 1);
  EXPECT_FALSE(registry.MarkExpired(Ric(42)));
}

TEST(LocalCacheRegistryTest, PurgeExpiredDeletesFromNode) {
  TaskNode node(0, BigNode());
  const CacheKey keep = Ric(1);
  const CacheKey drop = Ric(2);
  node.PutLocalFile(keep.name(), 100);
  node.PutLocalFile(drop.name(), 200);
  LocalCacheRegistry registry(0, 60.0);
  registry.AddEntry(keep, CacheType::kReduceInput, 100);
  registry.AddEntry(drop, CacheType::kReduceInput, 200);
  registry.MarkExpired(drop);

  EXPECT_EQ(registry.PurgeExpired(&node), 200);
  EXPECT_TRUE(node.HasLocalFile(keep.name()));
  EXPECT_FALSE(node.HasLocalFile(drop.name()));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.PurgeExpired(&node), 0) << "second purge is a no-op";
}

TEST(LocalCacheRegistryTest, PeriodicPurgeHonorsCycle) {
  TaskNode node(0, BigNode());
  const CacheKey a = Roc(1);
  node.PutLocalFile(a.name(), 50);
  LocalCacheRegistry registry(0, /*purge_cycle=*/100.0);
  registry.AddEntry(a, CacheType::kReduceOutput, 50);
  registry.MarkExpired(a);

  // Cycle starts at time 0; a scan before it elapses does nothing.
  EXPECT_EQ(registry.MaybePeriodicPurge(&node, 50.0), 0);
  EXPECT_TRUE(node.HasLocalFile(a.name()));
  // After the cycle, the scan purges.
  EXPECT_EQ(registry.MaybePeriodicPurge(&node, 120.0), 50);
  EXPECT_FALSE(node.HasLocalFile(a.name()));
}

TEST(LocalCacheRegistryTest, OnDemandPurgeFreesJustEnough) {
  TaskNode node(0, BigNode());
  LocalCacheRegistry registry(0, 1e9);  // Periodic purge effectively off.
  for (int i = 0; i < 5; ++i) {
    const CacheKey key = Ric(i);
    node.PutLocalFile(key.name(), 100);
    registry.AddEntry(key, CacheType::kReduceInput, 100);
    registry.MarkExpired(key);
  }
  const int64_t freed = registry.OnDemandPurge(&node, 250);
  EXPECT_GE(freed, 250);
  EXPECT_LT(freed, 500) << "should stop once enough space is reclaimed";
}

TEST(LocalCacheRegistryTest, OnDemandPurgeSkipsLiveCaches) {
  TaskNode node(0, BigNode());
  LocalCacheRegistry registry(0, 1e9);
  const CacheKey live = Ric(1);
  node.PutLocalFile(live.name(), 100);
  registry.AddEntry(live, CacheType::kReduceInput, 100);
  EXPECT_EQ(registry.OnDemandPurge(&node, 1000), 0)
      << "unexpired caches must never be purged";
  EXPECT_TRUE(node.HasLocalFile(live.name()));
}

TEST(LocalCacheRegistryTest, RemoveDropsMetadataOnly) {
  TaskNode node(0, BigNode());
  const CacheKey x = Ric(1);
  node.PutLocalFile(x.name(), 10);
  LocalCacheRegistry registry(0, 60.0);
  registry.AddEntry(x, CacheType::kReduceInput, 10);
  registry.Remove(x);
  EXPECT_FALSE(registry.Has(x));
  // Physical deletion is the failure path's job, not Remove's.
  EXPECT_TRUE(node.HasLocalFile(x.name()));
}

// ------------------------------ CacheStore ---------------------------------

TEST(CacheStoreTest, PutFindRemove) {
  CacheStore store;
  const CacheKey a = Ric(1);
  const std::shared_ptr<const FlatKvBuffer> payload = Pairs({{"k", "v", 8}});
  store.Put(a, payload, CacheStore::PaneStats{8, 1});
  ASSERT_TRUE(store.Has(a));
  const CacheStore::Entry* entry = store.Find(a);
  ASSERT_NE(entry, nullptr);
  // A hit hands out the very buffer Put received: zero copies, no decode.
  EXPECT_EQ(entry->payload(), payload);
  EXPECT_EQ(entry->payload()->size(), 1u);
  EXPECT_EQ(entry->bytes, 8);
  EXPECT_EQ(store.total_bytes(), 8);
  store.Remove(a);
  EXPECT_FALSE(store.Has(a));
  EXPECT_EQ(store.total_bytes(), 0);
  store.Remove(a);  // Idempotent.
}

TEST(CacheStoreTest, RoundTripsPairsExactly) {
  // Empty, shared-prefix, full-byte-range and random pairs: a hit returns
  // every key, value and logical size exactly as the job stored them.
  Random rng(41);
  auto random_bytes = [&rng](size_t max_len) {
    std::string out(rng.Uniform(max_len + 1), '\0');
    for (char& c : out) c = static_cast<char>(rng.Uniform(256));
    return out;
  };
  std::vector<KeyValue> pairs = {
      {"", "", 8},
      {"shared-prefix-alpha", "v1", 29},
      {"shared-prefix-beta", "v2", 28},
      {std::string("\x00\xff\x80nul", 6), "high\xc3\xa9", 20}};
  int64_t bytes = 0;
  for (int i = 0; i < 500; ++i) {
    pairs.emplace_back(random_bytes(24), random_bytes(12),
                       static_cast<int32_t>(rng.Uniform(1 << 20)));
  }
  for (const KeyValue& kv : pairs) bytes += kv.logical_bytes;
  CacheStore store;
  const CacheKey a = Ric(1);
  store.Put(a, Pairs(pairs),
            CacheStore::PaneStats{bytes, static_cast<int64_t>(pairs.size())});
  const CacheStore::Entry* entry = store.Find(a);
  ASSERT_NE(entry, nullptr);
  const FlatKvBuffer& back = *entry->payload();
  ASSERT_EQ(back.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(back.key(i), pairs[i].key) << "pair " << i;
    EXPECT_EQ(back.value(i), pairs[i].value) << "pair " << i;
    EXPECT_EQ(back.logical_bytes(i), pairs[i].logical_bytes) << "pair " << i;
  }
  EXPECT_EQ(back.total_logical_bytes(), bytes);
}

TEST(CacheStoreTest, OverwriteReplacesBytes) {
  CacheStore store;
  const CacheKey a = Ric(1);
  store.Put(a, Pairs({}), CacheStore::PaneStats{100, 0});
  store.Put(a, Pairs({}), CacheStore::PaneStats{40, 0});
  EXPECT_EQ(store.total_bytes(), 40);
  EXPECT_EQ(store.size(), 1u);
}

TEST(CacheStoreTest, PayloadPointerStableAcrossOtherInserts) {
  CacheStore store;
  const CacheKey a = Roc(0);
  store.Put(a, Pairs({{"k", "v", 8}}), CacheStore::PaneStats{8, 1});
  const CacheStore::Entry* entry = store.Find(a);
  for (int i = 0; i < 100; ++i) {
    store.Put(Ric(i), Pairs({}), CacheStore::PaneStats{1, 0});
  }
  EXPECT_EQ(store.Find(a), entry)
      << "job side-input payloads must stay valid while caches are added";
}

}  // namespace
}  // namespace redoop
