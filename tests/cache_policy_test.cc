// Property tests for the capacity-bounded CacheStore: the capacity
// invariant, pin/lease exemption, the exact victim order (recovery-only
// entries first, least recently used first within each class), typed
// CacheKey parsing, and the end-to-end guarantees that evict→recompute
// runs stay byte-identical to the unbounded run at any budget and thread
// count, and that an aggregation keeps its pane partials under a budget
// its reduce-input caches do not fit.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/cache_key.h"
#include "core/cache_store.h"
#include "core/redoop_driver.h"
#include "mapreduce/counters.h"
#include "queries/aggregation_query.h"
#include "tests/test_util.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace redoop {
namespace {

using ::redoop::testing::MeasureRetainedPanes;
using ::redoop::testing::RetainedPaneSizes;

CacheKey Ric(PaneId pane, int32_t partition = 0) {
  return CacheKey::ReduceInput(/*query=*/1, /*source=*/1, pane, partition);
}

std::shared_ptr<const FlatKvBuffer> Payload() {
  return std::make_shared<const FlatKvBuffer>(
      FlatKvBuffer::FromKeyValues(std::vector<KeyValue>{{"k", "v", 8}}));
}

void PutBytes(CacheStore* store, const CacheKey& key, int64_t bytes,
              CacheStore::Use use = CacheStore::Use::kWindowRead) {
  store->Put(key, Payload(), CacheStore::PaneStats{bytes, 1}, use);
}

// Store options whose on_evict appends each victim's pane to `victims`.
CacheStore::Options RecordingVictims(int64_t budget_bytes,
                                     std::vector<PaneId>* victims) {
  CacheStore::Options options;
  options.budget_bytes = budget_bytes;
  options.on_evict = [victims](const CacheStore::EvictionNotice& notice) {
    victims->push_back(notice.key.pane());
  };
  return options;
}

// --- capacity invariant -------------------------------------------------

TEST(CachePolicyCapacity, InvariantHoldsForEveryPolicy) {
  CacheStore::Options options;
  options.budget_bytes = 1000;
  CacheStore store(std::move(options));
  for (PaneId pane = 0; pane < 50; ++pane) {
    PutBytes(&store, Ric(pane), 100);
    // No pins and every entry fits: the budget must hold after each Put.
    EXPECT_LE(store.total_bytes(), 1000) << "pane " << pane;
  }
  EXPECT_GT(store.evicted_entries(), 0);
  EXPECT_EQ(store.evicted_entries() * 100, store.evicted_bytes());
  // Put admits before it evicts, so the high-water mark may transiently
  // overshoot by at most the one incoming entry.
  EXPECT_LE(store.peak_bytes(), 1000 + 100);
}

TEST(CachePolicyCapacity, OversizedEntryMayExceedUntilNextPut) {
  CacheStore::Options options;
  options.budget_bytes = 100;
  CacheStore store(std::move(options));
  // A single entry larger than the whole budget is admitted (the incoming
  // entry is never its own victim)...
  PutBytes(&store, Ric(0), 250);
  EXPECT_TRUE(store.Has(Ric(0)));
  EXPECT_EQ(store.total_bytes(), 250);
  // ...but the next Put makes it the victim and the budget holds again.
  PutBytes(&store, Ric(1), 10);
  EXPECT_FALSE(store.Has(Ric(0)));
  EXPECT_TRUE(store.Has(Ric(1)));
  EXPECT_EQ(store.total_bytes(), 10);
}

TEST(CachePolicyCapacity, UnboundedStoreNeverEvicts) {
  CacheStore store;
  for (PaneId pane = 0; pane < 100; ++pane) {
    PutBytes(&store, Ric(pane), 1 << 20);
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.evicted_entries(), 0);
  store.EnforceBudget();
  EXPECT_EQ(store.size(), 100u);
}

// --- pin / lease --------------------------------------------------------

TEST(CachePolicyPinning, PinnedEntriesAreExemptFromEviction) {
  CacheStore::Options options;
  options.budget_bytes = 300;
  CacheStore store(std::move(options));
  PutBytes(&store, Ric(0), 100);
  CacheStore::Lease pin = store.Acquire(Ric(0));
  ASSERT_TRUE(pin.active());
  EXPECT_EQ(store.pinned_bytes(), 100);
  for (PaneId pane = 1; pane < 30; ++pane) {
    PutBytes(&store, Ric(pane), 100);
    ASSERT_TRUE(store.Has(Ric(0))) << "pane " << pane;
  }
  EXPECT_LE(store.total_bytes(), 300);
}

TEST(CachePolicyPinning, AllPinnedStoreExceedsBudgetThenEnforceTrims) {
  CacheStore::Options options;
  options.budget_bytes = 200;
  CacheStore store(std::move(options));
  std::vector<CacheStore::Lease> pins;
  for (PaneId pane = 0; pane < 5; ++pane) {
    PutBytes(&store, Ric(pane), 100);
    pins.push_back(store.Acquire(Ric(pane)));
  }
  // Every entry is pinned: the store must hold all 500 bytes.
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.total_bytes(), 500);
  EXPECT_EQ(store.pinned_bytes(), 500);
  // Releasing leases does not evict by itself...
  pins.clear();
  EXPECT_EQ(store.total_bytes(), 500);
  EXPECT_EQ(store.pinned_bytes(), 0);
  // ...EnforceBudget at the recurrence boundary does.
  store.EnforceBudget();
  EXPECT_LE(store.total_bytes(), 200);
  EXPECT_EQ(store.evicted_entries(), 3);
}

TEST(CachePolicyPinning, InactiveLeaseForAbsentKey) {
  CacheStore store;
  CacheStore::Lease lease = store.Acquire(Ric(7));
  EXPECT_FALSE(lease.active());
}

TEST(CachePolicyPinning, PinnedLeastRecentIsSkippedThenEvictedFirst) {
  std::vector<PaneId> victims;
  CacheStore store(RecordingVictims(300, &victims));
  PutBytes(&store, Ric(0), 100);
  CacheStore::Lease pin0 = store.Acquire(Ric(0));
  PutBytes(&store, Ric(1), 100);
  PutBytes(&store, Ric(2), 100);
  // 0 is least recent but pinned, so 1 goes instead.
  PutBytes(&store, Ric(3), 100);
  EXPECT_EQ(victims, (std::vector<PaneId>{1}));
  // With 2 and 3 pinned as well, the next Put has no victim to take.
  CacheStore::Lease pin2 = store.Acquire(Ric(2));
  CacheStore::Lease pin3 = store.Acquire(Ric(3));
  PutBytes(&store, Ric(4), 100);
  EXPECT_EQ(store.total_bytes(), 400);
  // Unpinned, 0 is still the least recent: it goes before 4.
  pin0.Release();
  store.EnforceBudget();
  EXPECT_EQ(victims, (std::vector<PaneId>{1, 0}));
  EXPECT_EQ(store.total_bytes(), 300);
}

TEST(CachePolicyPinning, StaleLeaseLeavesReplacementPinned) {
  std::vector<PaneId> victims;
  CacheStore store(RecordingVictims(200, &victims));
  PutBytes(&store, Ric(0), 100);
  CacheStore::Lease stale = store.Acquire(Ric(0));
  PutBytes(&store, Ric(0), 100);  // Replaces the entry `stale` pinned.
  CacheStore::Lease live = store.Acquire(Ric(0));
  stale.Release();
  EXPECT_EQ(store.pinned_bytes(), 100);
  PutBytes(&store, Ric(1), 100);
  PutBytes(&store, Ric(2), 100);  // Over budget: 0 is least recent.
  EXPECT_EQ(victims, (std::vector<PaneId>{1}));
  EXPECT_TRUE(store.Has(Ric(0)));

  // A removed-then-reinserted entry is likewise not the stale lease's.
  CacheStore::Lease removed = store.Acquire(Ric(2));
  store.Remove(Ric(2));
  PutBytes(&store, Ric(2), 100);
  CacheStore::Lease live2 = store.Acquire(Ric(2));
  removed.Release();
  EXPECT_EQ(store.pinned_bytes(), 200);
  live.Release();
  live2.Release();
  EXPECT_EQ(store.pinned_bytes(), 0);
}

// --- exact least-recently-used victim order -------------------------------

std::vector<PaneId> VictimScript() {
  std::vector<PaneId> victims;
  CacheStore store(RecordingVictims(400, &victims));
  for (PaneId pane = 0; pane < 20; ++pane) {
    PutBytes(&store, Ric(pane), 100);
    // Deterministic access pattern that reorders recency.
    if (pane >= 2) store.Find(Ric(pane - 2));
    if (pane % 3 == 0) store.Find(Ric(pane));
  }
  return victims;
}

TEST(CachePolicyDeterminism, VictimOrderIsReproducible) {
  EXPECT_EQ(VictimScript(),
            (std::vector<PaneId>{2, 0, 1, 5, 3, 4, 8, 6, 7, 11, 9, 10, 14, 12,
                                 13, 17}));
}

TEST(CachePolicySemantics, LruEvictsLeastRecentlyUsed) {
  // Each is a use of 0, which leaves 1 the least recently used.
  const struct {
    const char* name;
    std::function<void(CacheStore*)> use;
  } kUses[] = {
      {"Find", [](CacheStore* store) { store->Find(Ric(0)); }},
      {"Has", [](CacheStore* store) { store->Has(Ric(0)); }},
      {"replacement Put",
       [](CacheStore* store) { PutBytes(store, Ric(0), 100); }},
  };
  for (const auto& [name, use] : kUses) {
    SCOPED_TRACE(name);
    std::vector<PaneId> victims;
    CacheStore store(RecordingVictims(300, &victims));
    PutBytes(&store, Ric(0), 100);
    PutBytes(&store, Ric(1), 100);
    PutBytes(&store, Ric(2), 100);
    use(&store);
    PutBytes(&store, Ric(3), 100);
    EXPECT_EQ(victims, (std::vector<PaneId>{1}));
  }
}

TEST(CachePolicySemantics, RecoveryOnlyEntriesGoFirstLruWithinEachClass) {
  constexpr CacheStore::Use kRecovery = CacheStore::Use::kRecoveryOnly;
  std::vector<PaneId> victims;
  CacheStore store(RecordingVictims(400, &victims));
  PutBytes(&store, Ric(0), 100);
  PutBytes(&store, Ric(1), 100, kRecovery);
  PutBytes(&store, Ric(2), 100);
  PutBytes(&store, Ric(3), 100, kRecovery);
  store.Find(Ric(1));  // 3 is now the least recent recovery-only entry.
  // 0 is the least recently used entry overall, but a recovery-only one
  // is left, so that goes: the least recent of its class.
  PutBytes(&store, Ric(4), 100);
  EXPECT_EQ(victims, (std::vector<PaneId>{3}));
  // With the only recovery-only entry pinned, the least recently used
  // window-read entry goes.
  CacheStore::Lease pin1 = store.Acquire(Ric(1));
  PutBytes(&store, Ric(5), 100);
  EXPECT_EQ(victims, (std::vector<PaneId>{3, 0}));
  // A recovery-only Put never evicts a window-read entry: past the pinned
  // 1, only the incoming 6 is left in its class, so the store stays over
  // budget until the next Put...
  PutBytes(&store, Ric(6), 100, kRecovery);
  EXPECT_EQ(victims, (std::vector<PaneId>{3, 0}));
  EXPECT_EQ(store.total_bytes(), 500);
  // ...where 6 goes first, then the least recent window-read entry.
  PutBytes(&store, Ric(7), 100);
  EXPECT_EQ(victims, (std::vector<PaneId>{3, 0, 6, 2}));
  // A replacement Put takes the class it is given: 1 turns window-read,
  // so no recovery-only entry is left and 4, the least recent, goes.
  pin1.Release();
  PutBytes(&store, Ric(1), 100);
  PutBytes(&store, Ric(8), 100);
  EXPECT_EQ(victims, (std::vector<PaneId>{3, 0, 6, 2, 4}));
  EXPECT_EQ(store.total_bytes(), 400);
}

// --- concurrent stat reads (exercised under TSan in CI) ------------------

TEST(CachePolicyConcurrency, StatReadsRaceFreeAgainstMutations) {
  CacheStore::Options options;
  options.budget_bytes = 5000;
  CacheStore store(std::move(options));
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&store] {
      int64_t sink = 0;
      for (int i = 0; i < 2000; ++i) {
        sink += store.total_bytes() + static_cast<int64_t>(store.size()) +
                store.pinned_bytes();
      }
      EXPECT_GE(sink, 0);
    });
  }
  for (PaneId pane = 0; pane < 500; ++pane) {
    PutBytes(&store, Ric(pane % 60), 100);
  }
  for (std::thread& t : readers) t.join();
  EXPECT_LE(store.total_bytes(), 5000);
}

// --- typed CacheKey -----------------------------------------------------

TEST(CacheKeyTest, FactoriesRoundTripThroughParse) {
  const CacheKey keys[] = {
      CacheKey::ReduceInput(3, 1, 42, 7),
      CacheKey::ReduceOutput(3, 1, 42, 7),
      CacheKey::JoinOutput(3, 5, 9, 2),
      CacheKey::ReduceInput(3, 1, 42, 7).WithChunk(2),
      CacheKey::ReduceInput(3, 1, 42, 7).Rebuilt(),
      CacheKey::ReduceInput(3, 1, 42, 7).WithChunk(2).Rebuilt(),
  };
  for (const CacheKey& key : keys) {
    SCOPED_TRACE(key.name());
    const std::optional<CacheKey> parsed = CacheKey::Parse(key.name());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, key);
    EXPECT_EQ(parsed->kind(), key.kind());
    EXPECT_EQ(parsed->partition(), key.partition());
    EXPECT_EQ(parsed->chunk(), key.chunk());
    EXPECT_EQ(parsed->rebuilt(), key.rebuilt());
  }
}

TEST(CacheKeyTest, MalformedNamesFailToParse) {
  const char* bad[] = {
      "",
      "garbage",
      "RIC_Q1",
      "RIC_Q1_S1P3",
      "RIC_Q1_S1P3_R",
      "RIC_Q1_S1P3_R0_x",
      "RIC_Q1_S1P3_R0trailing",
      "JOC_Q1_P3_R0",
      "ROC_Qx_S1P3_R0",
  };
  for (const char* name : bad) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(CacheKey::Parse(name).has_value());
  }
}

// --- end-to-end: evict → recompute byte identity ------------------------

struct DriverRun {
  RunReport report;
  int64_t peak_bytes = 0;
  int64_t evictions = 0;
  RetainedPaneSizes sizes;
};

DriverRun RunSmallAgg(int64_t budget_bytes, int32_t threads,
                      int64_t windows = 3) {
  auto feed = std::make_unique<SyntheticFeed>(/*batch_interval=*/60);
  WccGeneratorOptions gen;
  gen.seed = 7;
  gen.record_logical_bytes = 256 * 1024;
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(2.0), gen));
  const RecurringQuery query = MakeAggregationQuery(
      1, "policy-agg", 1, /*win=*/1800, /*slide=*/180, /*num_reducers=*/2);
  Cluster cluster(4, Config());
  RedoopDriverOptions options;
  options.cache.budget_bytes = budget_bytes;
  options.runner.threads = threads;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  DriverRun run;
  run.report = bench::Unwrap(driver.Run(windows));
  run.peak_bytes = driver.store().peak_bytes();
  run.evictions = driver.store().evicted_entries();
  run.sizes = MeasureRetainedPanes(driver, 1, 1, windows);
  return run;
}

TEST(EvictRecompute, ByteIdenticalToUnboundedAcrossPoliciesAndThreads) {
  const DriverRun reference = RunSmallAgg(0, /*threads=*/1);
  ASSERT_GT(reference.peak_bytes, 0);
  EXPECT_EQ(reference.evictions, 0);
  const int64_t tight = std::max<int64_t>(1, reference.peak_bytes / 20);
  for (const int32_t threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DriverRun bounded = RunSmallAgg(tight, threads);
    EXPECT_GT(bounded.evictions, 0);
    EXPECT_TRUE(bench::ResultsMatch(reference.report, bounded.report));
  }
}

TEST(EvictRecompute, ByteIdenticalAtEveryBudgetRung) {
  const DriverRun reference = RunSmallAgg(0, /*threads=*/1);
  ASSERT_GT(reference.peak_bytes, 0);
  for (const double fraction : {0.25, 0.05, 0.01}) {
    for (const int32_t threads : {1, 8}) {
      const int64_t budget = std::max<int64_t>(
          1, static_cast<int64_t>(
                 static_cast<double>(reference.peak_bytes) * fraction));
      SCOPED_TRACE("fraction=" + std::to_string(fraction) +
                   " threads=" + std::to_string(threads));
      const DriverRun bounded = RunSmallAgg(budget, threads);
      EXPECT_TRUE(bench::ResultsMatch(reference.report, bounded.report));
    }
  }
}

// A per-pane-merge window reads only the pane partials (ROCs), so a budget
// that holds every partial of a window but not one pane's reduce-input
// caches must still reuse every steady pane: the RICs are evicted first.
TEST(EvictRecompute, AggregationKeepsPartialsBelowOnePanesInputCaches) {
  constexpr int64_t kWindows = 4;
  const DriverRun reference = RunSmallAgg(0, /*threads=*/1, kWindows);
  // Ten panes per window, plus the next window's fresh pane.
  const int64_t budget = 11 * reference.sizes.max_pane_roc_bytes;
  ASSERT_GT(reference.sizes.max_pane_roc_bytes, 0);
  ASSERT_LT(budget, reference.sizes.min_pane_ric_bytes);
  for (const int32_t threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DriverRun bounded = RunSmallAgg(budget, threads, kWindows);
    EXPECT_GT(bounded.evictions, 0);
    EXPECT_TRUE(bench::ResultsMatch(reference.report, bounded.report));
    ASSERT_EQ(bounded.report.windows.size(), kWindows);
    for (int64_t w = 1; w < kWindows; ++w) {
      const int64_t hits =
          bounded.report.windows[w].counters.Get(counter::kCachePaneHits);
      EXPECT_EQ(hits, reference.report.windows[w].counters.Get(
                          counter::kCachePaneHits))
          << "window " << w;
      EXPECT_EQ(hits, 9) << "window " << w;  // All but the fresh pane.
    }
  }
}

}  // namespace
}  // namespace redoop
