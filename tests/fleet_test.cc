// Tests for fleet-scale multi-tenant serving (DESIGN §17): shared pane
// scans (SharedFeedView cursor independence, SharedScanFeed read-once
// fan-out), cross-query cache dedup, fair-share admission, and the
// headline contract — every fleet feature leaves per-query window outputs
// byte-identical to the private-cache coordinator at any thread count and
// any cache budget.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cache_aware_scheduler.h"
#include "core/fleet.h"
#include "core/multi_query.h"
#include "mapreduce/counters.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::MeasureRetainedPanes;
using ::redoop::testing::RetainedPaneSizes;
using ::redoop::testing::SameOutput;
using ::redoop::testing::SmallClusterConfig;

constexpr int32_t kNodes = 8;

// --- SharedFeedView / SharedScanFeed ------------------------------------

TEST(SharedFeedViewTest, IndependentCursorsUnderManyConsumers) {
  auto feed = MakeWccFeed(1, 20, 20);
  // Hundreds of views over one feed, read at interleaved offsets: each
  // view must see exactly what a direct read of its range sees,
  // regardless of what every other view has read before or after it.
  constexpr int kConsumers = 300;
  std::vector<std::unique_ptr<SharedFeedView>> views;
  views.reserve(kConsumers);
  for (int i = 0; i < kConsumers; ++i) {
    views.push_back(std::make_unique<SharedFeedView>(feed.get()));
  }
  auto reference = MakeWccFeed(1, 20, 20);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kConsumers; ++i) {
      // Consumer i reads a window whose position depends on (i, round),
      // so cursors crisscross: early consumers re-read ranges late
      // consumers have moved past.
      const Timestamp begin = 20 * ((i * 7 + round * 11) % 40);
      const Timestamp end = begin + 20 * (1 + (i + round) % 3);
      const std::vector<RecordBatch> got =
          views[static_cast<size_t>(i)]->BatchesFor(1, begin, end);
      const std::vector<RecordBatch> want =
          reference->BatchesFor(1, begin, end);
      ASSERT_EQ(got.size(), want.size()) << "consumer " << i;
      for (size_t b = 0; b < got.size(); ++b) {
        EXPECT_EQ(got[b].start, want[b].start);
        EXPECT_EQ(got[b].end, want[b].end);
        ASSERT_EQ(got[b].records.size(), want[b].records.size());
        for (size_t r = 0; r < got[b].records.size(); ++r) {
          EXPECT_EQ(got[b].records[r].key, want[b].records[r].key);
          EXPECT_EQ(got[b].records[r].value, want[b].records[r].value);
        }
      }
    }
  }
}

TEST(SharedScanFeedTest, ServesSameBatchesAsInnerFeedAndCountsReuse) {
  auto inner = MakeWccFeed(1, 20, 20);
  auto reference = MakeWccFeed(1, 20, 20);
  FleetStats stats;
  SharedScanFeed shared(inner.get(), &stats);

  // First read scans the inner feed; the second consumer's identical read
  // must be served entirely from the materialized batches.
  const std::vector<RecordBatch> first = shared.BatchesFor(1, 0, 200);
  EXPECT_EQ(stats.scan_misses, 10);
  EXPECT_EQ(stats.scan_hits, 0);
  const std::vector<RecordBatch> second = shared.BatchesFor(1, 0, 200);
  EXPECT_EQ(stats.scan_hits, 10);
  EXPECT_EQ(stats.scan_misses, 10);
  EXPECT_EQ(stats.scan_bytes_scanned * 2, stats.scan_bytes_served);

  // A straddling read reuses the cached prefix and scans only the tail.
  const std::vector<RecordBatch> third = shared.BatchesFor(1, 100, 300);
  EXPECT_EQ(stats.scan_hits, 15);
  EXPECT_EQ(stats.scan_misses, 15);

  const std::vector<RecordBatch> want = reference->BatchesFor(1, 0, 300);
  std::vector<RecordBatch> got = shared.BatchesFor(1, 0, 300);
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].records.size(), want[b].records.size());
    for (size_t r = 0; r < got[b].records.size(); ++r) {
      EXPECT_EQ(got[b].records[r].key, want[b].records[r].key);
      EXPECT_EQ(got[b].records[r].value, want[b].records[r].value);
    }
  }

  // Retention: releasing below t=200 drops 10 of the 15 resident batches.
  EXPECT_EQ(shared.resident_batches(), 15u);
  shared.ReleaseBelow(200);
  EXPECT_EQ(shared.resident_batches(), 5u);
  shared.ReleaseBelow(300);
  EXPECT_EQ(shared.resident_batches(), 0u);
  EXPECT_EQ(shared.resident_bytes(), 0);
}

// --- fleet coordinator vs private baseline ------------------------------

/// Four identical-pipeline aggregations (two slides) over one source.
std::vector<RecurringQuery> FleetQueries() {
  return {MakeAggregationQuery(1, "fa", 1, 200, 40, 4),
          MakeAggregationQuery(2, "fb", 1, 200, 100, 4),
          MakeAggregationQuery(3, "fc", 1, 200, 40, 4),
          MakeAggregationQuery(4, "fd", 1, 200, 100, 4)};
}

/// Two same-pipeline, same-slide aggregations: the second adopts every
/// pane the first builds.
std::vector<RecurringQuery> TwinQueries() {
  return {MakeAggregationQuery(1, "ta", 1, 200, 40, 4),
          MakeAggregationQuery(2, "tb", 1, 200, 40, 4)};
}

/// Runs `queries` under one coordinator; `sizes` (optional) receives the
/// cache sizes query 1 retains after the run.
std::vector<RunReport> RunFleetCoordinator(
    const FleetOptions& fleet, int32_t threads, int64_t budget_bytes,
    int64_t windows, FleetStats* stats = nullptr,
    std::vector<RecurringQuery> queries = FleetQueries(),
    RetainedPaneSizes* sizes = nullptr) {
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get(), fleet);
  for (RecurringQuery& query : queries) {
    RedoopDriverOptions options;
    options.runner.threads = threads;
    options.cache.budget_bytes = budget_bytes;
    coordinator.AddQuery(std::move(query), options);
  }
  std::vector<RunReport> reports = coordinator.Run(windows).value();
  if (stats != nullptr) *stats = coordinator.fleet_stats();
  if (sizes != nullptr) {
    *sizes = MeasureRetainedPanes(coordinator.driver(1), 1, 1, windows);
  }
  return reports;
}

void ExpectSameOutputs(const std::vector<RunReport>& a,
                       const std::vector<RunReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].windows.size(), b[q].windows.size()) << "query " << q;
    for (size_t w = 0; w < a[q].windows.size(); ++w) {
      EXPECT_TRUE(SameOutput(a[q].windows[w].output, b[q].windows[w].output))
          << "query " << q << " window " << w;
    }
  }
}

TEST(FleetCoordinatorTest, SharedScansAndDedupMatchPrivateBaseline) {
  const std::vector<RunReport> baseline =
      RunFleetCoordinator(FleetOptions(), /*threads=*/1,
                          /*budget_bytes=*/0, /*windows=*/3);
  FleetOptions fleet;
  fleet.shared_scans = true;
  fleet.cache_dedup = true;
  for (const int32_t threads : {1, 8}) {
    FleetStats stats;
    const std::vector<RunReport> shared = RunFleetCoordinator(
        fleet, threads, /*budget_bytes=*/0, /*windows=*/3, &stats);
    ExpectSameOutputs(baseline, shared);
    // Queries 3 and 4 mirror 1 and 2, so every one of their panes adopts
    // a published image, and overlapping reads hit the shared scan cache.
    EXPECT_GT(stats.scan_hits, 0) << "threads " << threads;
    EXPECT_GT(stats.dedup_published, 0) << "threads " << threads;
    EXPECT_GT(stats.dedup_adoptions, 0) << "threads " << threads;
    EXPECT_GT(stats.dedup_bytes, 0) << "threads " << threads;
    EXPECT_LT(stats.scan_bytes_scanned, stats.scan_bytes_served);
  }
}

TEST(FleetCoordinatorTest, TightBudgetEvictionFanoutKeepsOutputs) {
  // A 1-byte budget evicts every shared pane at each recurrence boundary,
  // exercising the dedup rollback fan-out (other holders drop their
  // adopted entries and rebuild lazily). Outputs must not change.
  const std::vector<RunReport> baseline =
      RunFleetCoordinator(FleetOptions(), /*threads=*/1,
                          /*budget_bytes=*/1, /*windows=*/3);
  FleetOptions fleet;
  fleet.shared_scans = true;
  fleet.cache_dedup = true;
  FleetStats stats;
  const std::vector<RunReport> shared = RunFleetCoordinator(
      fleet, /*threads=*/1, /*budget_bytes=*/1, /*windows=*/3, &stats);
  ExpectSameOutputs(baseline, shared);
  EXPECT_GT(stats.dedup_published, 0);
}

// Under a budget that holds every pane partial (ROC) and one reduce-input
// cache (RIC) but not one pane's RICs, the publisher still holds one RIC
// when it publishes a pane, and the evictions of that shared RIC fan out
// as that image alone: neither tenant loses a partial, so both reuse
// every steady pane.
TEST(FleetCoordinatorTest, BudgetedDedupFansOutOnlyTheEvictedImage) {
  constexpr int64_t kWindows = 4;
  RetainedPaneSizes sizes;
  const std::vector<RunReport> reference =
      RunFleetCoordinator(FleetOptions(), /*threads=*/1, /*budget_bytes=*/0,
                          kWindows, nullptr, TwinQueries(), &sizes);
  // Five panes per window, plus the next window's fresh pane, with room.
  const int64_t budget = 7 * sizes.max_pane_roc_bytes + sizes.max_ric_bytes;
  ASSERT_GT(sizes.max_pane_roc_bytes, 0);
  ASSERT_LT(budget, sizes.min_pane_ric_bytes);
  FleetOptions fleet;
  fleet.cache_dedup = true;
  for (const int32_t threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameOutputs(reference,
                      RunFleetCoordinator(FleetOptions(), threads, budget,
                                          kWindows, nullptr, TwinQueries()));
    FleetStats stats;
    const std::vector<RunReport> shared = RunFleetCoordinator(
        fleet, threads, budget, kWindows, &stats, TwinQueries());
    ExpectSameOutputs(reference, shared);
    EXPECT_GT(stats.dedup_adoptions, 0);
    EXPECT_GT(stats.dedup_evict_fanout, 0);
    for (size_t q = 0; q < shared.size(); ++q) {
      ASSERT_EQ(shared[q].windows.size(), kWindows);
      for (int64_t w = 1; w < kWindows; ++w) {
        const int64_t hits =
            shared[q].windows[w].counters.Get(counter::kCachePaneHits);
        EXPECT_EQ(hits, reference[q].windows[w].counters.Get(
                            counter::kCachePaneHits))
            << "query " << q << " window " << w;
        EXPECT_EQ(hits, 4)  // All but the fresh pane.
            << "query " << q << " window " << w;
      }
    }
  }
}

// A RIC the publisher's budget evicted while it registered the pane is
// gone, not shared: with room for the partials alone, every adoption
// carries partials only.
TEST(FleetCoordinatorTest, BudgetedDedupPublishesOnlyResidentImages) {
  constexpr int64_t kWindows = 3;
  RetainedPaneSizes sizes;
  const std::vector<RunReport> reference =
      RunFleetCoordinator(FleetOptions(), /*threads=*/1, /*budget_bytes=*/0,
                          kWindows, nullptr, TwinQueries(), &sizes);
  const int64_t budget = 7 * sizes.max_pane_roc_bytes;
  ASSERT_LT(budget, sizes.max_ric_bytes);
  FleetOptions fleet;
  fleet.cache_dedup = true;
  FleetStats stats;
  ExpectSameOutputs(reference,
                    RunFleetCoordinator(fleet, /*threads=*/1, budget,
                                        kWindows, &stats, TwinQueries()));
  ASSERT_GT(stats.dedup_adoptions, 0);
  EXPECT_LE(stats.dedup_bytes,
            stats.dedup_adoptions * sizes.max_pane_roc_bytes);
}

TEST(FleetCoordinatorTest, FairShareIsDeterministicAndByteIdentical) {
  FleetOptions fleet;
  fleet.shared_scans = true;
  fleet.cache_dedup = true;
  fleet.fair_share = true;
  fleet.fair_horizon_s = 50;
  const std::vector<RunReport> baseline =
      RunFleetCoordinator(FleetOptions(), /*threads=*/1,
                          /*budget_bytes=*/0, /*windows=*/3);
  FleetStats first_stats;
  const std::vector<RunReport> first = RunFleetCoordinator(
      fleet, /*threads=*/1, /*budget_bytes=*/0, /*windows=*/3, &first_stats);
  const std::vector<RunReport> second = RunFleetCoordinator(
      fleet, /*threads=*/8, /*budget_bytes=*/0, /*windows=*/3);
  ExpectSameOutputs(baseline, first);
  ExpectSameOutputs(first, second);
  EXPECT_EQ(first_stats.admitted, 12);  // 4 queries x 3 windows.
  EXPECT_GE(first_stats.queue_peak, 1);
}

// --- FairShareLedger ----------------------------------------------------

TEST(FairShareLedgerTest, ChargesServiceAgainstWeight) {
  FairShareLedger ledger;
  ledger.RegisterTenant(1, 1.0);
  ledger.RegisterTenant(2, 2.0);
  ledger.Charge(1, 10.0);
  ledger.Charge(2, 10.0);
  EXPECT_DOUBLE_EQ(ledger.AttainedService(1), 10.0);
  // Weight 2 halves the attained (normalized) service of the same work.
  EXPECT_DOUBLE_EQ(ledger.AttainedService(2), 5.0);
  EXPECT_DOUBLE_EQ(ledger.Weight(2), 2.0);
}

TEST(FairShareLedgerTest, PicksLeastServedThenTriggerThenIndex) {
  FairShareLedger ledger;
  ledger.RegisterTenant(1, 1.0);
  ledger.RegisterTenant(2, 1.0);
  ledger.RegisterTenant(3, 1.0);
  ledger.Charge(1, 5.0);

  // Least attained service wins (queries 2 and 3 are at 0, query 1 at 5).
  // Among ties, the earlier trigger; among trigger ties, registration
  // (index) order — so with all-zero attained the legacy order returns.
  std::vector<FairShareLedger::Candidate> candidates = {
      {1, 100, 0}, {2, 120, 1}, {3, 110, 2}};
  EXPECT_EQ(ledger.PickNext(candidates), 2u);  // Query 3: tie at 0, earlier.
  ledger.Charge(3, 5.0);
  EXPECT_EQ(ledger.PickNext(candidates), 1u);  // Query 2 alone at 0.
  ledger.Charge(2, 5.0);
  // All tied at 5: earliest trigger (query 1 at t=100) wins.
  EXPECT_EQ(ledger.PickNext(candidates), 0u);

  std::vector<FairShareLedger::Candidate> same_trigger = {{2, 100, 1},
                                                          {3, 100, 2}};
  // Same attained, same trigger: lowest index (registration order).
  EXPECT_EQ(ledger.PickNext(same_trigger), 0u);
}

}  // namespace
}  // namespace redoop
