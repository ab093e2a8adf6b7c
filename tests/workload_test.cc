// Unit tests for the workload substrate: rate profiles, feed determinism,
// and the WCC/FFG generators.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/random.h"
#include "common/string_utils.h"
#include "tests/test_util.h"
#include "workload/ffg_generator.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace redoop {
namespace {

TEST(RateProfileTest, ConstantRate) {
  ConstantRate rate(12.5);
  EXPECT_DOUBLE_EQ(rate.RecordsPerSecond(0), 12.5);
  EXPECT_DOUBLE_EQ(rate.RecordsPerSecond(99999), 12.5);
}

TEST(RateProfileTest, WindowSpikeMapsTimesToSlides) {
  // win = 100, slide = 50; recurrence k's fresh data:
  //   k=0: [0,100), k=1: [100,150), k=2: [150,200), ...
  WindowSpikeRate rate(10.0, 2.0, 100, 50, {1, 3});
  EXPECT_DOUBLE_EQ(rate.RecordsPerSecond(0), 10.0);    // Slide 0 (normal).
  EXPECT_DOUBLE_EQ(rate.RecordsPerSecond(99), 10.0);
  EXPECT_DOUBLE_EQ(rate.RecordsPerSecond(100), 20.0);  // Slide 1 (spiked).
  EXPECT_DOUBLE_EQ(rate.RecordsPerSecond(149), 20.0);
  EXPECT_DOUBLE_EQ(rate.RecordsPerSecond(150), 10.0);  // Slide 2.
  EXPECT_DOUBLE_EQ(rate.RecordsPerSecond(200), 20.0);  // Slide 3.
}

TEST(RateProfileTest, PaperSpikePattern) {
  // Windows 1,4,7,10 (1-based) normal; the rest doubled -> 0-based
  // normals are 0,3,6,9.
  const std::vector<int64_t> spiked = WindowSpikeRate::PaperSpikePattern(10);
  const std::set<int64_t> set(spiked.begin(), spiked.end());
  EXPECT_EQ(set.size(), 6u);
  for (int64_t normal : {0, 3, 6, 9}) EXPECT_FALSE(set.count(normal));
  for (int64_t hot : {1, 2, 4, 5, 7, 8}) EXPECT_TRUE(set.count(hot));
}

TEST(RateProfileTest, SinusoidalOscillatesAroundBase) {
  SinusoidalRate rate(100.0, 0.5, 1000);
  EXPECT_NEAR(rate.RecordsPerSecond(0), 100.0, 1e-9);
  EXPECT_NEAR(rate.RecordsPerSecond(250), 150.0, 1e-9);  // Peak.
  EXPECT_NEAR(rate.RecordsPerSecond(750), 50.0, 1e-9);   // Trough.
}

TEST(SyntheticFeedTest, DeterministicReplay) {
  auto make_feed = [] {
    auto feed = std::make_unique<SyntheticFeed>(60);
    WccGeneratorOptions options;
    options.seed = 7;
    feed->AddSource(1, std::make_shared<WccGenerator>(
                           std::make_shared<ConstantRate>(5.0), options));
    return feed;
  };
  auto a = make_feed();
  auto b = make_feed();
  const auto batches_a = a->BatchesFor(1, 0, 300);
  const auto batches_b = b->BatchesFor(1, 0, 300);
  ASSERT_EQ(batches_a.size(), batches_b.size());
  for (size_t i = 0; i < batches_a.size(); ++i) {
    ASSERT_EQ(batches_a[i].records.size(), batches_b[i].records.size());
    for (size_t r = 0; r < batches_a[i].records.size(); ++r) {
      EXPECT_EQ(batches_a[i].records[r], batches_b[i].records[r]);
    }
  }
}

TEST(SyntheticFeedTest, ReplayIndependentOfQueryOrder) {
  // Fetching [0,120) in one go or as two calls yields the same records —
  // the determinism contract both drivers rely on.
  auto feed = std::make_unique<SyntheticFeed>(60);
  WccGeneratorOptions options;
  options.seed = 9;
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(3.0), options));
  auto whole = feed->BatchesFor(1, 0, 120);
  auto first = feed->BatchesFor(1, 0, 60);
  auto second = feed->BatchesFor(1, 60, 120);
  ASSERT_EQ(whole.size(), 2u);
  EXPECT_EQ(whole[0].records.size(), first[0].records.size());
  EXPECT_EQ(whole[1].records.size(), second[0].records.size());
  for (size_t r = 0; r < whole[1].records.size(); ++r) {
    EXPECT_EQ(whole[1].records[r], second[0].records[r]);
  }
}

TEST(SyntheticFeedTest, BatchesAlignedAndContiguous) {
  auto feed = std::make_unique<SyntheticFeed>(30);
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(1.0)));
  auto batches = feed->BatchesFor(1, 60, 180);
  ASSERT_EQ(batches.size(), 4u);
  Timestamp expected = 60;
  for (const RecordBatch& batch : batches) {
    EXPECT_EQ(batch.start, expected);
    EXPECT_EQ(batch.end, expected + 30);
    expected += 30;
    for (const Record& r : batch.records) {
      EXPECT_GE(r.timestamp, batch.start);
      EXPECT_LT(r.timestamp, batch.end);
    }
  }
}

TEST(SyntheticFeedTest, MisalignedRangeAborts) {
  auto feed = std::make_unique<SyntheticFeed>(60);
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(1.0)));
  EXPECT_DEATH(feed->BatchesFor(1, 0, 90), "aligned");
  EXPECT_DEATH(feed->BatchesFor(2, 0, 60), "unknown source");
}

// ---------------------------------------------------------------------------
// Parallel feed: a request's batches render on worker threads and are built
// on the calling thread, identical at every thread count.
// ---------------------------------------------------------------------------

constexpr Timestamp kFeedInterval = 60;

/// A WCC or FFG generator at a fractional rate, so per-second record
/// counts vary.
std::shared_ptr<const RecordGenerator> MakeFeedGenerator(bool ffg) {
  auto rate = std::make_shared<ConstantRate>(2.5);
  if (ffg) {
    FfgGeneratorOptions options;
    options.seed = 2013;
    return std::make_shared<FfgGenerator>(rate, options);
  }
  WccGeneratorOptions options;
  options.seed = 1998;
  return std::make_shared<WccGenerator>(rate, options);
}

/// A WCC feed on source 1, or an FFG feed on sources 1 and 2.
std::unique_ptr<SyntheticFeed> MakeThreadedFeed(bool ffg, int32_t threads) {
  auto feed = std::make_unique<SyntheticFeed>(kFeedInterval, threads);
  const std::shared_ptr<const RecordGenerator> gen = MakeFeedGenerator(ffg);
  feed->AddSource(1, gen);
  if (ffg) feed->AddSource(2, gen);
  return feed;
}

/// The batches of [begin, end) as the concatenation of each second's
/// RecordsForSecond, second by second.
std::vector<RecordBatch> ReferenceBatches(const RecordGenerator& gen,
                                          SourceId source, Timestamp begin,
                                          Timestamp end) {
  std::vector<RecordBatch> batches;
  for (Timestamp t = begin; t < end; t += kFeedInterval) {
    RecordBatch batch;
    batch.start = t;
    batch.end = t + kFeedInterval;
    for (Timestamp s = t; s < batch.end; ++s) {
      for (Record& r : gen.RecordsForSecond(source, s)) {
        batch.records.push_back(std::move(r));
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

TEST(SyntheticFeedTest, BatchesIdenticalAtEveryThreadCount) {
  struct Range {
    Timestamp begin;
    Timestamp end;
  };
  const Range ranges[] = {
      {600, 660},     // A single batch.
      {0, 14400},     // 240 batches.
      {7260, 10860},  // 60 batches from mid-horizon.
      {600, 600},     // Empty.
  };
  for (const bool ffg : {false, true}) {
    const std::shared_ptr<const RecordGenerator> gen = MakeFeedGenerator(ffg);
    const std::vector<SourceId> sources =
        ffg ? std::vector<SourceId>{1, 2} : std::vector<SourceId>{1};
    for (const int32_t threads : {1, 2, 8}) {
      const std::unique_ptr<SyntheticFeed> feed =
          MakeThreadedFeed(ffg, threads);
      for (const Range& range : ranges) {
        for (const SourceId source : sources) {
          SCOPED_TRACE(::testing::Message()
                       << (ffg ? "ffg" : "wcc") << " threads=" << threads
                       << " range [" << range.begin << "," << range.end
                       << ") source " << source);
          const std::vector<RecordBatch> want =
              ReferenceBatches(*gen, source, range.begin, range.end);
          const std::vector<RecordBatch> got =
              feed->BatchesFor(source, range.begin, range.end);
          ASSERT_EQ(got.size(), static_cast<size_t>(
                                    (range.end - range.begin) / kFeedInterval));
          ASSERT_EQ(got.size(), want.size());
          for (size_t b = 0; b < got.size(); ++b) {
            EXPECT_EQ(got[b].start, want[b].start);
            EXPECT_EQ(got[b].end, want[b].end);
            EXPECT_EQ(got[b].records.capacity(), got[b].records.size())
                << "batch " << b;
            ASSERT_EQ(got[b].records.size(), want[b].records.size())
                << "batch " << b;
            for (size_t r = 0; r < got[b].records.size(); ++r) {
              const Record& g = got[b].records[r];
              const Record& w = want[b].records[r];
              ASSERT_EQ(g.timestamp, w.timestamp)
                  << "batch " << b << " record " << r;
              ASSERT_EQ(g.key, w.key) << "batch " << b << " record " << r;
              ASSERT_EQ(g.value, w.value) << "batch " << b << " record " << r;
              ASSERT_EQ(g.logical_bytes, w.logical_bytes)
                  << "batch " << b << " record " << r;
            }
          }
        }
      }
    }
  }
}

TEST(SyntheticFeedTest, MisalignedRangeAbortsOnThreadedFeed) {
  const std::unique_ptr<SyntheticFeed> feed = MakeThreadedFeed(false, 8);
  EXPECT_DEATH(feed->BatchesFor(1, 0, 90), "aligned");
  EXPECT_DEATH(feed->BatchesFor(1, 30, 120), "aligned");
  EXPECT_DEATH(feed->BatchesFor(2, 0, 60), "unknown source");
}

TEST(WccGeneratorTest, RateControlsVolume) {
  WccGeneratorOptions options;
  WccGenerator gen(std::make_shared<ConstantRate>(20.0), options);
  int64_t total = 0;
  for (Timestamp t = 0; t < 200; ++t) {
    total += static_cast<int64_t>(gen.RecordsForSecond(1, t).size());
  }
  EXPECT_NEAR(static_cast<double>(total), 20.0 * 200, 200.0);
}

TEST(WccGeneratorTest, SchemaShape) {
  WccGeneratorOptions options;
  options.record_logical_bytes = 4096;
  WccGenerator gen(std::make_shared<ConstantRate>(50.0), options);
  const auto records = gen.RecordsForSecond(1, 42);
  ASSERT_FALSE(records.empty());
  for (const Record& r : records) {
    EXPECT_EQ(r.timestamp, 42);
    EXPECT_EQ(r.key.rfind("client-", 0), 0u);
    EXPECT_NE(r.value.find("obj-"), std::string::npos);
    EXPECT_EQ(r.logical_bytes, 4096);
  }
}

TEST(WccGeneratorTest, ClientPopularityIsSkewed) {
  WccGeneratorOptions options;
  options.num_clients = 1000;
  options.client_skew = 1.0;
  WccGenerator gen(std::make_shared<ConstantRate>(100.0), options);
  std::map<std::string, int> counts;
  for (Timestamp t = 0; t < 200; ++t) {
    for (const Record& r : gen.RecordsForSecond(1, t)) ++counts[r.key];
  }
  // The most popular client should dwarf the median.
  int max_count = 0;
  for (const auto& [key, count] : counts) max_count = std::max(max_count, count);
  EXPECT_GT(max_count, 20) << "Zipf head should be hot";
  EXPECT_LT(counts.size(), 1000u) << "tail clients unseen in a short run";
}

TEST(FfgGeneratorTest, KeysAreGridCells) {
  FfgGeneratorOptions options;
  options.grid_cells_x = 8;
  options.grid_cells_y = 5;
  FfgGenerator gen(std::make_shared<ConstantRate>(50.0), options);
  for (const Record& r : gen.RecordsForSecond(2, 10)) {
    int x = -1, y = -1;
    ASSERT_EQ(std::sscanf(r.key.c_str(), "cell-%d-%d", &x, &y), 2) << r.key;
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 8);
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 5);
    EXPECT_NE(r.value.find("s2-"), std::string::npos)
        << "value carries the source-tagged sensor id";
  }
}

TEST(FfgGeneratorTest, DifferentSourcesProduceDifferentStreams) {
  FfgGenerator gen(std::make_shared<ConstantRate>(20.0), {});
  const auto s1 = gen.RecordsForSecond(1, 5);
  const auto s2 = gen.RecordsForSecond(2, 5);
  ASSERT_FALSE(s1.empty());
  ASSERT_FALSE(s2.empty());
  bool any_diff = s1.size() != s2.size();
  for (size_t i = 0; i < std::min(s1.size(), s2.size()); ++i) {
    if (!(s1[i] == s2[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// Byte-for-byte equivalence with printf-rendered reference generators: the
// same seeding, draws and record shapes, with keys and values from
// StringPrintf and Zipf ranks from the per-draw reference sampler.
// ---------------------------------------------------------------------------

Random RecordRng(uint64_t seed, SourceId source, Timestamp second) {
  return Random(HashCombine(
      HashCombine(seed, Mix64(static_cast<uint64_t>(source))),
      static_cast<uint64_t>(second)));
}

int64_t RecordCount(Random* rng, double rps) {
  int64_t count = static_cast<int64_t>(rps);
  if (rng->NextDouble() < rps - std::floor(rps)) ++count;
  return count;
}

std::vector<Record> ReferenceWccRecords(const WccGeneratorOptions& options,
                                        double rps, SourceId source,
                                        Timestamp second) {
  Random rng = RecordRng(options.seed, source, second);
  const int64_t count = RecordCount(&rng, rps);
  static const char* kMethods[] = {"GET", "POST", "HEAD"};
  static const int kStatuses[] = {200, 200, 200, 200, 304, 404, 500};
  std::vector<Record> records;
  for (int64_t i = 0; i < count; ++i) {
    const uint64_t client = testing::ReferenceNextZipf(
        &rng, static_cast<uint64_t>(options.num_clients), options.client_skew);
    const uint64_t object = testing::ReferenceNextZipf(
        &rng, static_cast<uint64_t>(options.num_objects), options.object_skew);
    const int32_t region = static_cast<int32_t>(
        rng.Uniform(static_cast<uint64_t>(options.num_regions)));
    const char* method = kMethods[rng.Uniform(3)];
    const int status = kStatuses[rng.Uniform(7)];
    const int64_t bytes = 64 + static_cast<int64_t>(rng.Uniform(32768));
    Record r;
    r.timestamp = second;
    r.key = StringPrintf("client-%lu", client);
    r.value = StringPrintf("obj-%lu,%s,%d,reg-%d,%ld", object, method, status,
                           region, bytes);
    r.logical_bytes = options.record_logical_bytes;
    records.push_back(std::move(r));
  }
  return records;
}

std::vector<Record> ReferenceFfgRecords(const FfgGeneratorOptions& options,
                                        double rps, SourceId source,
                                        Timestamp second) {
  Random rng = RecordRng(options.seed, source, second);
  const int64_t count = RecordCount(&rng, rps);
  std::vector<Record> records;
  for (int64_t i = 0; i < count; ++i) {
    const uint64_t sensor =
        rng.Uniform(static_cast<uint64_t>(options.num_sensors));
    const double cx = static_cast<double>(options.grid_cells_x);
    const double cy = static_cast<double>(options.grid_cells_y);
    const double x = rng.NextDouble() * cx;
    const double y = rng.NextDouble() * cy;
    const int32_t cell_x =
        static_cast<int32_t>(std::fmin(cx - 1, std::fmax(0.0, x)));
    const int32_t cell_y =
        static_cast<int32_t>(std::fmin(cy - 1, std::fmax(0.0, y)));
    const double vx = rng.NextGaussian() * 3.0;
    const double vy = rng.NextGaussian() * 3.0;
    Record r;
    r.timestamp = second;
    r.key = StringPrintf("cell-%d-%d", cell_x, cell_y);
    r.value = StringPrintf("s%d-%lu,%.1f,%.1f,%.2f,%.2f", source, sensor, x, y,
                           vx, vy);
    r.logical_bytes = options.record_logical_bytes;
    records.push_back(std::move(r));
  }
  return records;
}

// A fractional rate exercises the carried-fraction draw as well.
constexpr double kEquivalenceRate = 2.5;
constexpr Timestamp kEquivalenceSeconds = 20000;

void ExpectSameRecords(const std::vector<Record>& got,
                       const std::vector<Record>& want, uint64_t seed,
                       Timestamp second) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " second " << second;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "seed " << seed << " second "
                                       << second << " record " << i;
    ASSERT_EQ(got[i].value, want[i].value) << "seed " << seed << " second "
                                           << second << " record " << i;
    ASSERT_EQ(got[i].timestamp, want[i].timestamp);
    ASSERT_EQ(got[i].logical_bytes, want[i].logical_bytes);
  }
}

TEST(WccGeneratorTest, RecordsMatchPrintfReference) {
  for (const uint64_t seed : {1ull, 1998ull, 4242ull}) {
    WccGeneratorOptions options;
    options.seed = seed;
    const WccGenerator gen(std::make_shared<ConstantRate>(kEquivalenceRate),
                           options);
    int64_t records = 0;
    for (Timestamp t = 0; t < kEquivalenceSeconds; ++t) {
      const std::vector<Record> got = gen.RecordsForSecond(1, t);
      ExpectSameRecords(got,
                        ReferenceWccRecords(options, kEquivalenceRate, 1, t),
                        seed, t);
      records += static_cast<int64_t>(got.size());
    }
    EXPECT_NEAR(static_cast<double>(records),
                kEquivalenceRate * kEquivalenceSeconds, 1000.0);
  }
}

TEST(FfgGeneratorTest, RecordsMatchPrintfReference) {
  for (const uint64_t seed : {1ull, 1998ull, 4242ull}) {
    FfgGeneratorOptions options;
    options.seed = seed;
    const FfgGenerator gen(std::make_shared<ConstantRate>(kEquivalenceRate),
                           options);
    for (Timestamp t = 0; t < kEquivalenceSeconds; ++t) {
      // Alternate the sign of the source so "s%d" renders negatives too.
      const SourceId source = t % 2 == 0 ? 2 : -3;
      ExpectSameRecords(
          gen.RecordsForSecond(source, t),
          ReferenceFfgRecords(options, kEquivalenceRate, source, t), seed, t);
    }
  }
}

}  // namespace
}  // namespace redoop
