#ifndef REDOOP_TESTS_TEST_UTIL_H_
#define REDOOP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/config.h"
#include "common/random.h"
#include "core/metrics.h"
#include "core/redoop_driver.h"
#include "queries/aggregation_query.h"
#include "queries/join_query.h"
#include "workload/ffg_generator.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace redoop::testing {

/// Small cluster defaults used across the test suite: 8 nodes, paper slot
/// layout, 8 MB blocks (smaller data than the benchmarks).
inline Config SmallClusterConfig() {
  Config config;
  config.SetInt("dfs.block_size", 64 * kBytesPerMB);
  config.SetInt("dfs.replication", 3);
  return config;
}

/// A WCC feed at `rps` records/second delivered every `batch_interval`
/// seconds (records default to 4 KB logical size).
inline std::unique_ptr<SyntheticFeed> MakeWccFeed(
    SourceId source, double rps, Timestamp batch_interval,
    uint64_t seed = 1998, int32_t record_logical_bytes = 4096) {
  auto feed = std::make_unique<SyntheticFeed>(batch_interval);
  WccGeneratorOptions options;
  options.seed = seed;
  options.num_clients = 200;  // Small key domain keeps tests fast.
  options.record_logical_bytes = record_logical_bytes;
  feed->AddSource(source, std::make_shared<WccGenerator>(
                              std::make_shared<ConstantRate>(rps), options));
  return feed;
}

/// A two-source FFG feed (join workloads).
inline std::unique_ptr<SyntheticFeed> MakeFfgFeed(SourceId left,
                                                  SourceId right, double rps,
                                                  Timestamp batch_interval,
                                                  uint64_t seed = 2013) {
  auto feed = std::make_unique<SyntheticFeed>(batch_interval);
  FfgGeneratorOptions options;
  options.seed = seed;
  auto rate = std::make_shared<ConstantRate>(rps);
  feed->AddSource(left, std::make_shared<FfgGenerator>(rate, options));
  feed->AddSource(right, std::make_shared<FfgGenerator>(rate, options));
  return feed;
}

/// Renders (key, value) pairs for diffing in failure messages.
inline std::string DumpOutput(const std::vector<KeyValue>& kvs,
                              size_t limit = 10) {
  std::string out;
  for (size_t i = 0; i < kvs.size() && i < limit; ++i) {
    out += kvs[i].key + " => " + kvs[i].value + "\n";
  }
  if (kvs.size() > limit) out += "...\n";
  return out;
}

/// True when two window outputs are the same multiset (both are sorted by
/// the drivers already).
inline bool SameOutput(const std::vector<KeyValue>& a,
                       const std::vector<KeyValue>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
  }
  return true;
}

/// Reference Zipf draw: rejection-inversion (Hormann & Derflinger) with
/// every bound recomputed per draw, the untabulated form of ZipfSampler.
/// A ZipfSampler must return the same rank from the same Random state and
/// consume the same draws.
inline uint64_t ReferenceNextZipf(Random* rng, uint64_t n, double s) {
  if (s <= 0.0) return rng->Uniform(n);
  auto h_integral = [s](double x) {
    const double log_x = std::log(x);
    if (std::abs(1.0 - s) < 1e-12) return log_x;
    return (std::exp((1.0 - s) * log_x) - 1.0) / (1.0 - s);
  };
  auto h_integral_inverse = [s](double x) {
    if (std::abs(1.0 - s) < 1e-12) return std::exp(x);
    double t = x * (1.0 - s) + 1.0;
    if (t < 1e-300) t = 1e-300;
    return std::exp(std::log(t) / (1.0 - s));
  };
  auto h = [s](double x) { return std::exp(-s * std::log(x)); };
  const double h_x1 = h_integral(1.5) - 1.0;
  const double h_half = h_integral(0.5);
  const double t = h_integral(static_cast<double>(n) + 0.5);
  while (true) {
    const double u = h_half + rng->NextDouble() * (t - h_half);
    const double x = h_integral_inverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n) k = n;
    const double kd = static_cast<double>(k);
    if (kd - x <= h_x1 || u >= h_integral(kd + 0.5) - h(kd)) return k - 1;
  }
}

/// Cache sizes over the panes of a driver's last window that are still
/// cached after it ran `windows` recurrences (the window's oldest pane
/// expired with it), for sizing budgets relative to one pane's caches.
struct RetainedPaneSizes {
  int64_t min_pane_ric_bytes = 0;  // Smallest pane's reduce-input caches.
  int64_t max_pane_roc_bytes = 0;  // Largest pane's reduce-output caches.
  int64_t max_ric_bytes = 0;       // Largest single reduce-input cache.
};

inline RetainedPaneSizes MeasureRetainedPanes(const RedoopDriver& driver,
                                              QueryId query, SourceId source,
                                              int64_t windows) {
  RetainedPaneSizes sizes;
  sizes.min_pane_ric_bytes = std::numeric_limits<int64_t>::max();
  const PaneId first = driver.geometry().PanesForRecurrence(windows).first;
  const PaneId last = driver.geometry().PanesForRecurrence(windows - 1).last;
  for (PaneId p = first; p < last; ++p) {
    int64_t ric_bytes = 0;
    for (const CacheSignature* sig : driver.controller().CachesForPane(
             query, source, p, CacheType::kReduceInput)) {
      ric_bytes += sig->bytes;
      sizes.max_ric_bytes = std::max(sizes.max_ric_bytes, sig->bytes);
    }
    int64_t roc_bytes = 0;
    for (const CacheSignature* sig : driver.controller().CachesForPane(
             query, source, p, CacheType::kReduceOutput)) {
      roc_bytes += sig->bytes;
    }
    sizes.min_pane_ric_bytes = std::min(sizes.min_pane_ric_bytes, ric_bytes);
    sizes.max_pane_roc_bytes = std::max(sizes.max_pane_roc_bytes, roc_bytes);
  }
  return sizes;
}

}  // namespace redoop::testing

#endif  // REDOOP_TESTS_TEST_UTIL_H_
