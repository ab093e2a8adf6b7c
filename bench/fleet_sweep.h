#ifndef REDOOP_BENCH_FLEET_SWEEP_H_
#define REDOOP_BENCH_FLEET_SWEEP_H_

// Shared fleet-serving sweep (DESIGN §17): N identical-pipeline
// aggregation queries over one WCC source, co-run on one cluster by the
// MultiQueryCoordinator twice per cell — once with every fleet feature
// off (the private-cache baseline: each query scans and caches alone) and
// once with shared scans + cross-query cache dedup + fair-share admission
// — and asserts every query's window outputs are byte-identical between
// the two runs. Sweeps the query count at a fixed cluster size and the
// cluster size at a fixed query count.
//
// It has one front end: bench_harness's `fleet` suite entry
// (`bench_harness --only=fleet`; metrics land in BENCH_redoop.json and the
// smoke baseline bench/baselines/smoke.json).
//
// Every emitted quantity is simulated/deterministic (byte-identical at any
// --threads), so the smoke document is a cmp-able baseline.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "common/string_utils.h"
#include "core/fleet.h"
#include "core/multi_query.h"
#include "queries/aggregation_query.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace redoop::bench {

/// Scale knobs for the sweep (mirrors the harness's smoke/full split).
/// Slides must be multiples of batch_interval so the shared pane grid
/// never splits a feed batch.
struct FleetSweepScale {
  /// Query-count sweep at base_nodes.
  std::vector<int32_t> query_counts;
  int32_t base_nodes = kClusterNodes;
  /// Cluster-size sweep at node_sweep_queries.
  std::vector<int32_t> node_counts;
  int32_t node_sweep_queries = 0;  // 0 = skip the node sweep.
  int64_t windows = 4;
  Timestamp win = 7200;
  Timestamp batch_interval = kBatchInterval;
  /// Cycled across queries: same window, different slides, one shared
  /// pane grid (the GCD), one pipeline signature — full dedup fan-in.
  std::vector<Timestamp> slides = {1800, 3600};
  double rps = 1.0;
  int32_t record_bytes = 512 * 1024;
  int32_t reducers = 8;
  /// Host worker threads for task payloads and feed generation
  /// (wall-clock only; metrics identical at any value).
  int32_t threads = 1;
};

/// The headline cells: 12 and 120 queries on 100 nodes, then the
/// 120-query fleet on 300 nodes. The 120-query cell is the acceptance
/// row: shared scans + dedup must beat the private-cache coordinator on
/// both scanned bytes and simulated time.
inline FleetSweepScale FleetFullScale() {
  FleetSweepScale s;
  s.query_counts = {12, 120};
  s.base_nodes = 100;
  s.node_counts = {300};
  s.node_sweep_queries = 120;
  return s;
}

inline FleetSweepScale FleetSmokeScale() {
  FleetSweepScale s;
  s.query_counts = {4, 12};
  s.base_nodes = 6;
  s.node_counts = {6, 12};
  s.node_sweep_queries = 4;
  s.windows = 3;
  s.win = 1800;
  s.batch_interval = 60;
  s.slides = {600, 1200};
  s.rps = 2.0;
  s.record_bytes = 256 * 1024;
  s.reducers = 4;
  return s;
}

/// One (queries, nodes) cell: the private baseline vs the fleet run.
struct FleetCell {
  std::string label;  // "q100" (query sweep) or "n300" (node sweep).
  int32_t queries = 0;
  int32_t nodes = 0;
  double private_total_s = 0.0;  // Sum of per-query response times.
  double fleet_total_s = 0.0;
  double speedup = 0.0;  // private_total_s / fleet_total_s.
  int64_t private_scanned_bytes = 0;  // Bytes pulled from the raw feed.
  int64_t fleet_scanned_bytes = 0;
  double scan_savings = 0.0;  // 1 - fleet/private scanned bytes.
  int64_t scan_hits = 0;
  int64_t adoptions = 0;       // Panes adopted instead of rebuilt.
  int64_t adopted_bytes = 0;
  double admission_wait_s = 0.0;
  /// Every query's window outputs byte-identical between the two runs.
  bool identical = true;
};

struct FleetSweepResult {
  std::vector<FleetCell> cells;
  bool all_identical = true;
};

namespace fleet_internal {

/// Counts the logical bytes every batch request pulls from the raw feed —
/// the "total bytes scanned" both modes are compared on. In the fleet run
/// it sits *under* the SharedScanFeed, so only real (miss) reads count.
class CountingFeed : public BatchFeed {
 public:
  explicit CountingFeed(BatchFeed* inner) : inner_(inner) {}

  std::vector<RecordBatch> BatchesFor(SourceId source, Timestamp begin,
                                      Timestamp end) override {
    std::vector<RecordBatch> batches = inner_->BatchesFor(source, begin, end);
    for (const RecordBatch& b : batches) bytes_ += b.logical_bytes();
    return batches;
  }

  bool HasSource(SourceId source) const override {
    return inner_->HasSource(source);
  }

  int64_t bytes() const { return bytes_; }

 private:
  BatchFeed* inner_;
  int64_t bytes_ = 0;
};

inline std::unique_ptr<SyntheticFeed> FleetFeed(const FleetSweepScale& s) {
  auto feed = std::make_unique<SyntheticFeed>(s.batch_interval, s.threads);
  WccGeneratorOptions options;
  options.seed = 1998;
  options.record_logical_bytes = s.record_bytes;
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(s.rps), options));
  return feed;
}

inline std::vector<RecurringQuery> FleetQueries(const FleetSweepScale& s,
                                                int32_t count) {
  std::vector<RecurringQuery> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int32_t i = 0; i < count; ++i) {
    const Timestamp slide = s.slides[static_cast<size_t>(i) % s.slides.size()];
    queries.push_back(MakeAggregationQuery(
        1000 + i, StringPrintf("fleet-%03d", i), /*source=*/1, s.win, slide,
        s.reducers));
  }
  return queries;
}

struct FleetRun {
  std::vector<RunReport> reports;
  int64_t scanned_bytes = 0;
  FleetStats stats;
};

inline FleetRun RunCoordinator(const FleetSweepScale& s, int32_t queries,
                               int32_t nodes, bool fleet_on) {
  Cluster cluster(nodes, Config());
  auto feed = FleetFeed(s);
  CountingFeed counting(feed.get());
  FleetOptions fleet;
  if (fleet_on) {
    fleet.shared_scans = true;
    fleet.cache_dedup = true;
    fleet.fair_share = true;
  }
  MultiQueryCoordinator coordinator(&cluster, &counting, fleet);
  for (RecurringQuery& query : FleetQueries(s, queries)) {
    RedoopDriverOptions options;
    options.runner.threads = s.threads;
    coordinator.AddQuery(std::move(query), options);
  }
  FleetRun run;
  run.reports = coordinator.Run(s.windows).value();
  run.scanned_bytes = counting.bytes();
  run.stats = coordinator.fleet_stats();
  return run;
}

inline FleetCell RunFleetCell(const FleetSweepScale& s, std::string label,
                              int32_t queries, int32_t nodes) {
  const FleetRun priv = RunCoordinator(s, queries, nodes, /*fleet_on=*/false);
  const FleetRun fleet = RunCoordinator(s, queries, nodes, /*fleet_on=*/true);

  FleetCell cell;
  cell.label = std::move(label);
  cell.queries = queries;
  cell.nodes = nodes;
  for (const RunReport& r : priv.reports) {
    cell.private_total_s += r.TotalResponseTime();
  }
  for (const RunReport& r : fleet.reports) {
    cell.fleet_total_s += r.TotalResponseTime();
  }
  cell.speedup = cell.fleet_total_s > 0.0
                     ? cell.private_total_s / cell.fleet_total_s
                     : 0.0;
  cell.private_scanned_bytes = priv.scanned_bytes;
  cell.fleet_scanned_bytes = fleet.scanned_bytes;
  cell.scan_savings =
      cell.private_scanned_bytes > 0
          ? 1.0 - static_cast<double>(cell.fleet_scanned_bytes) /
                      static_cast<double>(cell.private_scanned_bytes)
          : 0.0;
  cell.scan_hits = fleet.stats.scan_hits;
  cell.adoptions = fleet.stats.dedup_adoptions;
  cell.adopted_bytes = fleet.stats.dedup_bytes;
  cell.admission_wait_s = fleet.stats.admission_wait_s;
  for (size_t q = 0; q < priv.reports.size(); ++q) {
    if (!ResultsMatch(priv.reports[q], fleet.reports[q])) {
      cell.identical = false;
      break;
    }
  }
  return cell;
}

}  // namespace fleet_internal

/// Runs the sweep: every query count at base_nodes, then every cluster
/// size at node_sweep_queries (cells already covered by the query sweep
/// are not repeated). Each cell compares the fleet run byte-for-byte
/// against the private baseline.
inline FleetSweepResult RunFleetSweep(const FleetSweepScale& s) {
  using namespace fleet_internal;  // NOLINT
  FleetSweepResult result;
  for (const int32_t queries : s.query_counts) {
    FleetCell cell = RunFleetCell(s, StringPrintf("q%d", queries), queries,
                                  s.base_nodes);
    if (!cell.identical) result.all_identical = false;
    result.cells.push_back(std::move(cell));
  }
  for (const int32_t nodes : s.node_counts) {
    if (s.node_sweep_queries <= 0) break;
    if (nodes == s.base_nodes) continue;  // Covered by the query sweep.
    FleetCell cell = RunFleetCell(s, StringPrintf("n%d", nodes),
                                  s.node_sweep_queries, nodes);
    if (!cell.identical) result.all_identical = false;
    result.cells.push_back(std::move(cell));
  }
  return result;
}

/// Flattens the sweep into ordered (key, value) metric pairs under the
/// `fleet.` prefix.
inline std::vector<std::pair<std::string, double>> FleetMetrics(
    const FleetSweepResult& result) {
  std::vector<std::pair<std::string, double>> out;
  for (const FleetCell& c : result.cells) {
    const std::string prefix = "fleet." + c.label;
    out.emplace_back(prefix + ".private_total_s", c.private_total_s);
    out.emplace_back(prefix + ".fleet_total_s", c.fleet_total_s);
    out.emplace_back(prefix + ".speedup", c.speedup);
    out.emplace_back(prefix + ".private_scanned_gb",
                     static_cast<double>(c.private_scanned_bytes) / 1e9);
    out.emplace_back(prefix + ".fleet_scanned_gb",
                     static_cast<double>(c.fleet_scanned_bytes) / 1e9);
    out.emplace_back(prefix + ".scan_savings", c.scan_savings);
    out.emplace_back(prefix + ".scan_hits",
                     static_cast<double>(c.scan_hits));
    out.emplace_back(prefix + ".adoptions",
                     static_cast<double>(c.adoptions));
    out.emplace_back(prefix + ".adopted_gb",
                     static_cast<double>(c.adopted_bytes) / 1e9);
    out.emplace_back(prefix + ".identical", c.identical ? 1.0 : 0.0);
  }
  return out;
}

}  // namespace redoop::bench

#endif  // REDOOP_BENCH_FLEET_SWEEP_H_
