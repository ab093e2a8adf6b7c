#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "queries/aggregation_query.h"
#include "queries/join_query.h"
#include "tracing.h"
#include "workload/ffg_generator.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace recbench {
namespace {

constexpr redoop::SourceId kAggSource = 1;
constexpr redoop::SourceId kJoinLeft = 1;
constexpr redoop::SourceId kJoinRight = 2;

std::unique_ptr<redoop::SyntheticFeed> MakeGenerator(const WorkloadSpec& spec,
                                                     uint64_t seed) {
  auto feed = std::make_unique<redoop::SyntheticFeed>(kBatchInterval);
  auto rate = std::make_shared<redoop::ConstantRate>(spec.rps);
  if (spec.join) {
    redoop::FfgGeneratorOptions options;
    options.seed = seed;
    options.grid_cells_x = 180;
    options.grid_cells_y = 180;
    options.record_logical_bytes = spec.record_bytes;
    feed->AddSource(kJoinLeft,
                    std::make_shared<redoop::FfgGenerator>(rate, options));
    feed->AddSource(kJoinRight,
                    std::make_shared<redoop::FfgGenerator>(rate, options));
  } else {
    redoop::WccGeneratorOptions options;
    options.seed = seed;
    options.record_logical_bytes = spec.record_bytes;
    feed->AddSource(kAggSource,
                    std::make_shared<redoop::WccGenerator>(rate, options));
  }
  return feed;
}

std::vector<redoop::SourceId> Sources(const WorkloadSpec& spec) {
  if (spec.join) return {kJoinLeft, kJoinRight};
  return {kAggSource};
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> w(3);
    // Each recurrence maps only the newest pane and merges the cached
    // partials of the other nine: user map+reduce is a large share of it.
    w[0].name = "agg-pane-merge";
    w[0].rps = 8.0;
    w[0].record_bytes = 2 * redoop::kBytesPerMB;
    w[0].steady_recurrences = 60;
    // Pane-pair join with the join-strategy optimizer off, so every
    // recurrence joins the 19 new pane pairs and unions all 100 pair
    // outputs: the serial Redoop-side result path dominates and user code
    // is a small share. The optimizer picks this path by itself only from
    // about 2 records/s, where a recurrence costs ~470 ms; at 1 record/s a
    // run of 100 recurrences stays near 30 s. The fig7 record size
    // (512 KiB) keeps every node's local cache file system clear of the
    // overflow that aborts the default 2 MiB join. Runs by hand only: its
    // host time swings too far between runs for BENCHMARK.json (README).
    w[1].name = "join-pane-pairs";
    w[1].join = true;
    w[1].rps = 1.0;
    w[1].record_bytes = 512 * 1024;
    // The first recurrence after the one that fills the pair caches still
    // runs ~2.5x slower than a steady one.
    w[1].cold_recurrences = 2;
    w[1].steady_recurrences = 50;
    // The agg-pane-merge query under an lru byte budget of half of one
    // pane's reduce-input caches (5% of the unbounded peak of 18,000 MiB).
    // Below one pane's caches (10%) every cache is evicted at every
    // recurrence and every pane is rebuilt from its files; from 10.5% up
    // only the newest pane's reduce inputs are evicted and nothing
    // changes. The lower rate keeps the rebuild-everything regime near
    // 200 ms per recurrence.
    w[2].name = "agg-cache-budget";
    w[2].rps = 2.0;
    w[2].record_bytes = 2 * redoop::kBytesPerMB;
    w[2].budget_bytes = 900LL * 1024 * 1024;
    w[2].steady_recurrences = 50;
    return w;
  }();
  return workloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

redoop::RecurringQuery MakeQuery(const WorkloadSpec& spec) {
  if (spec.join) {
    return redoop::MakeJoinQuery(2, spec.name, kJoinLeft, kJoinRight, kWin,
                                 kSlide, kReducers);
  }
  return redoop::MakeAggregationQuery(1, spec.name, kAggSource, kWin, kSlide,
                                      kReducers);
}

redoop::RedoopDriverOptions MakeDriverOptions(const WorkloadSpec& spec) {
  return redoop::RedoopDriverOptions::Builder()
      .Threads(kEngineThreads)
      .CacheBudgetBytes(spec.budget_bytes)
      .HybridJoinStrategy(false)  // Only joins read it: always pane pairs.
      .Build();
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      int64_t recurrences) {
  const redoop::Timestamp horizon = (recurrences - 1) * kSlide + kWin;
  std::unique_ptr<redoop::SyntheticFeed> generator = MakeGenerator(spec, seed);
  Inputs inputs;
  const int64_t begin = NowNs();
  for (redoop::SourceId source : Sources(spec)) {
    inputs.batches[source] = generator->BatchesFor(source, 0, horizon);
  }
  inputs.gen_s = static_cast<double>(NowNs() - begin) * 1e-9;
  return inputs;
}

std::vector<redoop::RecordBatch> ReplayFeed::BatchesFor(
    redoop::SourceId source, redoop::Timestamp begin, redoop::Timestamp end) {
  const bool traced = SpanRecorder::Get().enabled();
  const int64_t span_begin = traced ? NowNs() : 0;
  auto it = inputs_.batches.find(source);
  std::vector<redoop::RecordBatch>* stored =
      it == inputs_.batches.end() ? nullptr : &it->second;
  const int64_t first = begin / kBatchInterval;
  const int64_t last = end / kBatchInterval;
  if (stored == nullptr || begin % kBatchInterval != 0 ||
      end % kBatchInterval != 0 || first < 0 ||
      last > static_cast<int64_t>(stored->size())) {
    std::fprintf(stderr,
                 "recbench: feed request [%lld, %lld) for source %d is outside "
                 "the pre-generated inputs\n",
                 static_cast<long long>(begin), static_cast<long long>(end),
                 static_cast<int>(source));
    std::exit(3);
  }
  std::vector<redoop::RecordBatch> out;
  out.reserve(static_cast<size_t>(last - first));
  int64_t records = 0;
  for (int64_t b = first; b < last; ++b) {
    redoop::RecordBatch& batch = (*stored)[static_cast<size_t>(b)];
    if (batch.end == 0) {
      std::fprintf(stderr, "recbench: batch %lld of source %d requested twice\n",
                   static_cast<long long>(b), static_cast<int>(source));
      std::exit(3);
    }
    records += static_cast<int64_t>(batch.records.size());
    out.push_back(std::move(batch));
    batch.end = 0;  // Marks the moved-out slot.
  }
  records_served_ += records;
  if (traced) {
    SpanRecorder::Get().Record(SpanKind::kFeed, span_begin, NowNs(), records);
  }
  return out;
}

}  // namespace recbench
