// Host wall-clock micro-benchmarks for the execution-engine hot path:
//
//   - reduce-input assembly (k-way merge of sorted runs vs concat+re-sort)
//   - reduce group hand-off (zero-copy span views vs per-group copies)
//   - flat KV arena kernels: arena emit vs per-pair strings, the
//     normalized-prefix sort vs std::sort over KeyValue, hash combine vs
//     sort+scan combine, and the full map pipeline
//     (emit -> partition -> combine -> the engine's partition-indexed map
//     output, BuildMapOutput) flat vs string.
//   - the range merge (MergeFlatRuns) on recbench's two merge shapes,
//     report-only: ns per record and allocations per merge.
//   - Redoop's metadata and loading costs (report-only, no gate): cache
//     status matrix and cache controller operations, the paper's §4.2
//     "negligible overhead" claim, and data packer ingest throughput, its
//     §3.2 "pane creation piggybacks on loading" claim.
//
// Alongside wall time the arena benches report pairs/sec and host bytes
// allocated, via a counting global operator new hook in this TU — the
// allocation column is where the flat layout's advantage is structural
// (two heap strings per pair vs none).
//
// This harness measures *host* time, not simulated time, so its numbers
// are machine-dependent and deliberately excluded from the canonical BENCH
// JSON that redoop_analyze diff consumes. CI builds it in Release and
// uploads the report as an artifact for eyeballing trends; the invariance
// guarantees live in merge_invariance_test and the smoke baseline instead.
//
// Usage: kernel_bench [--out=FILE] [--smoke]
//   --smoke  shrink sizes/reps for CI smoke runs; acceptance gates are
//            reported but not enforced (exit 0).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/cache_controller.h"
#include "core/cache_status_matrix.h"
#include "core/data_packer.h"
#include "core/pane_naming.h"
#include "dfs/dfs.h"
#include "exec/task_executor.h"
#include "mapreduce/kv.h"
#include "mapreduce/kv_arena.h"
#include "mapreduce/map_output.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/reducer.h"
#include "queries/join_query.h"

// ---------------------------------------------------------------------------
// Counting allocator hook: every operator new in this binary is tallied so
// the benches can report host bytes allocated per kernel.
// ---------------------------------------------------------------------------

static uint64_t g_alloc_bytes = 0;
static uint64_t g_alloc_calls = 0;

static void* CountedAlloc(std::size_t n) {
  g_alloc_bytes += n;
  ++g_alloc_calls;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t) { return CountedAlloc(n); }
void* operator new[](std::size_t n, std::align_val_t) {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace redoop {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Builds `k` sorted runs of `n` pairs each over a key domain sized to
/// produce realistic duplicate-key groups across runs (the shape the
/// reduce path sees: one run per map task, same hot keys in every run).
std::vector<std::vector<KeyValue>> MakeRuns(size_t k, size_t n,
                                            uint64_t seed) {
  Random rng(seed);
  std::vector<std::vector<KeyValue>> runs(k);
  const uint64_t key_domain = std::max<uint64_t>(1, (k * n) / 8);
  for (auto& run : runs) {
    run.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      run.emplace_back("key-" + std::to_string(rng.Uniform(key_domain)),
                       "value-" + std::to_string(rng.Uniform(1000)), 24);
    }
    SortByKey(&run);
  }
  return runs;
}

/// The pre-merge reduce-input assembly: concatenate every run and sort the
/// whole thing from scratch.
std::vector<KeyValue> ConcatSort(const std::vector<std::vector<KeyValue>>& runs) {
  size_t total = 0;
  for (const auto& run : runs) total += run.size();
  std::vector<KeyValue> all;
  all.reserve(total);
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  SortByKey(&all);
  return all;
}

std::vector<KeyValue> Merge(const std::vector<std::vector<KeyValue>>& runs) {
  std::vector<std::span<const KeyValue>> views(runs.begin(), runs.end());
  return MergeSortedRuns(views);
}

/// Walks the sorted input group by group, handing each group to `consume`
/// the way the old engine did: copied into a fresh vector per group.
uint64_t GroupsByCopy(const std::vector<KeyValue>& input) {
  uint64_t checksum = 0;
  size_t i = 0;
  while (i < input.size()) {
    size_t j = i + 1;
    while (j < input.size() && input[j].key == input[i].key) ++j;
    const std::vector<KeyValue> group(input.begin() + static_cast<int64_t>(i),
                                      input.begin() + static_cast<int64_t>(j));
    for (const KeyValue& kv : group) checksum += kv.value.size();
    i = j;
  }
  return checksum;
}

/// Same walk with the post-refactor hand-off: a zero-copy span view.
uint64_t GroupsBySpan(const std::vector<KeyValue>& input) {
  uint64_t checksum = 0;
  size_t i = 0;
  while (i < input.size()) {
    size_t j = i + 1;
    while (j < input.size() && input[j].key == input[i].key) ++j;
    const std::span<const KeyValue> group(input.data() + i, j - i);
    for (const KeyValue& kv : group) checksum += kv.value.size();
    i = j;
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// Flat-arena kernels vs string baselines
// ---------------------------------------------------------------------------

/// Deterministic synthetic map output: "key-<k>" over a domain with hot
/// duplicates, short values — the wordcount-ish shape of the map path.
/// Keys are formatted into a stack buffer so both representations pay the
/// same formatting cost and differ only in storage.
template <typename EmitFn>
void EmitPairs(size_t n, uint64_t seed, EmitFn&& emit) {
  Random rng(seed);
  const uint64_t key_domain = std::max<uint64_t>(1, n / 16);
  char key[32];
  for (size_t i = 0; i < n; ++i) {
    const int len = std::snprintf(key, sizeof(key), "key-%llu",
                                  static_cast<unsigned long long>(
                                      rng.Uniform(key_domain)));
    emit(std::string_view(key, static_cast<size_t>(len)),
         std::string_view("1"));
  }
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The string baseline's partition function, as the engine's Partitioner.
class Fnv1aPartitioner : public Partitioner {
 public:
  int32_t Partition(std::string_view key,
                    int32_t num_partitions) const override {
    return static_cast<int32_t>(Fnv1a(key) %
                                static_cast<uint64_t>(num_partitions));
  }
};

/// Combiner work of the string baseline: (key, group size).
class CountCombiner : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    char count[24];
    const auto end = std::to_chars(count, count + sizeof(count), values.size());
    context->Emit(
        key, std::string_view(count, static_cast<size_t>(end.ptr - count)), 24);
  }
};

/// The seed engine's combine: sort the strings, scan groups, emit, re-sort.
std::vector<KeyValue> SortCombineStrings(std::vector<KeyValue> bucket) {
  SortByKey(&bucket);
  std::vector<KeyValue> combined;
  size_t i = 0;
  while (i < bucket.size()) {
    size_t j = i + 1;
    while (j < bucket.size() && bucket[j].key == bucket[i].key) ++j;
    combined.emplace_back(bucket[i].key, std::to_string(j - i), 24);
    i = j;
  }
  SortByKey(&combined);
  return combined;
}

/// Full map-side pipeline, flat representation — the engine's own map
/// output: arena emit, then BuildMapOutput's partition-indexed layout
/// (partition by slice, per-partition hash combine, one sorted run per
/// partition in a single buffer).
uint64_t PipelineFlat(size_t n, size_t partitions, uint64_t seed) {
  FlatKvBuffer out;
  out.Reserve(n);
  EmitPairs(n, seed, [&](std::string_view k, std::string_view v) {
    out.Append(k, v, 24);
  });
  const CountCombiner combiner;
  const MapOutput spill = BuildMapOutput(out, Fnv1aPartitioner(),
                                         static_cast<int32_t>(partitions),
                                         &combiner);
  return spill.pairs.size() +
         static_cast<uint64_t>(spill.pairs.total_logical_bytes());
}

/// One of recbench's merge shapes over WCC-style keys: `k` sorted runs of
/// `n` "client-<c>" pairs, clients drawn from `clients` (so hot keys recur
/// across runs) with aggregate-style "count:sum:max" values. Every key
/// shares "client-", the prefix the merge's head cache skips.
std::vector<FlatKvBuffer> ClientRuns(size_t k, size_t n, uint64_t clients,
                                     uint64_t seed) {
  Random rng(seed);
  std::vector<FlatKvBuffer> runs;
  for (size_t r = 0; r < k; ++r) {
    FlatKvBuffer run;
    for (size_t i = 0; i < n; ++i) {
      char key[32];
      char value[48];
      const int key_len = std::snprintf(
          key, sizeof(key), "client-%llu",
          static_cast<unsigned long long>(rng.Uniform(clients)));
      const int value_len = std::snprintf(
          value, sizeof(value), "%llu:%llu:%llu",
          static_cast<unsigned long long>(1 + rng.Uniform(9)),
          static_cast<unsigned long long>(rng.Uniform(100000)),
          static_cast<unsigned long long>(rng.Uniform(10000)));
      run.Append(std::string_view(key, static_cast<size_t>(key_len)),
                 std::string_view(value, static_cast<size_t>(value_len)), 48);
    }
    runs.push_back(run.SortedCopy());
  }
  return runs;
}

/// Full map-side pipeline, string representation — the seed engine: emit
/// into vector<KeyValue>, partition by move, per-bucket sort+scan combine.
uint64_t PipelineStrings(size_t n, size_t partitions, uint64_t seed) {
  std::vector<KeyValue> out;
  out.reserve(n);
  EmitPairs(n, seed, [&](std::string_view k, std::string_view v) {
    out.emplace_back(std::string(k), std::string(v), 24);
  });
  std::vector<std::vector<KeyValue>> buckets(partitions);
  for (KeyValue& kv : out) {
    buckets[Fnv1a(kv.key) % partitions].push_back(std::move(kv));
  }
  uint64_t checksum = 0;
  for (std::vector<KeyValue>& bucket : buckets) {
    const std::vector<KeyValue> combined =
        SortCombineStrings(std::move(bucket));
    checksum += combined.size() +
                static_cast<uint64_t>(TotalLogicalBytes(combined));
  }
  return checksum;
}

struct Report {
  std::string out_path;
  std::string text;

  void Line(const char* fmt, ...) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::printf("%s\n", buf);
    text += buf;
    text += '\n';
  }
};

/// Times `fn` over `reps` repetitions and returns the best (minimum) wall
/// time — minimum is the standard estimator for a noisy shared host.
template <typename Fn>
double BestOf(int reps, uint64_t* sink, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    *sink += fn();
    best = std::min(best, SecondsSince(start));
  }
  return best;
}

/// BestOf plus the allocation delta of the *last* repetition (steady-state
/// allocation, after any lazy init) and, when `worst` is set, the slowest
/// repetition's time.
template <typename Fn>
double BestOfCounted(int reps, uint64_t* sink, uint64_t* alloc_bytes,
                     Fn&& fn, double* worst = nullptr) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const uint64_t before = g_alloc_bytes;
    const auto start = Clock::now();
    *sink += fn();
    const double seconds = SecondsSince(start);
    best = std::min(best, seconds);
    if (worst != nullptr) *worst = r == 0 ? seconds : std::max(*worst, seconds);
    *alloc_bytes = g_alloc_bytes - before;
  }
  return best;
}

/// Best of `reps` timed loops of `iterations` calls, in nanoseconds per
/// call. `make` builds fresh, untimed state (a pointer) for each
/// repetition; `op(state, i)` is the timed call.
template <typename Make, typename Op>
double BestNsPerOp(int reps, int64_t iterations, uint64_t* sink, Make&& make,
                   Op&& op) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto state = make();
    const auto start = Clock::now();
    for (int64_t i = 0; i < iterations; ++i) *sink += op(*state, i);
    best = std::min(best,
                    SecondsSince(start) * 1e9 / static_cast<double>(iterations));
  }
  return best;
}

/// A window of `panes_per_window` one-minute panes sliding by one pane.
WindowGeometry MatrixGeometry(int64_t panes_per_window) {
  return WindowGeometry(WindowSpec{panes_per_window * 60, 60}, 60);
}

/// A status matrix over `w`-pane windows with every pair of the first `n`
/// panes marked done.
std::unique_ptr<CacheStatusMatrix> FilledMatrix(int64_t w, int64_t n) {
  auto matrix = std::make_unique<CacheStatusMatrix>(MatrixGeometry(w));
  for (PaneId l = 0; l < n; ++l) {
    for (PaneId r = 0; r < n; ++r) matrix->MarkDone(l, r);
  }
  return matrix;
}

/// A controller running one 10-pane join window sliding by one pane.
std::unique_ptr<WindowAwareCacheController> JoinController() {
  auto controller = std::make_unique<WindowAwareCacheController>();
  controller->RegisterQuery(MakeJoinQuery(1, "micro", 1, 2, 600, 60, 4), 60);
  return controller;
}

/// Pane `pane` of both join sources lands in HDFS and gets cached.
void AddJoinPane(WindowAwareCacheController& controller, PaneId pane) {
  for (const SourceId s : {1, 2}) {
    controller.OnPaneInHdfs(1, s, pane, {PaneFileName(s, pane)});
    CacheSignature sig;
    sig.name = ReduceInputCacheName(1, s, pane, 0);
    sig.source = s;
    sig.pane = pane;
    sig.type = CacheType::kReduceInput;
    sig.ready = CacheReady::kCacheAvailable;
    sig.node = static_cast<NodeId>(pane % 30);
    controller.AddSignature(std::move(sig), 1);
    controller.OnPaneCached(1, s, pane);
  }
}

/// A join controller holding the first window's older nine panes, so
/// every retired recurrence purges its oldest pane: the steady state.
/// Without them the first pane's lifespan never completes, nothing is
/// ever purged, and the cost per recurrence grows with the history.
std::unique_ptr<WindowAwareCacheController> SteadyJoinController() {
  auto controller = JoinController();
  for (PaneId pane = 0; pane < 9; ++pane) AddJoinPane(*controller, pane);
  return controller;
}

/// Recurrence `rec`'s new pane added, every map and pair task drained,
/// then the recurrence retired. Returns the purge notifications.
uint64_t ControllerRecurrence(WindowAwareCacheController& controller,
                              int64_t rec) {
  AddJoinPane(controller, rec + 9);  // Newest pane of window `rec`.
  while (controller.PopMapTask().has_value()) {
  }
  while (auto pair = controller.PopReduceTask()) {
    controller.MarkPanePairDone(1, pair->left, pair->right);
  }
  return controller.FinishRecurrence(1, rec).size();
}

/// A packer on its own 8-node DFS, fed consecutive one-minute batches.
struct PackerRig {
  explicit PackerRig(int64_t panes_per_file)
      : dfs(8), packer(&dfs, 1, Plan(panes_per_file)) {}

  static PartitionPlan Plan(int64_t panes_per_file) {
    PartitionPlan plan;
    plan.pane_size = 60;
    plan.panes_per_file = panes_per_file;
    return plan;
  }

  /// Ingests the next batch of `records`, then deletes the files it
  /// sealed so the DFS stays bounded. Returns the files sealed.
  uint64_t Ingest(int64_t records) {
    RecordBatch batch;
    batch.start = t;
    batch.end = t + 60;
    batch.records.reserve(static_cast<size_t>(records));
    for (int64_t i = 0; i < records; ++i) {
      batch.records.emplace_back(t + i % 60, "key", "value", 128);
    }
    t += 60;
    auto files = packer.Ingest(std::move(batch));
    REDOOP_CHECK(files.ok()) << files.status().ToString();
    for (const PaneFileInfo& f : *files) {
      if (!f.file_name.empty()) (void)dfs.DeleteFile(f.file_name);
    }
    return files->size();
  }

  Dfs dfs;
  DynamicDataPacker packer;
  Timestamp t = 0;
};

int Main(int argc, char** argv) {
  Report report;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) report.out_path = argv[i] + 6;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 2 : 5;
  const size_t scale = smoke ? 10 : 1;  // Divides the big sizes in smoke.

  report.Line("kernel_bench: host wall-clock, best of %d reps%s", reps,
              smoke ? " (smoke)" : "");
  report.Line("%-28s %12s %12s %8s", "case", "baseline_ms", "kernel_ms",
              "speedup");

  uint64_t sink = 0;  // Defeats dead-code elimination.
  bool assembly_target_met = false;

  // Reduce-input assembly: merge vs concat+sort across run shapes. The
  // acceptance bar is >= 2x at >= 8 runs of >= 10k pairs.
  const struct { size_t k, n; } shapes[] = {
      {4, 10'000}, {8, 10'000}, {8, 50'000}, {16, 10'000}, {32, 25'000}};
  for (const auto& shape : shapes) {
    const size_t n = std::max<size_t>(1000, shape.n / scale);
    const auto runs = MakeRuns(shape.k, n, /*seed=*/1998);
    const double sort_s = BestOf(reps, &sink, [&] { return ConcatSort(runs).size(); });
    const double merge_s = BestOf(reps, &sink, [&] { return Merge(runs).size(); });
    const double speedup = sort_s / merge_s;
    char label[64];
    std::snprintf(label, sizeof(label), "assemble k=%zu n=%zu", shape.k, n);
    report.Line("%-28s %12.3f %12.3f %7.2fx", label, sort_s * 1e3,
                merge_s * 1e3, speedup);
    if (shape.k >= 8 && n >= 10'000 && speedup >= 2.0) {
      assembly_target_met = true;
    }
  }

  // Grouped reduce hand-off: span views vs per-group vector copies over an
  // already-assembled input.
  for (const size_t n : {100'000, 1'000'000}) {
    const auto runs = MakeRuns(8, n / 8 / scale, /*seed=*/2013);
    const std::vector<KeyValue> input = Merge(runs);
    const double copy_s = BestOf(reps, &sink, [&] { return GroupsByCopy(input); });
    const double span_s = BestOf(reps, &sink, [&] { return GroupsBySpan(input); });
    char label[64];
    std::snprintf(label, sizeof(label), "reduce-groups n=%zu", input.size());
    report.Line("%-28s %12.3f %12.3f %7.2fx", label, copy_s * 1e3,
                span_s * 1e3, copy_s / span_s);
  }

  // ---- Flat arena kernels. Each row: string baseline vs flat kernel,
  // plus the flat side's throughput and both sides' bytes allocated. ----
  report.Line("%s", "");
  report.Line("%-24s %10s %10s %7s %9s %9s %9s", "arena case", "base_ms",
              "flat_ms", "speedup", "Mpairs/s", "base_MB", "flat_MB");
  bool pipeline_target_met = false;

  const size_t kEmitN = 1'000'000 / scale;
  {
    // Arena emit vs per-pair string emit.
    uint64_t base_alloc = 0, flat_alloc = 0;
    const double base_s = BestOfCounted(reps, &sink, &base_alloc, [&] {
      std::vector<KeyValue> out;
      out.reserve(kEmitN);
      EmitPairs(kEmitN, 77, [&](std::string_view k, std::string_view v) {
        out.emplace_back(std::string(k), std::string(v), 24);
      });
      return out.size();
    });
    const double flat_s = BestOfCounted(reps, &sink, &flat_alloc, [&] {
      FlatKvBuffer out;
      out.Reserve(kEmitN);
      EmitPairs(kEmitN, 77, [&](std::string_view k, std::string_view v) {
        out.Append(k, v, 24);
      });
      return out.size();
    });
    report.Line("%-24s %10.3f %10.3f %6.2fx %9.1f %9.1f %9.1f", "arena-emit",
                base_s * 1e3, flat_s * 1e3, base_s / flat_s,
                static_cast<double>(kEmitN) / flat_s / 1e6,
                static_cast<double>(base_alloc) / 1e6,
                static_cast<double>(flat_alloc) / 1e6);
  }
  {
    // Prefix sort vs std::sort over KeyValue.
    std::vector<KeyValue> base_input;
    base_input.reserve(kEmitN);
    EmitPairs(kEmitN, 78, [&](std::string_view k, std::string_view v) {
      base_input.emplace_back(std::string(k), std::string(v), 24);
    });
    const FlatKvBuffer flat_input = FlatKvBuffer::FromKeyValues(base_input);
    uint64_t base_alloc = 0, flat_alloc = 0;
    const double base_s = BestOfCounted(reps, &sink, &base_alloc, [&] {
      std::vector<KeyValue> copy = base_input;
      SortByKey(&copy);
      return copy.size();
    });
    const double flat_s = BestOfCounted(reps, &sink, &flat_alloc, [&] {
      return flat_input.SortedCopy().size();
    });
    report.Line("%-24s %10.3f %10.3f %6.2fx %9.1f %9.1f %9.1f", "prefix-sort",
                base_s * 1e3, flat_s * 1e3, base_s / flat_s,
                static_cast<double>(kEmitN) / flat_s / 1e6,
                static_cast<double>(base_alloc) / 1e6,
                static_cast<double>(flat_alloc) / 1e6);
  }
  bool radix_target_met = false;
  {
    // Radix sort vs the PR 5 comparison prefix-sort over the same arena.
    // Both paths realize the identical total order; the rows differ only
    // in how the 16-byte sort entries get ordered. The acceptance bar:
    // radix >= 2x comparison at 1M entries, single-threaded. The tN rows
    // add the executor-parallel histogram pass on top.
    FlatKvBuffer input;
    input.Reserve(kEmitN);
    EmitPairs(kEmitN, 82, [&](std::string_view k, std::string_view v) {
      input.Append(k, v, 24);
    });
    std::vector<uint32_t> indices(input.size());
    const auto reset = [&] {
      for (size_t i = 0; i < indices.size(); ++i) {
        indices[i] = static_cast<uint32_t>(i);
      }
    };
    uint64_t base_alloc = 0, flat_alloc = 0;
    const double base_s = BestOfCounted(reps, &sink, &base_alloc, [&] {
      reset();
      SortSliceIndicesWith(input, indices, KvSortMode::kComparison);
      return indices.size();
    });
    const double radix_s = BestOfCounted(reps, &sink, &flat_alloc, [&] {
      reset();
      SortSliceIndicesWith(input, indices, KvSortMode::kRadix);
      return indices.size();
    });
    const double speedup = base_s / radix_s;
    char label[64];
    std::snprintf(label, sizeof(label), "radix-sort n=%zu", input.size());
    report.Line("%-24s %10.3f %10.3f %6.2fx %9.1f %9.1f %9.1f", label,
                base_s * 1e3, radix_s * 1e3, speedup,
                static_cast<double>(input.size()) / radix_s / 1e6,
                static_cast<double>(base_alloc) / 1e6,
                static_cast<double>(flat_alloc) / 1e6);
    if (speedup >= 2.0) radix_target_met = true;
    for (const int32_t threads : {2, 8}) {
      exec::TaskExecutor executor(threads);
      uint64_t par_alloc = 0;
      const double par_s = BestOfCounted(reps, &sink, &par_alloc, [&] {
        reset();
        SortSliceIndicesWith(input, indices, KvSortMode::kRadix, &executor);
        return indices.size();
      });
      std::snprintf(label, sizeof(label), "radix-sort t%d", threads);
      report.Line("%-24s %10.3f %10.3f %6.2fx %9.1f %9s %9.1f", label,
                  base_s * 1e3, par_s * 1e3, base_s / par_s,
                  static_cast<double>(input.size()) / par_s / 1e6, "-",
                  static_cast<double>(par_alloc) / 1e6);
    }
  }
  {
    // Hash combine vs sort+scan combine over one map task's pairs, split
    // into the 16 reduce partitions a production map task writes, so the
    // scratch the combine reuses across a task's partitions shows. Both
    // sides partition by the same hash. A second line gives the slowest
    // repetition of each side: the row's run-to-run spread.
    constexpr int32_t kPartitions = 16;
    std::vector<KeyValue> base_input;
    base_input.reserve(kEmitN);
    EmitPairs(kEmitN, 79, [&](std::string_view k, std::string_view v) {
      base_input.emplace_back(std::string(k), std::string(v), 24);
    });
    const FlatKvBuffer flat_input = FlatKvBuffer::FromKeyValues(base_input);
    const CountCombiner combiner;
    uint64_t base_alloc = 0, flat_alloc = 0;
    double base_worst = 0.0, flat_worst = 0.0;
    const double base_s = BestOfCounted(
        reps, &sink, &base_alloc,
        [&] {
          std::vector<std::vector<KeyValue>> buckets(kPartitions);
          for (const KeyValue& kv : base_input) {
            buckets[Fnv1a(kv.key) % kPartitions].push_back(kv);
          }
          size_t pairs = 0;
          for (std::vector<KeyValue>& bucket : buckets) {
            pairs += SortCombineStrings(std::move(bucket)).size();
          }
          return pairs;
        },
        &base_worst);
    const double flat_s = BestOfCounted(
        reps, &sink, &flat_alloc,
        [&] {
          return BuildMapOutput(flat_input, Fnv1aPartitioner(), kPartitions,
                                &combiner)
              .pairs.size();
        },
        &flat_worst);
    report.Line("%-24s %10.3f %10.3f %6.2fx %9.1f %9.1f %9.1f",
                "hash-combine p=16", base_s * 1e3, flat_s * 1e3,
                base_s / flat_s, static_cast<double>(kEmitN) / flat_s / 1e6,
                static_cast<double>(base_alloc) / 1e6,
                static_cast<double>(flat_alloc) / 1e6);
    report.Line("%-24s %10.3f %10.3f %6.2fx  slowest of %d reps",
                "  hash-combine spread", base_worst * 1e3, flat_worst * 1e3,
                base_worst / flat_worst, reps);
  }
  {
    // Full map pipeline at 1M pairs: emit -> partition -> combine -> sorted
    // buckets. The acceptance bar: flat >= 2x the string baseline.
    const size_t n = 1'000'000 / scale;
    const size_t partitions = 32;
    uint64_t base_alloc = 0, flat_alloc = 0;
    const double base_s = BestOfCounted(reps, &sink, &base_alloc, [&] {
      return PipelineStrings(n, partitions, 80);
    });
    const double flat_s = BestOfCounted(reps, &sink, &flat_alloc, [&] {
      return PipelineFlat(n, partitions, 80);
    });
    const double speedup = base_s / flat_s;
    char label[64];
    std::snprintf(label, sizeof(label), "map-pipeline n=%zu", n);
    report.Line("%-24s %10.3f %10.3f %6.2fx %9.1f %9.1f %9.1f", label,
                base_s * 1e3, flat_s * 1e3, speedup,
                static_cast<double>(n) / flat_s / 1e6,
                static_cast<double>(base_alloc) / 1e6,
                static_cast<double>(flat_alloc) / 1e6);
    if (speedup >= 2.0) pipeline_target_met = true;
  }

  {
    // Range merge on recbench's two shapes (report-only): a window's ten
    // pane partials of ~200 keys, and a pane job's 450 map slices of two
    // pairs. ns per merged record, heap allocations per merge.
    report.Line("%s", "");
    report.Line("%-24s %10s %10s", "merge case", "ns/record", "allocs");
    const struct { size_t k, n; } merge_shapes[] = {{10, 200}, {450, 2}};
    for (const auto& shape : merge_shapes) {
      const std::vector<FlatKvBuffer> runs =
          ClientRuns(shape.k, shape.n, /*clients=*/200, /*seed=*/2014);
      std::vector<KvRange> ranges;
      for (const FlatKvBuffer& run : runs) {
        ranges.emplace_back(run, 0, run.size());
      }
      const int64_t merges = smoke ? 20 : 200;
      const double ns = BestNsPerOp(
          reps, merges, &sink, [] { return std::make_unique<int>(0); },
          [&](int&, int64_t) { return MergeFlatRuns(ranges).size(); });
      const uint64_t calls_before = g_alloc_calls;
      sink += MergeFlatRuns(ranges).size();
      const uint64_t allocs = g_alloc_calls - calls_before;
      char label[64];
      std::snprintf(label, sizeof(label), "merge-flat k=%zu n=%zu", shape.k,
                    shape.n);
      report.Line("%-24s %10.1f %10llu", label,
                  ns / static_cast<double>(shape.k * shape.n),
                  static_cast<unsigned long long>(allocs));
    }
  }

  // ---- Redoop metadata and loading: report-only host costs. ----
  report.Line("%s", "");
  report.Line("%-36s %12s %12s", "redoop case", "ns/op", "items/s");
  const auto metadata_row = [&](const char* label, double ns, double items) {
    report.Line("%-36s %12.1f %12.4g", label, ns, items / ns * 1e9);
  };
  const int64_t kMatrixOps = smoke ? 100'000 : 1'000'000;
  for (const int64_t w : {10, 100}) {
    char label[64];
    std::snprintf(label, sizeof(label), "matrix-mark-done w=%ld", w);
    metadata_row(label, BestNsPerOp(reps, kMatrixOps, &sink,
                                    [&] { return FilledMatrix(w, 0); },
                                    [&](CacheStatusMatrix& m, int64_t p) {
                                      m.MarkDone(p % (2 * w),
                                                 (p + 1) % (2 * w));
                                      return 0;
                                    }),
                 1.0);
    std::snprintf(label, sizeof(label), "matrix-is-done w=%ld", w);
    metadata_row(label, BestNsPerOp(reps, kMatrixOps, &sink,
                                    [&] { return FilledMatrix(w, 2 * w); },
                                    [&](CacheStatusMatrix& m, int64_t p) {
                                      return m.IsDone(p % (2 * w),
                                                      (p + 7) % (2 * w));
                                    }),
                 1.0);
    std::snprintf(label, sizeof(label), "matrix-lifespan w=%ld", w);
    metadata_row(label, BestNsPerOp(reps, kMatrixOps, &sink,
                                    [&] { return FilledMatrix(w, 2 * w); },
                                    [&](CacheStatusMatrix& m, int64_t p) {
                                      return m.LifespanComplete(true,
                                                                p % (2 * w));
                                    }),
                 1.0);
    // One purge per freshly filled matrix, best over many matrices.
    std::snprintf(label, sizeof(label), "matrix-shift w=%ld", w);
    const int samples = (w == 10 ? 1000 : 20) / (smoke ? 10 : 1);
    metadata_row(label, BestNsPerOp(samples, 1, &sink,
                                    [&] { return FilledMatrix(w, 3 * w); },
                                    [&](CacheStatusMatrix& m, int64_t) {
                                      return m.Shift(2 * w).first.size();
                                    }),
                 1.0);
  }
  metadata_row(
      "controller-add-signature",
      BestNsPerOp(reps, smoke ? 10'000 : 100'000, &sink, JoinController,
                  [](WindowAwareCacheController& c, int64_t i) {
                    CacheSignature sig;
                    sig.name =
                        ReduceInputCacheName(1, 1, i, static_cast<int32_t>(i % 4));
                    sig.source = 1;
                    sig.pane = i;
                    sig.partition = static_cast<int32_t>(i % 4);
                    sig.type = CacheType::kReduceInput;
                    sig.ready = CacheReady::kCacheAvailable;
                    sig.node = static_cast<NodeId>(i % 30);
                    sig.bytes = 1 << 20;
                    c.AddSignature(std::move(sig), 1);
                    return 0;
                  }),
      1.0);
  metadata_row("controller-finish-recurrence",
               BestNsPerOp(reps, smoke ? 200 : 2000, &sink,
                           SteadyJoinController, ControllerRecurrence),
               1.0);
  // Ingest throughput: one op is one batch, and its items are records.
  const struct { const char* label; int64_t records, panes_per_file, batches; }
      packer_cases[] = {{"packer-ingest batch=1000", 1000, 1, 2000},
                        {"packer-ingest batch=10000", 10'000, 1, 200},
                        {"packer-ingest-multipane batch=1000", 1000, 4, 2000}};
  for (const auto& c : packer_cases) {
    metadata_row(c.label,
                 BestNsPerOp(reps, c.batches / (smoke ? 10 : 1), &sink,
                             [&] {
                               return std::make_unique<PackerRig>(
                                   c.panes_per_file);
                             },
                             [&](PackerRig& rig, int64_t) {
                               return rig.Ingest(c.records);
                             }),
                 static_cast<double>(c.records));
  }

  report.Line("%s", "");
  report.Line("checksum=%llu allocs=%llu",
              static_cast<unsigned long long>(sink),
              static_cast<unsigned long long>(g_alloc_calls));
  report.Line("assembly >=2x at k>=8,n>=10k: %s",
              assembly_target_met ? "PASS" : "FAIL");
  report.Line("map-pipeline >=2x at 1M pairs: %s",
              pipeline_target_met ? "PASS"
                                  : (smoke ? "FAIL (not enforced in smoke)"
                                           : "FAIL"));
  report.Line("radix-sort >=2x over comparison at 1M entries: %s",
              radix_target_met ? "PASS"
                               : (smoke ? "FAIL (not enforced in smoke)"
                                        : "FAIL"));

  if (!report.out_path.empty()) {
    if (std::FILE* f = std::fopen(report.out_path.c_str(), "w")) {
      std::fwrite(report.text.data(), 1, report.text.size(), f);
      std::fclose(f);
      std::printf("report written to %s\n", report.out_path.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s\n", report.out_path.c_str());
      return 1;
    }
  }
  if (smoke) return 0;  // Smoke runs report, full runs enforce.
  return (assembly_target_met && pipeline_target_met && radix_target_met)
             ? 0
             : 2;
}

}  // namespace
}  // namespace redoop

int main(int argc, char** argv) { return redoop::Main(argc, argv); }
