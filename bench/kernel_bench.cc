// Host wall-clock micro-benchmarks for the execution-engine hot path:
//
//   - reduce-input assembly (k-way merge of sorted runs vs concat+re-sort)
//   - reduce group hand-off (zero-copy span views vs per-group copies)
//   - flat KV arena kernels: arena emit vs per-pair strings, the
//     normalized-prefix sort vs std::sort over KeyValue, hash combine vs
//     sort+scan combine, and the full map pipeline
//     (emit -> partition -> combine -> sorted buckets) flat vs string.
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
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/task_executor.h"
#include "mapreduce/kv.h"
#include "mapreduce/kv_arena.h"
#include "obs/observability.h"
#include "obs/telemetry_scope.h"
#include "obs/trace/trace_context.h"

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

constexpr uint32_t kNone = static_cast<uint32_t>(-1);

/// Open-addressing hash combine over flat slices — the engine's map-side
/// combine kernel: groups in first-occurrence order, combined output gets
/// the single sorted materialization. Combiner work: (key, group size).
FlatKvBuffer HashCombineFlat(const FlatKvBuffer& in,
                             const std::vector<uint32_t>& idx) {
  if (idx.empty()) return FlatKvBuffer();
  size_t cap = 16;
  while (cap < idx.size() * 2) cap <<= 1;
  std::vector<uint32_t> table(cap, kNone);
  struct Group {
    uint64_t hash;
    uint32_t head;
    uint32_t count;
  };
  std::vector<Group> groups;
  for (uint32_t pos = 0; pos < static_cast<uint32_t>(idx.size()); ++pos) {
    const std::string_view key = in.key(idx[pos]);
    const uint64_t h = Fnv1a(key);
    size_t slot = h & (cap - 1);
    while (true) {
      if (table[slot] == kNone) {
        table[slot] = static_cast<uint32_t>(groups.size());
        groups.push_back({h, pos, 1});
        break;
      }
      Group& g = groups[table[slot]];
      if (g.hash == h && in.key(idx[g.head]) == key) {
        ++g.count;
        break;
      }
      slot = (slot + 1) & (cap - 1);
    }
  }
  FlatKvBuffer combined;
  combined.Reserve(groups.size());
  char value[24];
  for (const Group& g : groups) {
    const int len = std::snprintf(value, sizeof(value), "%u", g.count);
    combined.Append(in.key(idx[g.head]),
                    std::string_view(value, static_cast<size_t>(len)), 24);
  }
  return combined.SortedCopy();
}

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

/// Full map-side pipeline, flat representation: arena emit, partition by
/// slice, per-partition hash combine + sorted materialization.
uint64_t PipelineFlat(size_t n, size_t partitions, uint64_t seed) {
  FlatKvBuffer out;
  out.Reserve(n);
  EmitPairs(n, seed, [&](std::string_view k, std::string_view v) {
    out.Append(k, v, 24);
  });
  std::vector<std::vector<uint32_t>> idx(partitions);
  for (size_t i = 0; i < out.size(); ++i) {
    idx[Fnv1a(out.key(i)) % partitions].push_back(static_cast<uint32_t>(i));
  }
  uint64_t checksum = 0;
  for (const std::vector<uint32_t>& part : idx) {
    const FlatKvBuffer bucket = HashCombineFlat(out, part);
    checksum += bucket.size() + static_cast<uint64_t>(
                                    bucket.total_logical_bytes());
  }
  return checksum;
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
/// allocation, after any lazy init).
template <typename Fn>
double BestOfCounted(int reps, uint64_t* sink, uint64_t* alloc_bytes,
                     Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const uint64_t before = g_alloc_bytes;
    const auto start = Clock::now();
    *sink += fn();
    best = std::min(best, SecondsSince(start));
    *alloc_bytes = g_alloc_bytes - before;
  }
  return best;
}

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
      SortSliceIndicesWith(input, &indices, KvSortMode::kComparison);
      return indices.size();
    });
    const double radix_s = BestOfCounted(reps, &sink, &flat_alloc, [&] {
      reset();
      SortSliceIndicesWith(input, &indices, KvSortMode::kRadix);
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
        SortSliceIndicesWith(input, &indices, KvSortMode::kRadix, &executor);
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
    // Hash combine vs sort+scan combine over one partition's pairs.
    std::vector<KeyValue> base_input;
    base_input.reserve(kEmitN);
    EmitPairs(kEmitN, 79, [&](std::string_view k, std::string_view v) {
      base_input.emplace_back(std::string(k), std::string(v), 24);
    });
    const FlatKvBuffer flat_input = FlatKvBuffer::FromKeyValues(base_input);
    std::vector<uint32_t> all(flat_input.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
    uint64_t base_alloc = 0, flat_alloc = 0;
    const double base_s = BestOfCounted(reps, &sink, &base_alloc, [&] {
      return SortCombineStrings(base_input).size();
    });
    const double flat_s = BestOfCounted(reps, &sink, &flat_alloc, [&] {
      return HashCombineFlat(flat_input, all).size();
    });
    report.Line("%-24s %10.3f %10.3f %6.2fx %9.1f %9.1f %9.1f", "hash-combine",
                base_s * 1e3, flat_s * 1e3, base_s / flat_s,
                static_cast<double>(kEmitN) / flat_s / 1e6,
                static_cast<double>(base_alloc) / 1e6,
                static_cast<double>(flat_alloc) / 1e6);
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

  bool trace_target_met = false;
  double trace_overhead = 0.0;
  {
    // Tracing overhead: what the tracer adds to one map pipeline at the
    // default sample_period=1 policy — a task.start stamped with the
    // trace id, enclosing span, and the serialized per-task TraceContext
    // propagation token, plus a task.finish, per map/reduce task through
    // a TelemetryScope whose trace cell is active and sampled. The
    // lifecycle events themselves predate tracing — the tracer only adds
    // the stamp fields — so the overhead is the stamped-vs-unstamped
    // emission delta. Spans are per task, never per record, so that
    // delta is independent of pipeline size; timing full pipelines
    // head-to-head would just difference two noisy ~pipeline-sized
    // numbers, so the emission batches are timed directly (amortized
    // over many batches for resolution) and the delta is compared
    // against the pipeline's time. Acceptance bar: < 2% slowdown.
    const size_t n = 1'000'000 / scale;
    const size_t partitions = 32;
    obs::ObservabilityContext obs_ctx;
    int64_t window_cell = 0;
    obs::trace::TraceContext trace_ctx;
    trace_ctx.trace_id = obs::trace::TraceIdFor("kernel_bench", "pipeline");
    trace_ctx.span_id = obs::trace::WindowSpanId(trace_ctx.trace_id, 0);
    trace_ctx.window = 0;
    obs::TelemetryScope traced(&obs_ctx, "pipeline", &window_cell,
                               &trace_ctx);
    obs::TelemetryScope untraced(&obs_ctx, "pipeline", &window_cell);
    const double base_s = BestOf(reps, &sink, [&] {
      return PipelineFlat(n, partitions, 81);
    });
    const int batches = 200;
    const auto emit_batches = [&](const obs::TelemetryScope& scope,
                                  bool stamp_ctx) -> uint64_t {
      obs_ctx.journal().Clear();
      for (int b = 0; b < batches; ++b) {
        for (size_t p = 0; p < partitions; ++p) {
          const int64_t task = static_cast<int64_t>(b) * partitions +
                               static_cast<int64_t>(p);
          obs::Event& start = scope.EmitAt(0.0, obs::event::kTaskStart)
                                  .With("task", task)
                                  .With("attempt", static_cast<int64_t>(0));
          if (stamp_ctx) {
            start.With("ctx",
                       trace_ctx
                           .Child(obs::trace::TaskSpanId(trace_ctx.trace_id,
                                                         task, 0))
                           .Serialize());
          }
          scope.EmitAt(0.0, obs::event::kTaskFinish)
              .With("task", task)
              .With("attempt", static_cast<int64_t>(0));
        }
      }
      return obs_ctx.journal().size();
    };
    const double plain_s = BestOf(reps, &sink, [&] {
      return emit_batches(untraced, false);
    }) / batches;
    const double stamped_s = BestOf(reps, &sink, [&] {
      return emit_batches(traced, true);
    }) / batches;
    trace_overhead = std::max(0.0, stamped_s - plain_s) / base_s;
    char label[64];
    std::snprintf(label, sizeof(label), "trace-overhead n=%zu", n);
    report.Line("%-24s %10.3f %10.3f %+6.2f%%", label, plain_s * 1e3,
                stamped_s * 1e3, trace_overhead * 100.0);
    if (trace_overhead < 0.02) trace_target_met = true;
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
  report.Line("tracing overhead <2%% on map pipeline: %s",
              trace_target_met ? "PASS"
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
  return (assembly_target_met && pipeline_target_met && radix_target_met &&
          trace_target_met)
             ? 0
             : 2;
}

}  // namespace
}  // namespace redoop

int main(int argc, char** argv) { return redoop::Main(argc, argv); }
