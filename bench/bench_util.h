#ifndef REDOOP_BENCH_BENCH_UTIL_H_
#define REDOOP_BENCH_BENCH_UTIL_H_

// Helpers shared by bench_harness and its sweeps: the paper's testbed
// shape, report unwrapping, the warm-window speedup, and the
// Hadoop/Redoop result cross-check. Every quantity they produce is
// *simulated* time (the cluster simulator's clock), so it is
// deterministic.

#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "common/status.h"
#include "core/metrics.h"
#include "core/redoop_driver.h"

namespace redoop::bench {

/// Benchmarks treat a driver configuration error as fatal: unwrap the
/// StatusOr entry points (RedoopDriver, MultiQueryCoordinator) or pass
/// plain reports (Hadoop baseline) through unchanged, so templated helpers
/// work with both.
inline WindowReport Unwrap(WindowReport report) { return report; }
inline RunReport Unwrap(RunReport report) { return report; }
template <typename T>
T Unwrap(StatusOr<T> result) {
  REDOOP_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The paper's testbed shape: 30 slaves, 6 map + 2 reduce slots each.
constexpr int32_t kClusterNodes = 30;
constexpr int64_t kNumWindows = 10;
constexpr Timestamp kWin = 18000;  // 5-hour windows.
constexpr Timestamp kBatchInterval = 600;
constexpr int32_t kNumReducers = 16;

/// Average warm-window (2..n) speedup of `b` over `a` — the paper's
/// headline metric.
inline double WarmSpeedup(const RunReport& hadoop, const RunReport& redoop) {
  double h = 0.0;
  double r = 0.0;
  for (size_t w = 1; w < hadoop.windows.size(); ++w) {
    h += hadoop.windows[w].response_time;
    r += redoop.windows[w].response_time;
  }
  return r > 0 ? h / r : 0.0;
}

/// Sum of a named job counter across a run's windows.
inline double SumCounter(const RunReport& run, const char* name) {
  int64_t total = 0;
  for (const WindowReport& w : run.windows) total += w.counters.Get(name);
  return static_cast<double>(total);
}

/// Sanity check: both systems produced identical results in every window.
inline bool ResultsMatch(const RunReport& a, const RunReport& b) {
  if (a.windows.size() != b.windows.size()) return false;
  for (size_t w = 0; w < a.windows.size(); ++w) {
    const auto& oa = a.windows[w].output;
    const auto& ob = b.windows[w].output;
    if (oa.size() != ob.size()) return false;
    for (size_t i = 0; i < oa.size(); ++i) {
      if (oa[i].key != ob[i].key || oa[i].value != ob[i].value) return false;
    }
  }
  return true;
}

}  // namespace redoop::bench

#endif  // REDOOP_BENCH_BENCH_UTIL_H_
