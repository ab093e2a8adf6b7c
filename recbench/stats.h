#ifndef RECBENCH_STATS_H_
#define RECBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles with a sample-support rule,
// interval unions for span self time, and per-recurrence normalisation.
// Header-only so the arithmetic tests link nothing else.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace recbench {

/// Nearest-rank percentile: the smallest sample such that at least a share
/// `q` (0 < q <= 1) of the samples is at or below it. 0 for no samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// How many of `n` samples lie strictly above the nearest-rank q-percentile
/// (assuming distinct values): n - ceil(q * n).
inline int64_t SamplesBeyond(size_t n, double q) {
  return static_cast<int64_t>(n) -
         static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
}

/// A timing percentile is reported only when at least ten samples lie
/// beyond it; p90 therefore needs 100 samples.
inline constexpr int64_t kMinSamplesBeyond = 10;
inline bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// Median: the mean of the two middle samples for an even count.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Median of the last quarter of a series over the median of its first
/// quarter; 1 means no per-recurrence cost growth over a run. Needs at
/// least four samples (returns 1 otherwise).
inline double Drift(const std::vector<double>& series) {
  const size_t quarter = series.size() / 4;
  if (quarter == 0) return 1.0;
  const double first =
      Median(std::vector<double>(series.begin(), series.begin() + quarter));
  const double last =
      Median(std::vector<double>(series.end() - quarter, series.end()));
  return first > 0.0 ? last / first : 1.0;
}

/// A half-open host-time interval [begin_ns, end_ns) on steady_clock.
struct Interval {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// Total length covered by the union of `intervals`, each clipped to
/// `clip` first (intervals entirely outside it contribute nothing).
inline int64_t UnionLength(std::vector<Interval> intervals, Interval clip) {
  for (Interval& iv : intervals) {
    iv.begin_ns = std::max(iv.begin_ns, clip.begin_ns);
    iv.end_ns = std::min(iv.end_ns, clip.end_ns);
  }
  std::erase_if(intervals,
                [](const Interval& iv) { return iv.end_ns <= iv.begin_ns; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin_ns < b.begin_ns;
            });
  int64_t covered = 0;
  int64_t run_begin = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (open && iv.begin_ns <= run_end) {
      run_end = std::max(run_end, iv.end_ns);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = iv.begin_ns;
    run_end = iv.end_ns;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

/// A span's self time: its duration minus the part of it that the union of
/// its child spans covers (children may overlap each other, e.g. user code
/// on several engine threads).
inline int64_t SelfTime(Interval parent, const std::vector<Interval>& children) {
  return (parent.end_ns - parent.begin_ns) - UnionLength(children, parent);
}

/// Per-recurrence normalisation of layer values. Each steady recurrence
/// adds its own values under a name; Mean divides a name's sum by the
/// number of recurrences closed with EndRecurrence, so a name a recurrence
/// never set counts as 0 there. Ratios are formed from summed numerators
/// and denominators (Ratio), never as a mean of per-recurrence ratios, so
/// recurrences weigh in by their work.
class PerRecurrence {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }
  void EndRecurrence() { ++recurrences_; }

  int64_t recurrences() const { return recurrences_; }
  double Sum(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }
  double Mean(const std::string& name) const {
    return recurrences_ == 0 ? 0.0 : Sum(name) / static_cast<double>(recurrences_);
  }
  double Ratio(const std::string& numerator,
               const std::string& denominator) const {
    const double base = Sum(denominator);
    return base == 0.0 ? 0.0 : Sum(numerator) / base;
  }

 private:
  std::map<std::string, double> sums_;
  int64_t recurrences_ = 0;
};

}  // namespace recbench

#endif  // RECBENCH_STATS_H_
