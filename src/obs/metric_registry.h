#ifndef REDOOP_OBS_METRIC_REGISTRY_H_
#define REDOOP_OBS_METRIC_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace redoop {
namespace obs {

class Event;

/// `name` plus the encoded suffix of a labeled series: the set dimensions
/// in the fixed order query, node, e.g. "cache.purged.bytes{query=wcc,
/// node=3}". With no query and node < 0 the name comes back unchanged.
///
/// Cardinality contract (DESIGN §13): only `query` and `node` label metric
/// series; both are bounded by the workload and the cluster. The
/// recurrence rides on journal events only.
std::string LabeledName(std::string_view name, std::string_view query,
                        int32_t node = -1);

/// Log-bucketed histogram over doubles. Buckets grow by
/// 2^(1/kSubBucketsPerOctave) (~9.05% wide), giving bounded relative
/// error for quantiles while storing only the non-empty buckets. Values
/// with |v| <= kMinTrackable collapse into bucket 0 (representative 0.0);
/// negative values mirror into negative bucket indexes, so bucket index
/// order is value order. `sum` is a double, so it depends on the order of
/// the recorded values; the fold records in journal order.
struct Histogram {
  static constexpr int kSubBucketsPerOctave = 8;
  static constexpr double kMinTrackable = 1e-9;

  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Exact smallest recorded value (0 when empty).
  double max = 0.0;  ///< Exact largest recorded value (0 when empty).
  /// Sparse bucket counts keyed by bucket index; only non-empty buckets
  /// are stored, so wide dynamic ranges stay cheap.
  std::map<int32_t, int64_t> buckets;

  void Record(double value);

  double Mean() const { return count > 0 ? sum / count : 0.0; }

  /// Approximate quantile for q in [0, 1]. The answer is the geometric
  /// midpoint of the bucket containing the rank, clamped to [min, max],
  /// so the relative error is bounded by half a bucket width (~4.5% with
  /// the default 2^(1/8) growth). Exact at q=0 (min) and q=1 (max).
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  /// Bucket index for a value (0 for |value| <= kMinTrackable, negative
  /// indexes for values below -kMinTrackable).
  static int32_t BucketIndex(double value);
  /// Representative of bucket `index`: 0.0 for bucket 0, the geometric
  /// midpoint (sign-mirrored for negative indexes) otherwise.
  static double BucketMidpoint(int32_t index);
};

/// Point-in-time copy of a run's metrics. Ordered maps make the exporter
/// deterministic: identical runs serialize byte-identically.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  /// Counter value, or 0 when the counter was never touched.
  int64_t Counter(std::string_view name) const;
  /// Gauge value, or 0.0 when absent.
  double Gauge(std::string_view name) const;

  /// hits / (hits + misses), or 0.0 when neither counter fired. The
  /// standard shape for cache hit-rate assertions in benches.
  double HitRate(std::string_view hits, std::string_view misses) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms export count/sum/min/max/mean/p50/p95/p99.
  std::string ToJson() const;
};

/// The metrics of one run, folded from its journal. Every metric is fed by
/// exactly one rule of the rule table in metric_registry.cc (the metric
/// table of DESIGN §8): an event type, the counter, histogram or gauge it
/// feeds, the field that carries the value (none: count 1), and at most two
/// field tests (`kind`, `locality`, ...). A rule whose value field is
/// missing feeds nothing. Each fed series is kept twice: globally, and
/// under the event's own `query` label (plus its `node` for rules that
/// label by node), so a labeled series sums exactly what its query's
/// scope emitted.
///
/// Fold dispatches on the journal's interned type pointer (checked against
/// the type's text, since a pointer may be reused by a later store) and
/// allocates only when it first meets an event type, a labeled series or a
/// histogram bucket. Not thread-safe: ObservabilityContext folds on the
/// journal's single writer thread.
class MetricRegistry {
 public:
  MetricRegistry();

  /// Feeds `e` to every rule of its type. Call once per complete event.
  void Fold(const Event& e);

  MetricsSnapshot Snapshot() const;

 private:
  /// One series: a counter, gauge or histogram as its rule says. Touched
  /// once any event fed it, even with a zero delta.
  struct Series {
    bool touched = false;
    int64_t counter = 0;
    double gauge = 0.0;
    Histogram histogram;
  };
  struct LabelKey {
    std::string query;
    int32_t node = -1;
  };
  struct LabelView {
    std::string_view query;
    int32_t node = -1;
  };
  /// Orders LabelKeys and looks them up by LabelView without a copy.
  struct LabelLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const int c = std::string_view(a.query).compare(b.query);
      return c != 0 ? c < 0 : a.node < b.node;
    }
  };
  /// The touched series of one label set, by rule index.
  using Books = std::map<size_t, Series>;
  /// The rules of one event type: a contiguous span of the rule table.
  struct Dispatch {
    std::string type;  ///< Text of the interned type, for the reuse check.
    size_t first = 0;
    size_t count = 0;
  };

  const Dispatch& RulesFor(const std::string& type);
  Books& LabeledBooks(std::string_view query, int32_t node);

  std::vector<Series> global_;  ///< Indexed like the rule table.
  std::map<LabelKey, Books, LabelLess> labeled_;
  std::unordered_map<const std::string*, Dispatch> dispatch_;
};

/// Deterministic double formatting shared by all obs exporters: %.6g for
/// general values, with "-0" normalized to "0" so snapshots never differ
/// by sign of zero.
std::string FormatDouble(double value);

}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_METRIC_REGISTRY_H_
