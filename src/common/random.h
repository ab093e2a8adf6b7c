#ifndef REDOOP_COMMON_RANDOM_H_
#define REDOOP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace redoop {

/// Deterministic pseudo-random generator (xoshiro256**). Used everywhere in
/// the simulator so that experiments are exactly reproducible from a seed.
class Random {
 public:
  explicit Random(uint64_t seed = 42);

  /// Uniform in [0, 2^64).
  uint64_t NextUint64();

  /// Uniform in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Exponentially distributed with the given rate (mean 1/rate).
  double NextExponential(double rate);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = Uniform(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t state_[4];
};

/// Zipf-distributed ranks in [0, n) with skew s (s <= 0 is uniform; s ~ 1
/// is classic web-trace skew), by rejection-inversion (W. Hormann,
/// G. Derflinger, 1996). Construction tabulates the normalization and the
/// per-rank acceptance bound H(k + 0.5) - h(k) — 8·n bytes — so a draw
/// costs one exp/log pair. Immutable after construction: one sampler can
/// serve any number of Random streams.
class ZipfSampler {
 public:
  /// Requires n > 0.
  ZipfSampler(uint64_t n, double s);

  /// Draws a 0-based rank using `rng`'s next double(s); s <= 0 draws
  /// rng->Uniform(n).
  uint64_t Next(Random* rng) const;

 private:
  /// H^-1, the inverse of the pmf's integral.
  double HIntegralInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_ = 0.0;    // H(1.5) - 1: the cheap accept threshold.
  double h_half_ = 0.0;  // H(0.5): the low end of the inversion range.
  double t_ = 0.0;       // H(n + 0.5): its high end.
  std::vector<double> accept_;  // [k - 1] = H(k + 0.5) - h(k).
};

}  // namespace redoop

#endif  // REDOOP_COMMON_RANDOM_H_
