#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace redoop {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  // Warm the state up: xoshiro's first outputs after low-entropy seeding
  // are correlated (e.g. long runs of identical high bits for small
  // seeds), which would bias early Bernoulli draws.
  for (int i = 0; i < 16; ++i) NextUint64();
}

uint64_t Random::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Random::Uniform(uint64_t n) {
  REDOOP_CHECK(n > 0) << "Uniform(0) is undefined";
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t r;
  do {
    r = NextUint64();
  } while (r >= limit);
  return r % n;
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  REDOOP_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Random::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Random::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Random::Bernoulli(double p) { return NextDouble() < p; }

double Random::NextGaussian() {
  // Box-Muller; draws until u1 is nonzero to keep log() finite.
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Random::NextExponential(double rate) {
  REDOOP_CHECK(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

namespace {

// H(x), the integral of the unnormalized pmf h(x) = x^-s.
double ZipfHIntegral(double x, double s) {
  const double log_x = std::log(x);
  if (std::abs(1.0 - s) < 1e-12) return log_x;
  return (std::exp((1.0 - s) * log_x) - 1.0) / (1.0 - s);
}

double ZipfH(double x, double s) { return std::exp(-s * std::log(x)); }

}  // namespace

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
  REDOOP_CHECK(n > 0);
  if (s <= 0.0) return;
  h_x1_ = ZipfHIntegral(1.5, s) - 1.0;
  h_half_ = ZipfHIntegral(0.5, s);
  t_ = ZipfHIntegral(static_cast<double>(n) + 0.5, s);
  accept_.resize(n);
  for (uint64_t k = 1; k <= n; ++k) {
    const double kd = static_cast<double>(k);
    accept_[k - 1] = ZipfHIntegral(kd + 0.5, s) - ZipfH(kd, s);
  }
}

double ZipfSampler::HIntegralInverse(double x) const {
  if (std::abs(1.0 - s_) < 1e-12) return std::exp(x);
  double t = x * (1.0 - s_) + 1.0;
  if (t < 1e-300) t = 1e-300;
  return std::exp(std::log(t) / (1.0 - s_));
}

uint64_t ZipfSampler::Next(Random* rng) const {
  if (s_ <= 0.0) return rng->Uniform(n_);
  while (true) {
    const double u = h_half_ + rng->NextDouble() * (t_ - h_half_);
    const double x = HIntegralInverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    if (static_cast<double>(k) - x <= h_x1_ || u >= accept_[k - 1]) {
      return k - 1;  // 0-based rank.
    }
  }
}

}  // namespace redoop
