// Unit tests for src/common: Status, Config, Random, hashing, math and
// string utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "common/config.h"
#include "common/hash.h"
#include "common/math_utils.h"
#include "common/random.h"
#include "common/status.h"
#include "common/sim_time.h"
#include "common/string_utils.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

// --------------------------- Status ---------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "no such file");
  EXPECT_EQ(s.ToString(), "NotFound: no such file");
}

TEST(StatusTest, AllFactoriesSetTheirCode) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Aborted("").code(), StatusCode::kAborted);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("gone");
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
}

TEST(StatusOrTest, ValueOfErrorAborts) {
  StatusOr<int> v = Status::NotFound("gone");
  EXPECT_DEATH(v.value(), "without a value: NotFound: gone");
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  auto fails = [] { return Status::Aborted("inner"); };
  auto outer = [&]() -> Status {
    REDOOP_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kAborted);
}

// --------------------------- Config ---------------------------------------

TEST(ConfigTest, TypedRoundTrips) {
  Config c;
  c.Set("name", "value");
  c.SetInt("count", 42);
  c.SetDouble("rate", 2.5);
  c.SetBool("flag", true);
  EXPECT_EQ(c.Get("name"), "value");
  EXPECT_EQ(c.GetInt("count", -1), 42);
  EXPECT_DOUBLE_EQ(c.GetDouble("rate", -1), 2.5);
  EXPECT_TRUE(c.GetBool("flag", false));
}

TEST(ConfigTest, DefaultsWhenAbsentOrMalformed) {
  Config c;
  c.Set("bad_int", "xyz");
  EXPECT_EQ(c.GetInt("missing", 7), 7);
  EXPECT_EQ(c.GetInt("bad_int", 7), 7);
  EXPECT_DOUBLE_EQ(c.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(c.GetBool("missing", false));
}

TEST(ConfigTest, MergeOverwrites) {
  Config a;
  a.SetInt("x", 1);
  a.SetInt("y", 2);
  Config b;
  b.SetInt("y", 20);
  b.SetInt("z", 30);
  a.Merge(b);
  EXPECT_EQ(a.GetInt("x", 0), 1);
  EXPECT_EQ(a.GetInt("y", 0), 20);
  EXPECT_EQ(a.GetInt("z", 0), 30);
}

// --------------------------- Random ---------------------------------------

TEST(RandomTest, DeterministicFromSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.Uniform(13), 13u);
  }
}

TEST(RandomTest, UniformIntCoversInclusiveRange) {
  Random r(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2) && seen.count(2));
}

TEST(RandomTest, DoublesInUnitInterval) {
  Random r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, BernoulliFrequency) {
  Random r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RandomTest, GaussianMoments) {
  Random r(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = r.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RandomTest, ExponentialMean) {
  Random r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  Random r(19);
  const uint64_t n = 1000;
  const ZipfSampler zipf(n, 1.0);
  int64_t low = 0, high = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = zipf.Next(&r);
    ASSERT_LT(v, n);
    if (v < 10) ++low;
    if (v >= n - 10) ++high;
  }
  EXPECT_GT(low, 20 * high) << "low=" << low << " high=" << high;
}

TEST(RandomTest, ZipfZeroSkewIsUniformish) {
  Random r(23);
  const uint64_t n = 100;
  const ZipfSampler zipf(n, 0.0);
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(&r)];
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], 1000, 250) << "rank " << i;
  }
}

// The tabulated sampler is the per-draw rejection-inversion, only cheaper:
// same ranks from the same Random state, and the same number of draws
// consumed (the stream's next value after the ranks agrees).
TEST(RandomTest, ZipfSamplerMatchesReferenceDrawForDraw) {
  for (const double s : {0.0, 0.5, 0.9, 1.0, 1.3}) {
    for (const uint64_t n : {1ull, 2ull, 200ull, 5000ull, 20000ull}) {
      const ZipfSampler zipf(n, s);
      Random sampled(n * 31 + static_cast<uint64_t>(s * 10));
      Random reference = sampled;
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(zipf.Next(&sampled),
                  testing::ReferenceNextZipf(&reference, n, s))
            << "s=" << s << " n=" << n << " draw " << i;
      }
      EXPECT_EQ(sampled.NextUint64(), reference.NextUint64())
          << "s=" << s << " n=" << n;
    }
  }
}

TEST(RandomTest, ShufflePermutes) {
  Random r(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// --------------------------- Hash ------------------------------------------

TEST(HashTest, Fnv1aStableKnownValue) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), Fnv1a64("a"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(HashTest, Mix64Bijective) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(HashTest, HashCombineOrderMatters) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

// --------------------------- Math -----------------------------------------

TEST(MathTest, Gcd) {
  EXPECT_EQ(Gcd(12, 18), 6);
  EXPECT_EQ(Gcd(18, 12), 6);
  EXPECT_EQ(Gcd(7, 13), 1);
  EXPECT_EQ(Gcd(0, 5), 5);
  EXPECT_EQ(Gcd(5, 0), 5);
  EXPECT_EQ(Gcd(600, 7200), 600);
}

TEST(MathTest, GcdAll) {
  EXPECT_EQ(GcdAll({12, 18, 24}), 6);
  EXPECT_EQ(GcdAll({}), 0);
  EXPECT_EQ(GcdAll({7}), 7);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(0, 3), 0);
  EXPECT_EQ(CeilDiv(1, 100), 1);
}

TEST(MathTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5, 0, 10), 5);
  EXPECT_DOUBLE_EQ(Clamp(-1, 0, 10), 0);
  EXPECT_DOUBLE_EQ(Clamp(11, 0, 10), 10);
}

TEST(MathTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
}

// --------------------------- Strings ---------------------------------------

TEST(StringTest, Split) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("S1P3", "S1"));
  EXPECT_FALSE(StartsWith("S1", "S1P3"));
  EXPECT_TRUE(EndsWith("part-0", "-0"));
  EXPECT_FALSE(EndsWith("-0", "part-0"));
}

TEST(StringTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("12345", &v));
  EXPECT_EQ(v, 12345);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12a", &v));
  EXPECT_FALSE(ParseInt64("-3", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999", &v));  // Overflow.
}

TEST(StringTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(64 * kBytesPerMB), "64.0 MB");
  EXPECT_EQ(HumanBytes(3 * kBytesPerGB / 2), "1.5 GB");
}

TEST(StringTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(42.5), "42.5s");
  EXPECT_EQ(HumanDuration(90), "1m30s");
  EXPECT_EQ(HumanDuration(3723), "1h02m03s");
}

TEST(StringTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("S%dP%ld", 1, 42L), "S1P42");
  EXPECT_EQ(StringPrintf("%.2f%%", 99.95), "99.95%");
}

// Results up to 255 bytes come from the one-pass stack buffer; 256 and up
// are measured and formatted again. Both must carry every byte.
TEST(StringTest, StringPrintfAroundTheStackBuffer) {
  for (const size_t len : {0, 1, 254, 255, 256, 257, 10000}) {
    std::string want(len, 'x');
    for (size_t i = 0; i < len; ++i) want[i] = static_cast<char>('a' + i % 26);
    EXPECT_EQ(StringPrintf("%s", want.c_str()), want) << "length " << len;
    if (len >= 3) {
      // Formatted pieces on both sides of the boundary.
      const std::string got = StringPrintf(
          "%d%.*s%c", 7, static_cast<int>(len - 2), want.c_str() + 1, 'z');
      EXPECT_EQ(got, "7" + want.substr(1, len - 2) + "z") << "length " << len;
    }
  }
}

std::string SnprintfFixed(double v, int precision) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return std::string(buf, static_cast<size_t>(n));
}

std::string WriterFixed(double v, int precision) {
  char buf[512];
  return std::string(CharWriter(buf).AppendFixed(v, precision).view());
}

// AppendFixed renders what "%.1f" / "%.2f" render: signed zeros, exact
// binary ties (0.25, 2.5), decimal ties the binary value misses (0.35,
// 2.675), tiny and huge magnitudes, then a million random values across
// 2^-30 .. 2^60, a quarter of them rounded onto ties.
TEST(StringTest, CharWriterFixedMatchesPrintf) {
  for (const double v : {0.0, -0.0, -0.004, 0.05, 0.25, 0.35, 2.675, 179.95,
                         1e-9, 1e15, -1e15, 0.45, 1.5, 2.5, -2.5, 1e300}) {
    for (const int precision : {1, 2}) {
      EXPECT_EQ(WriterFixed(v, precision), SnprintfFixed(v, precision))
          << v << " at precision " << precision;
    }
  }
  Random r(1);
  for (int i = 0; i < 1000000; ++i) {
    double v = std::ldexp(r.NextDouble(), static_cast<int>(r.Uniform(91)) - 30);
    if (r.Bernoulli(0.5)) v = -v;
    if (i % 4 == 0) v = std::round(v * 40.0) / 40.0;  // Lands on ties.
    const int precision = 1 + i % 2;
    ASSERT_EQ(WriterFixed(v, precision), SnprintfFixed(v, precision))
        << v << " at precision " << precision;
  }
}

TEST(StringTest, CharWriterIntegersMatchPrintf) {
  char buf[64];
  EXPECT_EQ(CharWriter(buf)
                .Append("client-").AppendInt(uint64_t{18446744073709551615u})
                .Append(",").AppendInt(int64_t{-9223372036854775807 - 1})
                .Append(",").AppendInt(int32_t{-7}).Append(",").AppendInt(0)
                .view(),
            "client-18446744073709551615,-9223372036854775808,-7,0");
  EXPECT_EQ(CharWriter(buf).view(), "");
}

TEST(StringTest, CharWriterOverflowIsChecked) {
  char buf[8];
  EXPECT_DEATH(CharWriter(buf).Append("0123456789"), "too small");
  EXPECT_DEATH(CharWriter(buf).Append("x").AppendInt(int64_t{123456789}),
               "too small");
  EXPECT_DEATH(CharWriter(buf).AppendFixed(1e15, 1), "too small");
}

}  // namespace
}  // namespace redoop
