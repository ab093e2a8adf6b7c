// Unit + property tests for the query library: the aggregation semigroup
// (merge-of-partials == reduce-of-all, the invariant Redoop's per-pane
// merging rests on), the equi-join's pane-pair decomposability, and known
// answers for every shipped reducer's emitted bytes.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "queries/aggregation_query.h"
#include "queries/distinct_count_query.h"
#include "queries/join_query.h"
#include "queries/threshold_alert_query.h"

namespace redoop {
namespace {

// ---------------------------- AggregateValue --------------------------------

TEST(AggregateValueTest, SerializeParseRoundTrip) {
  AggregateValue v;
  v.count = 3;
  v.sum = 123;
  v.max = 99;
  EXPECT_EQ(v.Serialize(), "3:123:99");
  AggregateValue parsed = AggregateValue::Parse("3:123:99");
  EXPECT_EQ(parsed.count, 3);
  EXPECT_EQ(parsed.sum, 123);
  EXPECT_EQ(parsed.max, 99);
}

TEST(AggregateValueTest, MergeCombines) {
  AggregateValue a{2, 10, 8};
  AggregateValue b{3, 5, 20};
  a.Merge(b);
  EXPECT_EQ(a.count, 5);
  EXPECT_EQ(a.sum, 15);
  EXPECT_EQ(a.max, 20);
}

TEST(AggregateValueTest, ParseRejectsGarbage) {
  EXPECT_DEATH(AggregateValue::Parse("not-a-value"), "malformed");
  EXPECT_DEATH(AggregateValue::Parse("1:2"), "malformed");
  EXPECT_DEATH(AggregateValue::Parse("1 :2:3"), "malformed");
  EXPECT_DEATH(AggregateValue::Parse(""), "malformed");
}

TEST(AggregateValueTest, CodecMatchesScanfAndPrintf) {
  // Parse reads what sscanf("%ld:%ld:%ld") reads, clamping included, and
  // Serialize writes what printf("%ld:%ld:%ld") writes.
  const char* inputs[] = {"3:123:99", " 3: -4:+5", "1:2:3trailing",
                          "-9223372036854775808:9223372036854775807:0",
                          "99999999999999999999:-99999999999999999999:7"};
  for (const char* input : inputs) {
    long count = 0, sum = 0, max = 0;
    ASSERT_EQ(std::sscanf(input, "%ld:%ld:%ld", &count, &sum, &max), 3);
    const AggregateValue v = AggregateValue::Parse(input);
    EXPECT_EQ(v.count, count) << input;
    EXPECT_EQ(v.sum, sum) << input;
    EXPECT_EQ(v.max, max) << input;
    char printed[96];
    std::snprintf(printed, sizeof(printed), "%ld:%ld:%ld", count, sum, max);
    EXPECT_EQ(v.Serialize(), printed) << input;
  }
}

// ---------------------------- Aggregation -----------------------------------

TEST(AggregationMapperTest, EmitsUnitPartial) {
  AggregationMapper mapper;
  MapContext context;
  mapper.Map(Record(5, "client-1", "obj-9,GET,200,reg-3,4096", 1 << 20),
             &context);
  ASSERT_EQ(context.output().size(), 1u);
  EXPECT_EQ(context.output()[0].key, "client-1");
  EXPECT_EQ(context.output()[0].value, "1:4096:4096");
  // The projected pair carries ~1/4 of the record's logical size.
  EXPECT_EQ(context.output()[0].logical_bytes, (1 << 20) / 4);
}

TEST(AggregationMapperTest, ToleratesNonNumericTail) {
  AggregationMapper mapper;
  MapContext context;
  mapper.Map(Record(0, "k", "a,b,-1.25", 100), &context);
  ASSERT_EQ(context.output().size(), 1u);
  EXPECT_EQ(context.output()[0].value, "1:1:1") << "|-1| truncated to 1";
  mapper.Map(Record(0, "k", "nocommas", 100), &context);
  EXPECT_EQ(context.output()[1].value, "1:0:0");
}

TEST(AggregationMapperTest, MeasureParseMatchesSscanf) {
  // The measure is the magnitude of what sscanf("%ld") reads from the last
  // field. The one deliberate difference: below INT64_MIN sscanf clamps to
  // INT64_MIN, whose negation overflows; the mapper saturates to INT64_MAX.
  struct Case {
    const char* tail;
    int64_t measure;
    bool differs_from_sscanf;
  };
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const Case cases[] = {
      {"42", 42, false},
      {" 42", 42, false},
      {"+7", 7, false},
      {"-1.25", 1, false},
      {"", 0, false},
      {"abc", 0, false},
      {"12345678901234567890", kMax, false},
      {"99999999999999999999", kMax, false},
      {"-12345678901234567890", kMax, true},
      {"-99999999999999999999", kMax, true},
  };
  AggregationMapper mapper;
  for (const Case& c : cases) {
    long scanned = 0;
    std::sscanf(c.tail, "%ld", &scanned);
    if (c.differs_from_sscanf) {
      EXPECT_EQ(scanned, std::numeric_limits<long>::min()) << c.tail;
    } else {
      EXPECT_EQ(scanned < 0 ? -scanned : scanned, c.measure) << c.tail;
    }
    MapContext context;
    mapper.Map(Record(0, "k", std::string("a,b,") + c.tail, 100), &context);
    ASSERT_EQ(context.output().size(), 1u);
    const std::string m = std::to_string(c.measure);
    EXPECT_EQ(context.output()[0].value, "1:" + m + ":" + m)
        << "tail \"" << c.tail << "\"";
  }
}

TEST(AggregationReducerTest, MergesGroups) {
  AggregationReducer reducer;
  ReduceContext context;
  reducer.Reduce("k", std::vector<KeyValue>{{"k", "1:10:10", 8}, {"k", "2:5:4", 8}}, &context);
  ASSERT_EQ(context.output().size(), 1u);
  EXPECT_EQ(context.output()[0].value, "3:15:10");
}

// The key correctness property behind kPerPaneMerge: reducing partials of
// arbitrary partitions of a multiset equals reducing the whole multiset.
class AggregationSemigroupTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregationSemigroupTest, MergeOfPartialsEqualsReduceOfAll) {
  Random rng(GetParam());
  AggregationReducer reducer;

  // Random measures for one key.
  std::vector<KeyValue> all;
  const int n = 1 + static_cast<int>(rng.Uniform(50));
  for (int i = 0; i < n; ++i) {
    AggregateValue v;
    v.count = 1;
    v.sum = static_cast<int64_t>(rng.Uniform(1000));
    v.max = v.sum;
    all.emplace_back("k", v.Serialize(), 8);
  }

  // Ground truth: one reduce over everything.
  ReduceContext direct;
  reducer.Reduce("k", all, &direct);

  // Random partition into "panes", reduce each, then reduce the partials.
  std::vector<KeyValue> partials;
  size_t i = 0;
  while (i < all.size()) {
    const size_t take = 1 + rng.Uniform(5);
    std::vector<KeyValue> pane(all.begin() + static_cast<int64_t>(i),
                               all.begin() + static_cast<int64_t>(
                                                 std::min(i + take, all.size())));
    i += take;
    ReduceContext pane_out;
    reducer.Reduce("k", pane, &pane_out);
    partials.push_back(pane_out.output()[0]);
  }
  ReduceContext merged;
  reducer.Reduce("k", partials, &merged);

  EXPECT_EQ(merged.output()[0].value, direct.output()[0].value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationSemigroupTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------- Join ---------------------------------------

TEST(JoinTaggingMapperTest, TagsBySide) {
  JoinTaggingMapper left('L');
  MapContext context;
  left.Map(Record(0, "cell-1-1", "s1-7,1.0,2.0", 1024), &context);
  ASSERT_EQ(context.output().size(), 1u);
  EXPECT_EQ(context.output()[0].value, "L|s1-7,1.0,2.0");
  EXPECT_EQ(context.output()[0].logical_bytes, 1024)
      << "join tuples keep their full payload size";
}

TEST(EquiJoinReducerTest, EmitsCrossProductPerKey) {
  EquiJoinReducer reducer;
  ReduceContext context;
  reducer.Reduce("k",
                 std::vector<KeyValue>{{"k", "L|a", 100},
                  {"k", "L|b", 100},
                  {"k", "R|x", 100},
                  {"k", "R|y", 100},
                  {"k", "R|z", 100}},
                 &context);
  EXPECT_EQ(context.output().size(), 6u) << "2 lefts x 3 rights";
  // Pair values concatenate payloads.
  bool found = false;
  for (const KeyValue& kv : context.output()) {
    if (kv.value == "b&y") found = true;
    EXPECT_EQ(kv.logical_bytes, 100) << "(l + r) / 2";
  }
  EXPECT_TRUE(found);
}

TEST(EquiJoinReducerTest, OneSidedGroupsEmitNothing) {
  EquiJoinReducer reducer;
  ReduceContext context;
  reducer.Reduce("k", std::vector<KeyValue>{{"k", "L|a", 8}, {"k", "L|b", 8}}, &context);
  EXPECT_TRUE(context.output().empty());
}

// Pane-pair decomposability: joining whole windows equals the union of all
// pane-pair joins — the invariant behind the cache status matrix.
class JoinDecomposabilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinDecomposabilityTest, UnionOfPanePairsEqualsWholeJoin) {
  Random rng(GetParam());
  EquiJoinReducer reducer;

  constexpr int kPanes = 4;
  // Random tagged tuples per (pane, side), over a small key domain.
  std::vector<std::vector<KeyValue>> left(kPanes), right(kPanes);
  for (int p = 0; p < kPanes; ++p) {
    const int nl = static_cast<int>(rng.Uniform(6));
    const int nr = static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < nl; ++i) {
      left[p].emplace_back("key-" + std::to_string(rng.Uniform(3)),
                           "L|l" + std::to_string(p) + "-" + std::to_string(i),
                           16);
    }
    for (int i = 0; i < nr; ++i) {
      right[p].emplace_back("key-" + std::to_string(rng.Uniform(3)),
                            "R|r" + std::to_string(p) + "-" + std::to_string(i),
                            16);
    }
  }

  auto join = [&](const std::vector<KeyValue>& l,
                  const std::vector<KeyValue>& r) {
    // Group by key, then reduce each group.
    std::map<std::string, std::vector<KeyValue>> groups;
    for (const KeyValue& kv : l) groups[kv.key].push_back(kv);
    for (const KeyValue& kv : r) groups[kv.key].push_back(kv);
    std::multiset<std::string> rows;
    for (const auto& [key, group] : groups) {
      ReduceContext out;
      reducer.Reduce(key, group, &out);
      for (const KeyValue& kv : out.output()) rows.insert(key + "=" + kv.value);
    }
    return rows;
  };

  // Whole-window join.
  std::vector<KeyValue> all_left, all_right;
  for (int p = 0; p < kPanes; ++p) {
    all_left.insert(all_left.end(), left[p].begin(), left[p].end());
    all_right.insert(all_right.end(), right[p].begin(), right[p].end());
  }
  const auto whole = join(all_left, all_right);

  // Union over pane pairs.
  std::multiset<std::string> pieced;
  for (int lp = 0; lp < kPanes; ++lp) {
    for (int rp = 0; rp < kPanes; ++rp) {
      for (const std::string& row : join(left[lp], right[rp])) {
        pieced.insert(row);
      }
    }
  }
  EXPECT_EQ(whole, pieced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinDecomposabilityTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ------------------------ Reducer known answers -----------------------------
//
// Every shipped reducer's emitted bytes, pinned: seeded key groups are
// reduced through ReduceFlat, as the engine hands them (slices of one flat
// buffer), and the FNV-1a digest of the emitted (key, value, logical_bytes)
// sequence must equal a constant recorded before the reducers moved from
// the string Reduce to ReduceFlat. The string Reduce adapter must emit the
// same sequence.

struct Group {
  std::string key;
  std::vector<KeyValue> values;
};

/// FNV-1a over the emitted sequence, each field length-prefixed so that no
/// two different sequences frame alike.
uint64_t EmissionDigest(const FlatKvBuffer& out) {
  std::string framed;
  for (size_t i = 0; i < out.size(); ++i) {
    framed += std::to_string(out.key(i).size()) + ":";
    framed += out.key(i);
    framed += std::to_string(out.value(i).size()) + ":";
    framed += out.value(i);
    framed += std::to_string(out.logical_bytes(i)) + ";";
  }
  return Fnv1a64(framed);
}

struct Emissions {
  uint64_t flat_digest = 0;
  uint64_t adapter_digest = 0;
  size_t pairs = 0;
};

Emissions Reduced(const Reducer& reducer, const std::vector<Group>& groups) {
  std::vector<KeyValue> all;
  for (const Group& g : groups) {
    all.insert(all.end(), g.values.begin(), g.values.end());
  }
  const FlatKvBuffer input = FlatKvBuffer::FromKeyValues(all);
  ReduceContext flat;
  size_t begin = 0;
  for (const Group& g : groups) {
    const size_t end = begin + g.values.size();
    reducer.ReduceFlat(g.key, KvRange(input, begin, end), &flat);
    begin = end;
  }
  ReduceContext adapter;
  for (const Group& g : groups) reducer.Reduce(g.key, g.values, &adapter);
  return {EmissionDigest(flat.flat()), EmissionDigest(adapter.flat()),
          flat.flat().size()};
}

constexpr int kGroups = 40;
constexpr int kMaxGroupValues = 8;

int32_t LogicalBytes(Random* rng) {
  return static_cast<int32_t>(rng->UniformInt(8, 4096));
}

/// A signed field of up to 19 digits, small enough that summing a group's
/// fields cannot overflow.
int64_t AggregateField(Random* rng) {
  constexpr uint64_t kBound =
      std::numeric_limits<int64_t>::max() / kMaxGroupValues;
  const uint64_t magnitude =
      (rng->NextUint64() >> rng->Uniform(64)) % (kBound + 1);
  const auto v = static_cast<int64_t>(magnitude);
  return rng->Bernoulli(0.5) ? -v : v;
}

/// Groups of 1..kMaxGroupValues "count:sum:max" partials.
std::vector<Group> AggregateGroups(uint64_t seed) {
  Random rng(seed);
  std::vector<Group> groups;
  for (int g = 0; g < kGroups; ++g) {
    Group group{"key-" + std::to_string(g), {}};
    const int n = 1 + static_cast<int>(rng.Uniform(kMaxGroupValues));
    for (int i = 0; i < n; ++i) {
      AggregateValue v;
      v.count = AggregateField(&rng);
      v.sum = AggregateField(&rng);
      v.max = AggregateField(&rng);
      group.values.emplace_back(group.key, v.Serialize(), LogicalBytes(&rng));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

/// Groups of "a|b|c" element-set partials over a small element domain,
/// empty partials and empty segments included; the first group holds
/// only empty partials.
std::vector<Group> DistinctGroups(uint64_t seed) {
  Random rng(seed);
  std::vector<Group> groups;
  for (int g = 0; g < kGroups; ++g) {
    Group group{"key-" + std::to_string(g), {}};
    const int n = 1 + static_cast<int>(rng.Uniform(kMaxGroupValues));
    for (int i = 0; i < n; ++i) {
      std::string partial;
      const int elements = g == 0 ? 0 : static_cast<int>(rng.Uniform(5));
      for (int e = 0; e < elements; ++e) {
        if (e > 0 || rng.Bernoulli(0.1)) partial += '|';
        if (rng.Bernoulli(0.1)) partial += '|';
        partial += "obj-" + std::to_string(rng.Uniform(12));
      }
      group.values.emplace_back(group.key, partial, LogicalBytes(&rng));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

/// Groups of tagged join tuples, sides interleaved: the first group is
/// left-only, the second right-only, the third 3 x 4; the rest draw 0..4
/// tuples per side.
std::vector<Group> JoinGroups(uint64_t seed) {
  Random rng(seed);
  std::vector<Group> groups;
  for (int g = 0; g < kGroups; ++g) {
    Group group{"cell-" + std::to_string(g), {}};
    int lefts = static_cast<int>(rng.Uniform(5));
    int rights = static_cast<int>(rng.Uniform(5));
    if (g == 0) rights = 0;
    if (g == 1) lefts = 0;
    if (g == 2) {
      lefts = 3;
      rights = 4;
    }
    std::vector<std::string> tags(static_cast<size_t>(lefts), "L|");
    tags.resize(static_cast<size_t>(lefts + rights), "R|");
    rng.Shuffle(&tags);
    for (const std::string& tag : tags) {
      std::string payload;
      const int len = static_cast<int>(rng.Uniform(24));
      for (int c = 0; c < len; ++c) {
        payload += static_cast<char>('a' + rng.Uniform(26));
      }
      group.values.emplace_back(group.key, tag + payload, LogicalBytes(&rng));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

TEST(ReducerKnownAnswerTest, Aggregation) {
  const std::vector<Group> groups = AggregateGroups(11);
  const Emissions e = Reduced(AggregationReducer(), groups);
  EXPECT_EQ(e.pairs, groups.size());
  EXPECT_EQ(e.flat_digest, 0x4851b274d0ff2581ULL);
  EXPECT_EQ(e.adapter_digest, e.flat_digest);
}

TEST(ReducerKnownAnswerTest, ThresholdAlertDropsGroups) {
  const std::vector<Group> groups = AggregateGroups(12);
  const Emissions e = Reduced(ThresholdAlertFinalizer(0), groups);
  EXPECT_GT(e.pairs, 0u);
  EXPECT_LT(e.pairs, groups.size()) << "groups with count <= 0 are dropped";
  EXPECT_EQ(e.flat_digest, 0x71be68784313556fULL);
  EXPECT_EQ(e.adapter_digest, e.flat_digest);
}

TEST(ReducerKnownAnswerTest, ComposedAggregationThenAlert) {
  const std::vector<Group> groups = AggregateGroups(13);
  const ComposedReducer composed(
      std::make_shared<const AggregationReducer>(),
      std::make_shared<const ThresholdAlertFinalizer>(0));
  const Emissions e = Reduced(composed, groups);
  EXPECT_GT(e.pairs, 0u);
  EXPECT_LT(e.pairs, groups.size());
  EXPECT_EQ(e.flat_digest, 0x883759a575bcae66ULL);
  EXPECT_EQ(e.adapter_digest, e.flat_digest);
}

TEST(ReducerKnownAnswerTest, DistinctSet) {
  const std::vector<Group> groups = DistinctGroups(14);
  const Emissions e = Reduced(DistinctSetReducer(), groups);
  EXPECT_EQ(e.pairs, groups.size());
  EXPECT_EQ(e.flat_digest, 0x468edd098894da6bULL);
  EXPECT_EQ(e.adapter_digest, e.flat_digest);
}

TEST(ReducerKnownAnswerTest, DistinctCountWithEmptyPartials) {
  const std::vector<Group> groups = DistinctGroups(15);
  const Emissions e = Reduced(DistinctCountFinalizer(), groups);
  EXPECT_EQ(e.pairs, groups.size());
  EXPECT_EQ(e.flat_digest, 0xb5916a21345cd502ULL);
  EXPECT_EQ(e.adapter_digest, e.flat_digest);
}

TEST(ReducerKnownAnswerTest, EquiJoinOneSidedAndManyByMany) {
  const std::vector<Group> groups = JoinGroups(16);
  const Emissions e = Reduced(EquiJoinReducer(), groups);
  EXPECT_EQ(e.flat_digest, 0xa848a6ac487b0ad4ULL);
  EXPECT_EQ(e.adapter_digest, e.flat_digest);
}

TEST(ReducerKnownAnswerTest, Identity) {
  const std::vector<Group> groups = JoinGroups(17);
  const Emissions e = Reduced(IdentityReducer(), groups);
  size_t values = 0;
  for (const Group& g : groups) values += g.values.size();
  EXPECT_EQ(e.pairs, values);
  EXPECT_EQ(e.flat_digest, 0xb32a2614365555caULL);
  EXPECT_EQ(e.adapter_digest, e.flat_digest);
}

// ------------------------- Query factories ----------------------------------

TEST(QueryFactoryTest, AggregationQueryShape) {
  RecurringQuery q = MakeAggregationQuery(1, "agg", 3, 600, 60, 8);
  q.CheckValid();
  EXPECT_EQ(q.pattern, IncrementalPattern::kPerPaneMerge);
  ASSERT_EQ(q.sources.size(), 1u);
  EXPECT_EQ(q.sources[0].id, 3);
  EXPECT_EQ(q.slide(), 60);
  EXPECT_EQ(q.OutputPathForRecurrence(4), "out/agg/rec-4");
}

TEST(QueryFactoryTest, JoinQueryShape) {
  RecurringQuery q = MakeJoinQuery(2, "join", 1, 2, 600, 300, 4);
  q.CheckValid();
  EXPECT_EQ(q.pattern, IncrementalPattern::kPanePairJoin);
  ASSERT_EQ(q.sources.size(), 2u);
  EXPECT_NE(q.MapperFor(1), q.MapperFor(2)) << "per-side tagging mappers";
}

TEST(QueryFactoryTest, InvalidQueriesAbort) {
  RecurringQuery q = MakeJoinQuery(2, "join", 1, 2, 600, 300, 4);
  q.sources[1].window.slide = 150;  // Mismatched windows.
  EXPECT_DEATH(q.CheckValid(), "share one window spec");

  RecurringQuery p = MakeJoinQuery(3, "join", 1, 2, 600, 300, 4);
  p.sources.pop_back();
  EXPECT_DEATH(p.CheckValid(), "two sources");
}

}  // namespace
}  // namespace redoop
