// Causal-tracing suite: span reconstruction (parent/child integrity,
// deterministic IDs at every thread count), cross-window follows-from
// lineage on an overlapping workload, node-death recovery linkage, the
// TraceContext propagation token, head-sampling policy, and the
// flight-recorder's atomic span eviction.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_utils.h"
#include "core/redoop_driver.h"
#include "mapreduce/trace.h"
#include "obs/event_journal.h"
#include "obs/trace/span_builder.h"
#include "obs/trace/trace_context.h"
#include "queries/aggregation_query.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SmallClusterConfig;
using obs::EventJournal;
using obs::trace::BuildTrace;
using obs::trace::FollowsFrom;
using obs::trace::Span;
using obs::trace::SpanKind;
using obs::trace::Trace;
using obs::trace::TraceContext;

// ---------------------------------------------------------------------------
// TraceContext: the serializable propagation token.
// ---------------------------------------------------------------------------

TEST(TraceContextTest, SerializeParseRoundTrip) {
  TraceContext ctx;
  ctx.trace_id = obs::trace::TraceIdFor("redoop", "agg");
  ctx.span_id = obs::trace::WindowSpanId(ctx.trace_id, 7);
  ctx.window = 7;
  ctx.sampled = true;

  TraceContext back;
  ASSERT_TRUE(TraceContext::Parse(ctx.Serialize(), &back));
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.span_id, ctx.span_id);
  EXPECT_EQ(back.window, ctx.window);
  EXPECT_EQ(back.sampled, ctx.sampled);

  ctx.sampled = false;
  ASSERT_TRUE(TraceContext::Parse(ctx.Serialize(), &back));
  EXPECT_FALSE(back.sampled);

  const TraceContext child = ctx.Child(obs::trace::TaskSpanId(ctx.trace_id,
                                                              42, 1));
  EXPECT_EQ(child.trace_id, ctx.trace_id);
  EXPECT_EQ(child.window, ctx.window);
  EXPECT_NE(child.span_id, ctx.span_id);
}

TEST(TraceContextTest, ParseRejectsMalformedTokens) {
  TraceContext out;
  EXPECT_FALSE(TraceContext::Parse("", &out));
  EXPECT_FALSE(TraceContext::Parse("redoop-trace/", &out));
  EXPECT_FALSE(TraceContext::Parse("redoop-trace/abcd/efgh/0/s", &out));
  EXPECT_FALSE(TraceContext::Parse(
      "other-prefix/0123456789abcdef/0123456789abcdef/0/s", &out));
  EXPECT_FALSE(TraceContext::Parse(
      "redoop-trace/0123456789abcdef/0123456789abcdef/0/x", &out));
  EXPECT_TRUE(TraceContext::Parse(
      "redoop-trace/0123456789abcdef/fedcba9876543210/3/u", &out));
  EXPECT_EQ(out.window, 3);
  EXPECT_FALSE(out.sampled);
}

// ---------------------------------------------------------------------------
// Span-id known answers. The span builder recomputes ids with the same
// functions the emitters stamp with, so a drifted derivation would still
// agree with itself; only fixed values pin the scheme (DESIGN §14). The
// values are FNV-1a-64 of the printf-rendered canonical strings.
// ---------------------------------------------------------------------------

TraceContext Context(uint64_t trace_id, uint64_t span_id, int64_t window,
                     bool sampled) {
  TraceContext ctx;
  ctx.trace_id = trace_id;
  ctx.span_id = span_id;
  ctx.window = window;
  ctx.sampled = sampled;
  return ctx;
}

TEST(TraceIdTest, KnownAnswers) {
  using namespace obs::trace;  // NOLINT: the whole id vocabulary.
  using namespace std::string_view_literals;  // "a\0b"sv keeps the NUL.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(IdHex(0x0ull), "0000000000000000");
  EXPECT_EQ(IdHex(0x1ull), "0000000000000001");
  EXPECT_EQ(IdHex(0x123456789abcdefull), "0123456789abcdef");
  EXPECT_EQ(IdHex(0xfedcba9876543210ull), "fedcba9876543210");
  EXPECT_EQ(IdHex(0xffffffffffffffffull), "ffffffffffffffff");
  EXPECT_EQ(TraceIdFor("redoop", "agg"), 0x19e89c30614d33a5ull);
  EXPECT_EQ(TraceIdFor("", ""), 0xd6ce2229a9ad8249ull);
  EXPECT_EQ(TraceIdFor("hadoop", "a\0b"sv), 0x99d2010863b0a40full);
  const SpanId trace = TraceIdFor("redoop", "agg");
  EXPECT_EQ(WindowSpanId(trace, 0), 0xd2ff19ab0c4c53caull);
  EXPECT_EQ(WindowSpanId(trace, 7), 0xd2ff14ab0c4c4b4bull);
  EXPECT_EQ(WindowSpanId(trace, -1), 0xd3dd94a5e5c11fe8ull);
  EXPECT_EQ(WindowSpanId(trace, kMin), 0x43e0afce126b6a16ull);
  EXPECT_EQ(WindowSpanId(trace, kMax), 0xd70ff065e81ea1c2ull);
  EXPECT_EQ(WindowSpanId(0, 3), 0xd515eb29ffbc76faull);
  const SpanId window = WindowSpanId(trace, 3);
  EXPECT_EQ(PhaseSpanId(window, "redoop-agg-w3", 0, "map"),
            0x6d5c168d9974c334ull);
  EXPECT_EQ(PhaseSpanId(window, "redoop-agg-w3", 1, "reduce"),
            0x1fc590ed49b35419ull);
  EXPECT_EQ(PhaseSpanId(window, "", -5, ""), 0x03cddc3c3524b20aull);
  EXPECT_EQ(PhaseSpanId(window, "job\0tail"sv, kMax, "map"),
            0x9e2f1de21ecdf757ull);
  EXPECT_EQ(PhaseSpanId(window, "j", kMin, "re\0duce"sv),
            0x4db384e08ab9eb15ull);
  EXPECT_EQ(TaskSpanId(trace, 42, 1), 0x04f686c815eb33d0ull);
  EXPECT_EQ(TaskSpanId(trace, 0, 0), 0xfb79dd037a645c37ull);
  EXPECT_EQ(TaskSpanId(trace, -1, -2), 0x7ed1a45406271d9eull);
  EXPECT_EQ(TaskSpanId(trace, kMin, kMax), 0xb3497c33493ee8b1ull);
  EXPECT_EQ(TaskSpanId(trace, kMax, kMin), 0x032a89f5e6e1fe49ull);
  EXPECT_EQ(CacheOpSpanId(trace, "cache.pane.hit", "S1P3_R2", 0),
            0xc93f84ebcf88459full);
  EXPECT_EQ(CacheOpSpanId(trace, "", "", -1), 0x0bb8caebbb863e00ull);
  EXPECT_EQ(CacheOpSpanId(trace, "cache.add", "S1P3\0R2"sv, 5),
            0x3a20fd140fe27fdfull);
  EXPECT_EQ(CacheOpSpanId(trace, "dfs.write", "k", kMin),
            0xf7daf9b896f6009full);
  EXPECT_EQ(CacheOpSpanId(trace, "t\0y"sv, "key", kMax), 0x0c018188a3fbf975ull);
  EXPECT_EQ(PaneSpanId(trace, 1, 3, 4), 0xd2fd69130df1a7c0ull);
  EXPECT_EQ(PaneSpanId(trace, 0, 0, 0), 0x4206896cdce564a4ull);
  EXPECT_EQ(PaneSpanId(trace, -1, kMin, kMax), 0x636c2b1c341d5536ull);
  EXPECT_EQ(PaneSpanId(trace, kMax, -7, kMin), 0x10cab36b8fe8448eull);
  EXPECT_EQ(FailureSpanId(trace, 7, 0), 0xe02cdd632225b772ull);
  EXPECT_EQ(FailureSpanId(trace, -3, kMax), 0xe587c51edac222e7ull);
  EXPECT_EQ(FailureSpanId(trace, kMin, -1), 0xbd40ccc3482c0e43ull);
  EXPECT_EQ(Context(0x19e89c30614d33a5ull, 0xd2ff18ab0c4c5217ull, 3, true)
                .Serialize(),
            "redoop-trace/19e89c30614d33a5/d2ff18ab0c4c5217/3/s");
  EXPECT_EQ(Context(0, 0, -1, false).Serialize(),
            "redoop-trace/0000000000000000/0000000000000000/-1/u");
  EXPECT_EQ(Context(0xffffffffffffffffull, 0x1ull, kMin, true).Serialize(),
            "redoop-trace/ffffffffffffffff/0000000000000001/"
            "-9223372036854775808/s");
  EXPECT_EQ(Context(0x10ull, 0xfffffffffffffffeull, kMax, false).Serialize(),
            "redoop-trace/0000000000000010/fffffffffffffffe/"
            "9223372036854775807/u");
}

// The last two ids rendered with printf: the span builder's task-failure
// span ("taskfail:<trace16>:<task>:<attempt>") and the Perfetto flow id
// ("<from16>-<window>"). Neither is journaled, so no golden sees them;
// these values were recorded before either derivation was touched.
TEST(TraceIdTest, TaskFailureSpanAndFlowIdKnownAnswers) {
  EventJournal journal;
  auto append = [&journal](double t, const char* type) -> obs::Event& {
    return journal.Append(t, type).With("system", "redoop").With("query",
                                                                 "agg");
  };
  append(0, obs::event::kWindowOpen).With("recurrence", int64_t{0});
  append(0, obs::event::kPaneReady)
      .With("source", int64_t{1})
      .With("pane", int64_t{3})
      .With("ready", int64_t{2});
  append(1, obs::event::kJobStart).With("job", "agg-w0");
  for (const int64_t attempt : {0, 1}) {
    append(1.0 + attempt, obs::event::kTaskStart)
        .With("task", int64_t{42})
        .With("attempt", attempt)
        .With("kind", "map")
        .With("source", int64_t{1})
        .With("pane", int64_t{3});
    if (attempt == 0) {
      append(1.5, obs::event::kTaskFail)
          .With("task", int64_t{42})
          .With("attempt", attempt)
          .With("kind", "map")
          .With("source", int64_t{1})
          .With("pane", int64_t{3});
    }
  }
  append(3, obs::event::kJobFinish).With("job", "agg-w0");
  append(4, obs::event::kWindowComplete).With("recurrence", int64_t{0});
  append(10, obs::event::kWindowOpen).With("recurrence", int64_t{1});
  append(10, obs::event::kCachePaneHit)
      .With("source", int64_t{1})
      .With("pane", int64_t{3})
      .With("reason", "reused")
      .With("built_in", int64_t{0});
  append(11, obs::event::kWindowComplete).With("recurrence", int64_t{1});

  Trace trace;
  ASSERT_TRUE(BuildTrace(journal, &trace).ok());
  std::vector<obs::trace::SpanId> failures;
  for (const Span& s : trace.spans) {
    if (s.kind == SpanKind::kFailure) failures.push_back(s.id);
  }
  EXPECT_EQ(failures, (std::vector<obs::trace::SpanId>{0xa86a6e22e5f0fb77ull}));

  // Flow events ("ph":"s" and "f") carry the id in both halves.
  TraceWriter writer;
  writer.AddJournal(journal);
  const std::string json = writer.ToJson();
  std::vector<std::string> flow_ids;
  for (size_t at = json.find("\"id\":\""); at != std::string::npos;
       at = json.find("\"id\":\"", at + 1)) {
    const size_t begin = at + 6;
    flow_ids.push_back(json.substr(begin, json.find('"', begin) - begin));
  }
  // A recovery edge from the failure to the retry in window 0, and a
  // pane_reuse edge from pane S1/P3's build span to window 1.
  EXPECT_EQ(flow_ids,
            (std::vector<std::string>{
                "a86a6e22e5f0fb77-0", "a86a6e22e5f0fb77-0",
                "d2fd6d130df1ae8c-1", "d2fd6d130df1ae8c-1"}));
}

// The canonical strings are the definition: render them with StringPrintf
// exactly as DESIGN §14 writes them and hash with FNV-1a, for random ids,
// integers across the int64 range, and byte strings with embedded NULs
// ("%.*s" stops at the first one).
std::string RefHex(obs::trace::SpanId id) {
  return StringPrintf("%016llx", static_cast<unsigned long long>(id));
}

obs::trace::SpanId RefId(const std::string& canonical) {
  const uint64_t h = Fnv1a64(canonical);
  return h != 0 ? h : 0xcbf29ce484222325ull;
}

int64_t RandomInt(Random* r) {
  switch (r->Uniform(4)) {
    case 0:
      return static_cast<int64_t>(r->NextUint64());
    case 1:
      return r->UniformInt(-1000, 1000);
    case 2:
      return r->Bernoulli(0.5) ? std::numeric_limits<int64_t>::min()
                               : std::numeric_limits<int64_t>::max();
    default:
      return r->UniformInt(-9, 9);
  }
}

std::string RandomBytes(Random* r) {
  std::string s(r->Uniform(12), '\0');
  for (char& c : s) {
    c = r->Bernoulli(0.1) ? '\0' : static_cast<char>(r->Uniform(256));
  }
  return s;
}

TEST(TraceIdTest, StreamedIdsMatchPrintfCanonicalStrings) {
  using namespace obs::trace;  // NOLINT: the whole id vocabulary.
  const auto ll = [](int64_t v) { return static_cast<long long>(v); };
  const auto prec = [](const std::string& s) {
    return static_cast<int>(s.size());
  };
  Random r(20);
  for (int i = 0; i < 20000; ++i) {
    const SpanId id = r.NextUint64();
    const int64_t a = RandomInt(&r);
    const int64_t b = RandomInt(&r);
    const int64_t c = RandomInt(&r);
    const std::string s1 = RandomBytes(&r);
    const std::string s2 = RandomBytes(&r);
    const std::string hex = RefHex(id);
    ASSERT_EQ(IdHex(id), hex);
    ASSERT_EQ(TraceIdFor(s1, s2), RefId("trace:" + s1 + "/" + s2));
    ASSERT_EQ(WindowSpanId(id, a),
              RefId(StringPrintf("window:%s:%lld", hex.c_str(), ll(a))));
    ASSERT_EQ(PhaseSpanId(id, s1, a, s2),
              RefId(StringPrintf("phase:%s:%.*s#%lld:%.*s", hex.c_str(),
                                 prec(s1), s1.data(), ll(a), prec(s2),
                                 s2.data())));
    ASSERT_EQ(TaskSpanId(id, a, b),
              RefId(StringPrintf("task:%s:%lld:%lld", hex.c_str(), ll(a),
                                 ll(b))));
    ASSERT_EQ(CacheOpSpanId(id, s1, s2, a),
              RefId(StringPrintf("cacheop:%s:%.*s:%.*s#%lld", hex.c_str(),
                                 prec(s1), s1.data(), prec(s2), s2.data(),
                                 ll(a))));
    ASSERT_EQ(PaneSpanId(id, a, b, c),
              RefId(StringPrintf("pane:%s:S%lld:P%lld:W%lld", hex.c_str(),
                                 ll(a), ll(b), ll(c))));
    ASSERT_EQ(FailureSpanId(id, a, b),
              RefId(StringPrintf("failure:%s:N%lld#%lld", hex.c_str(), ll(a),
                                 ll(b))));
    const TraceContext ctx = Context(id, r.NextUint64(), a, r.Bernoulli(0.5));
    ASSERT_EQ(ctx.Serialize(),
              StringPrintf("redoop-trace/%s/%s/%lld/%c", hex.c_str(),
                           RefHex(ctx.span_id).c_str(), ll(a),
                           ctx.sampled ? 's' : 'u'));
  }
}

// ---------------------------------------------------------------------------
// Span reconstruction on a real overlapping run. win=200 slide=40 gives 5
// panes per window with 4 shared between consecutive windows, so from
// window 1 on every recurrence reuses cached panes — the cross-window
// lineage the tracer exists to expose.
// ---------------------------------------------------------------------------

std::string RunOverlapJournal(int32_t threads, int64_t recurrences = 4) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "trace-agg", 1, 200, 40, 4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriverOptions options;
  options.runner.threads = threads;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  EXPECT_TRUE(driver.Run(recurrences).ok());
  return driver.observability()->journal().ToJsonl();
}

Trace TraceFromJsonl(const std::string& jsonl) {
  EventJournal journal;
  EXPECT_TRUE(EventJournal::Parse(jsonl, &journal).ok());
  Trace trace;
  EXPECT_TRUE(BuildTrace(journal, &trace).ok());
  return trace;
}

TEST(TraceSpanTest, ParentChildIntegrity) {
  const Trace trace = TraceFromJsonl(RunOverlapJournal(1));
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_TRUE(trace.stamp_mismatches.empty())
      << trace.stamp_mismatches.front();

  std::map<obs::trace::SpanId, const Span*> by_id;
  for (const Span& s : trace.spans) {
    EXPECT_EQ(by_id.count(s.id), 0u) << "duplicate span id " << s.id;
    by_id[s.id] = &s;
  }
  for (const Span& s : trace.spans) {
    if (s.parent == 0) {
      // Only windows and system-scoped failure spans are roots.
      EXPECT_TRUE(s.kind == SpanKind::kWindow || s.kind == SpanKind::kFailure)
          << s.label;
      continue;
    }
    auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << "dangling parent of " << s.label;
    const Span* parent = it->second;
    EXPECT_EQ(parent->trace, s.trace) << s.label;
    switch (s.kind) {
      case SpanKind::kPhase:
        EXPECT_EQ(parent->kind, SpanKind::kWindow) << s.label;
        break;
      case SpanKind::kTask:
        EXPECT_EQ(parent->kind, SpanKind::kPhase) << s.label;
        break;
      case SpanKind::kCacheOp:
      case SpanKind::kPane:
      case SpanKind::kFailure:
        EXPECT_TRUE(parent->kind == SpanKind::kTask ||
                    parent->kind == SpanKind::kWindow ||
                    parent->kind == SpanKind::kCacheOp)
            << s.label << " under " << parent->label;
        break;
      case SpanKind::kWindow:
        ADD_FAILURE() << "window span with a parent: " << s.label;
        break;
    }
  }
  EXPECT_GT(trace.CountKind(SpanKind::kWindow), 0u);
  EXPECT_GT(trace.CountKind(SpanKind::kPhase), 0u);
  EXPECT_GT(trace.CountKind(SpanKind::kTask), 0u);
  EXPECT_GT(trace.CountKind(SpanKind::kCacheOp), 0u);
  EXPECT_GT(trace.CountKind(SpanKind::kPane), 0u);
}

TEST(TraceSpanTest, SpanIdsAreByteIdenticalAtEveryThreadCount) {
  const std::string base_jsonl = RunOverlapJournal(1);
  const Trace base = TraceFromJsonl(base_jsonl);
  ASSERT_FALSE(base.spans.empty());
  for (int32_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string jsonl = RunOverlapJournal(threads);
    EXPECT_EQ(base_jsonl, jsonl);
    const Trace other = TraceFromJsonl(jsonl);
    ASSERT_EQ(base.spans.size(), other.spans.size());
    for (size_t i = 0; i < base.spans.size(); ++i) {
      EXPECT_EQ(base.spans[i].id, other.spans[i].id) << "span " << i;
      EXPECT_EQ(base.spans[i].parent, other.spans[i].parent) << "span " << i;
    }
    ASSERT_EQ(base.follows.size(), other.follows.size());
    for (size_t i = 0; i < base.follows.size(); ++i) {
      EXPECT_EQ(base.follows[i].from, other.follows[i].from) << "edge " << i;
      EXPECT_EQ(base.follows[i].to, other.follows[i].to) << "edge " << i;
    }
  }
}

TEST(TraceSpanTest, CrossWindowPaneReuseEdges) {
  const Trace trace = TraceFromJsonl(RunOverlapJournal(1));
  std::vector<const FollowsFrom*> reuse;
  for (const FollowsFrom& edge : trace.follows) {
    if (edge.kind == "pane_reuse") reuse.push_back(&edge);
  }
  // Overlap 4/5: windows 1..3 each reuse cached panes from earlier windows.
  ASSERT_FALSE(reuse.empty());
  std::set<int64_t> consuming_windows;
  for (const FollowsFrom* edge : reuse) {
    EXPECT_LT(edge->window_from, edge->window_to);
    consuming_windows.insert(edge->window_to);
    const Span* from = trace.Find(edge->from);
    ASSERT_NE(from, nullptr);
    EXPECT_EQ(from->kind, SpanKind::kPane);
    EXPECT_EQ(from->source, edge->source);
    EXPECT_EQ(from->pane, edge->pane);
    EXPECT_EQ(from->window, edge->window_from);
    const Span* to = trace.Find(edge->to);
    ASSERT_NE(to, nullptr);
    EXPECT_EQ(to->kind, SpanKind::kWindow);
    EXPECT_EQ(to->window, edge->window_to);
  }
  for (int64_t w : {1, 2, 3}) {
    EXPECT_EQ(consuming_windows.count(w), 1u) << "window " << w
                                              << " reused nothing";
  }
}

TEST(TraceSpanTest, NodeDeathLinksRecoveryToFailure) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "trace-ft", 1, 200, 40, 4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriver driver(&cluster, feed.get(), query);
  for (int64_t i = 0; i < 4; ++i) {
    if (i == 2) {
      cluster.FailNode(3);  // Takes its caches and DFS replicas.
    }
    if (i == 3) {
      cluster.RecoverNode(3);
      cluster.dfs().ReplicateMissing();
    }
    ASSERT_TRUE(driver.RunRecurrence(i).ok()) << "window " << i;
  }

  Trace trace;
  ASSERT_TRUE(
      BuildTrace(driver.observability()->journal(), &trace).ok());
  std::vector<const FollowsFrom*> recovery;
  for (const FollowsFrom& edge : trace.follows) {
    if (edge.kind == "recovery") recovery.push_back(&edge);
  }
  ASSERT_FALSE(recovery.empty())
      << "node death produced no recovery follows-from edges";
  for (const FollowsFrom* edge : recovery) {
    const Span* from = trace.Find(edge->from);
    ASSERT_NE(from, nullptr);
    // The cause is the failure event itself (dfs.node.failed) or, on
    // journals without DFS attribution, the lost-cache invalidation.
    EXPECT_TRUE(from->kind == SpanKind::kFailure ||
                from->kind == SpanKind::kCacheOp)
        << from->label;
    const Span* to = trace.Find(edge->to);
    ASSERT_NE(to, nullptr);
    EXPECT_GE(to->end, from->start) << "recovery precedes its failure";
  }
}

// ---------------------------------------------------------------------------
// Head sampling: unsampled windows carry no stamped trace fields, but the
// offline reconstruction is unchanged (IDs are content-derived).
// ---------------------------------------------------------------------------

TEST(TraceSpanTest, SamplePeriodControlsStampsNotReconstruction) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "trace-sampled", 1, 200, 40,
                                              4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  const RedoopDriverOptions options =
      RedoopDriverOptions::Builder().TraceSamplePeriod(2).Build();
  RedoopDriver driver(&cluster, feed.get(), query, options);
  ASSERT_TRUE(driver.Run(4).ok());

  const EventJournal& journal = driver.observability()->journal();
  bool saw_stamped = false;
  for (const obs::Event& e : journal.events()) {
    const obs::EventField* trace_field = e.Find("trace");
    const int64_t window = e.IntOr("window", -1);
    if (window < 0) continue;
    if (window % 2 == 0) {
      saw_stamped = saw_stamped || trace_field != nullptr;
    } else {
      EXPECT_EQ(trace_field, nullptr)
          << "unsampled window " << window << " stamped " << e.type();
    }
  }
  EXPECT_TRUE(saw_stamped);

  Trace trace;
  ASSERT_TRUE(BuildTrace(journal, &trace).ok());
  EXPECT_TRUE(trace.stamp_mismatches.empty());
  EXPECT_EQ(trace.CountKind(SpanKind::kWindow), 4u);
}

// ---------------------------------------------------------------------------
// Flight recorder: retention eviction drops whole spans atomically — a
// surviving end event always has its begin, the drop is disclosed in the
// truncation counters, and the invariant round-trips through JSONL.
// ---------------------------------------------------------------------------

void ExpectNoOrphanSpanEvents(const EventJournal& journal) {
  std::set<std::string> begun;
  for (const obs::Event& e : journal.events()) {
    const std::string& type = e.type();
    if (type == obs::event::kTaskStart) {
      begun.insert("task/" + std::to_string(e.IntOr("task", -1)));
    } else if (type == obs::event::kTaskFinish ||
               type == obs::event::kTaskFail) {
      EXPECT_EQ(begun.count("task/" + std::to_string(e.IntOr("task", -1))),
                1u)
          << type << " without its task.start (task "
          << e.IntOr("task", -1) << ")";
    } else if (type == obs::event::kJobStart) {
      begun.insert("job/" + e.StrOr("query", "") + "/" + e.StrOr("job", ""));
    } else if (type == obs::event::kJobFinish) {
      EXPECT_EQ(begun.count("job/" + e.StrOr("query", "") + "/" +
                            e.StrOr("job", "")),
                1u)
          << "job.finish without its job.start";
    } else if (type == obs::event::kWindowOpen) {
      begun.insert("window/" + e.StrOr("query", "") + "/" +
                   std::to_string(e.IntOr("recurrence", -1)));
    } else if (type == obs::event::kWindowComplete) {
      EXPECT_EQ(begun.count("window/" + e.StrOr("query", "") + "/" +
                            std::to_string(e.IntOr("recurrence", -1))),
                1u)
          << "window.complete without its window.open";
    }
  }
}

TEST(FlightRecorderSpanTest, EvictionDropsWholeSpans) {
  EventJournal journal;
  journal.SetCommonField("system", "redoop");
  journal.SetRetentionBudget(4 * 1024);
  double now = 0.0;
  for (int64_t task = 0; task < 200; ++task) {
    journal.Append(now, obs::event::kTaskStart)
        .With("task", task)
        .With("attempt", static_cast<int64_t>(0))
        .With("kind", "map");
    now += 0.25;
    journal.Append(now, obs::event::kTaskFinish)
        .With("task", task)
        .With("attempt", static_cast<int64_t>(0))
        .With("duration", 0.25);
    now += 0.25;
  }
  ASSERT_GT(journal.dropped_events(), 0);
  ASSERT_GT(journal.dropped_bytes(), 0);
  ExpectNoOrphanSpanEvents(journal);

  // The invariant survives serialization, and the disclosed counters
  // round-trip with it.
  EventJournal parsed;
  ASSERT_TRUE(EventJournal::Parse(journal.ToJsonl(), &parsed).ok());
  EXPECT_EQ(parsed.dropped_events(), journal.dropped_events());
  EXPECT_EQ(parsed.dropped_bytes(), journal.dropped_bytes());
  ExpectNoOrphanSpanEvents(parsed);
}

TEST(FlightRecorderSpanTest, InterleavedSpansEvictAtomically) {
  // Begin/end pairs that interleave (task 1 starts before task 0 ends)
  // exercise the sealed-region scan: evicting task 0's start must also
  // drop its finish even though other events sit between them.
  EventJournal journal;
  journal.SetCommonField("system", "redoop");
  journal.SetRetentionBudget(2 * 1024);
  double now = 0.0;
  for (int64_t wave = 0; wave < 50; ++wave) {
    const int64_t a = wave * 2;
    const int64_t b = wave * 2 + 1;
    journal.Append(now += 0.1, obs::event::kTaskStart).With("task", a);
    journal.Append(now += 0.1, obs::event::kTaskStart).With("task", b);
    journal.Append(now += 0.1, obs::event::kTaskFinish).With("task", a);
    journal.Append(now += 0.1, obs::event::kTaskFinish).With("task", b);
  }
  ASSERT_GT(journal.dropped_events(), 0);
  ExpectNoOrphanSpanEvents(journal);
}

TEST(FlightRecorderSpanTest, TruncatedJournalStillBuildsValidTrace) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "trace-fr", 1, 200, 40, 4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriver driver(&cluster, feed.get(), query);
  driver.observability()->journal().SetRetentionBudget(48 * 1024);
  ASSERT_TRUE(driver.Run(4).ok());

  const EventJournal& journal = driver.observability()->journal();
  ASSERT_GT(journal.dropped_events(), 0);
  ExpectNoOrphanSpanEvents(journal);
  Trace trace;
  ASSERT_TRUE(BuildTrace(journal, &trace).ok());
  EXPECT_TRUE(trace.stamp_mismatches.empty());
  // Whatever survived still forms a well-parented DAG.
  std::set<obs::trace::SpanId> ids;
  for (const Span& s : trace.spans) ids.insert(s.id);
  for (const Span& s : trace.spans) {
    if (s.parent != 0) EXPECT_EQ(ids.count(s.parent), 1u) << s.label;
  }
}

}  // namespace
}  // namespace redoop
