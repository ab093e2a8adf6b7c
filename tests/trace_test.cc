// Tests for the Chrome trace exporter: task slices drawn from the journal's
// task.finish events, and their agreement with the drivers' task reports.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/hadoop_driver.h"
#include "common/string_utils.h"
#include "core/redoop_driver.h"
#include "obs/trace/trace_writer.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SmallClusterConfig;
using obs::trace::TraceWriter;

/// A task.finish shaped as JobRunner journals it, in window 3 of the
/// journal's system; every phase but compute is zero.
obs::Event& AppendTaskFinish(obs::EventJournal* journal, const char* kind,
                             int64_t task, int64_t node, double start,
                             double compute) {
  return journal->Append(start + compute, obs::event::kTaskFinish)
      .With("window", int64_t{3})
      .With("kind", kind)
      .With("task", task)
      .With("node", node)
      .With("attempt", int64_t{0})
      .With("start", start)
      .With("startup", 0.0)
      .With("read", 0.0)
      .With("sort", 0.0)
      .With("compute", compute)
      .With("write", 0.0);
}

TEST(TraceWriterTest, JsonShape) {
  obs::EventJournal journal;
  journal.SetCommonField("system", "job");
  AppendTaskFinish(&journal, "map", 1, 0, 2.0, 1.5)
      .With("source", int64_t{1})
      .With("pane", int64_t{4});
  AppendTaskFinish(&journal, "reduce", 2, 3, 4.0, 0.5)
      .With("partition", int64_t{5})
      .With("shuffle", 0.0);
  TraceWriter writer;
  writer.AddJournal(journal);
  // Two slices, plus one tasks_running sample per task.finish.
  EXPECT_EQ(writer.event_count(), 4u);
  const std::string json = writer.ToJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Simulated seconds become trace microseconds. A map has no partition,
  // a reduce no source or pane.
  EXPECT_NE(json.find(
                "{\"name\":\"map job-w3#1\",\"cat\":\"map\",\"ph\":\"X\","
                "\"ts\":2000000,\"dur\":1500000,\"pid\":1,\"tid\":0,"
                "\"args\":{\"job\":\"job-w3\",\"partition\":-1,\"source\":1,"
                "\"pane\":4,\"attempt\":0,\"startup\":0.000,\"read\":0.000,"
                "\"shuffle\":0.000,\"sort\":0.000,\"compute\":1.500,"
                "\"write\":0.000}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(
                "{\"name\":\"reduce job-w3#2\",\"cat\":\"reduce\",\"ph\":\"X\","
                "\"ts\":4000000,\"dur\":500000,\"pid\":1,\"tid\":3,"
                "\"args\":{\"job\":\"job-w3\",\"partition\":5,\"source\":0,"
                "\"pane\":-1,\"attempt\":0,\"startup\":0.000,\"read\":0.000,"
                "\"shuffle\":0.000,\"sort\":0.000,\"compute\":0.500,"
                "\"write\":0.000}}"),
            std::string::npos)
      << json;
}

TEST(TraceWriterTest, WriteFileRoundTrip) {
  obs::EventJournal journal;
  journal.SetCommonField("system", "j");
  AppendTaskFinish(&journal, "map", 1, 0, 0.0, 1.0);
  TraceWriter writer;
  writer.AddJournal(journal);
  const std::string path = ::testing::TempDir() + "/redoop_trace_test.json";
  ASSERT_TRUE(writer.WriteFile(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), writer.ToJson());
  std::remove(path.c_str());
}

TEST(TraceWriterTest, WriteToBadPathFails) {
  TraceWriter writer;
  EXPECT_FALSE(writer.WriteFile("/nonexistent-dir-xyz/trace.json").ok());
}

/// The slice a TaskReport of job `job` renders to: the reference the
/// journal's task.finish events must reproduce byte for byte.
std::string ReportSlice(const std::string& job, const TaskReport& r) {
  const char* kind = r.type == TaskType::kMap ? "map" : "reduce";
  return StringPrintf(
      "{\"name\":\"%s %s#%ld\",\"cat\":\"%s\",\"ph\":\"X\","
      "\"ts\":%.0f,\"dur\":%.0f,\"pid\":1,\"tid\":%d,"
      "\"args\":{\"job\":\"%s\",\"partition\":%d,\"source\":%d,"
      "\"pane\":%ld,\"attempt\":%d,\"startup\":%.3f,\"read\":%.3f,"
      "\"shuffle\":%.3f,\"sort\":%.3f,\"compute\":%.3f,\"write\":%.3f}}",
      kind, job.c_str(), r.id, kind, r.timing.scheduled_at * 1e6,
      r.timing.Total() * 1e6, r.node, job.c_str(), r.partition, r.source,
      r.pane, r.attempt, r.timing.startup, r.timing.read, r.timing.shuffle,
      r.timing.sort, r.timing.compute, r.timing.write);
}

TEST(TraceTest, DriversCarryTaskReports) {
  RecurringQuery query = MakeAggregationQuery(1, "t", 1, 200, 40, 4);

  obs::ObservabilityContext hadoop_obs;
  hadoop_obs.journal().SetCommonField("system", "hadoop");
  Cluster hadoop_cluster(6, SmallClusterConfig());
  auto hadoop_feed = MakeWccFeed(1, 30, 20);
  JobRunnerOptions runner_options;
  runner_options.obs = &hadoop_obs;
  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query,
                               runner_options);
  WindowReport h = hadoop.RunRecurrence(0);
  EXPECT_GT(h.task_reports.size(), 0u);

  obs::ObservabilityContext redoop_obs;
  redoop_obs.journal().SetCommonField("system", "redoop");
  Cluster redoop_cluster(6, SmallClusterConfig());
  auto redoop_feed = MakeWccFeed(1, 30, 20);
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query,
                      RedoopDriverOptions::Builder()
                          .Observability(&redoop_obs)
                          .Build());
  WindowReport r0 = redoop.RunRecurrence(0).value();
  WindowReport r1 = redoop.RunRecurrence(1).value();
  EXPECT_GT(r0.task_reports.size(), 0u);
  EXPECT_GT(r1.task_reports.size(), 0u);
  EXPECT_LT(r1.task_reports.size(), r0.task_reports.size())
      << "warm windows run fewer tasks";

  // The journals' task.finish events render to the reports' slices, one
  // to one and in order, before any other record.
  std::vector<std::string> want;
  for (const TaskReport& r : h.task_reports) {
    want.push_back(ReportSlice("hadoop-w0", r));
  }
  for (const TaskReport& r : r0.task_reports) {
    want.push_back(ReportSlice("redoop-w0", r));
  }
  for (const TaskReport& r : r1.task_reports) {
    want.push_back(ReportSlice("redoop-w1", r));
  }
  TraceWriter writer;
  writer.AddJournal(hadoop_obs.journal());
  writer.AddJournal(redoop_obs.journal());
  std::vector<std::string> records;
  std::istringstream lines(writer.ToJson());
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line.back() == ',') line.pop_back();
    records.push_back(line);
  }
  // Skip the header line and the three process-name records.
  ASSERT_GT(records.size(), 4 + want.size());
  const std::vector<std::string> got(records.begin() + 4,
                                     records.begin() + 4 + want.size());
  EXPECT_EQ(got, want);
  EXPECT_EQ(records[4 + want.size()].find("\"pid\":1,"), std::string::npos)
      << "a task slice that no report has";
}

}  // namespace
}  // namespace redoop
