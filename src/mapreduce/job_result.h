#ifndef REDOOP_MAPREDUCE_JOB_RESULT_H_
#define REDOOP_MAPREDUCE_JOB_RESULT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "mapreduce/counters.h"
#include "mapreduce/kv.h"
#include "mapreduce/kv_arena.h"
#include "mapreduce/task.h"

namespace redoop {

/// Outcome of one MapReduce job execution on the simulated cluster.
struct JobResult {
  Status status;
  SimTime submitted_at = 0.0;
  SimTime finished_at = 0.0;

  /// End-to-end job response time.
  SimDuration Elapsed() const { return finished_at - submitted_at; }

  /// Phase aggregates matching the paper's Fig. 6/7 (b,d,f) methodology:
  /// shuffle time is the copying of map outputs to reducers; reduce time is
  /// everything a reducer does after the shuffle (sort + grouping + reduce
  /// calls + writes), summed over reduce tasks.
  SimDuration shuffle_time_total = 0.0;
  SimDuration reduce_time_total = 0.0;
  /// Map phase span: first map start to last map finish.
  SimDuration map_phase_time = 0.0;

  /// Final output: each reduce task's pairs, in partition order, as one
  /// run sorted by (key, value). A reducer that emitted out of order had
  /// its run sorted once, stably. The runs are shared with the job's
  /// output caches, never copied. (The DFS part file, when the spec names
  /// one, holds the same pairs in partition order and emission order.)
  std::vector<std::shared_ptr<const FlatKvBuffer>> partition_outputs;

  /// Every output pair sorted by (key, value): one stable k-way merge of
  /// partition_outputs, materialized as strings once. A job whose result
  /// only feeds caches never calls it, and so never pays for it.
  std::vector<KeyValue> MergedOutput() const;

  Counters counters;
  std::vector<TaskReport> task_reports;
  /// Caches materialized per the spec's CacheDirectives.
  std::vector<MaterializedCache> caches;
};

/// Merges sorted flat runs (stable in run order) into one (key, value)-
/// sorted vector of strings — the materialization of a job's or a
/// window's result.
std::vector<KeyValue> MergeToKeyValues(
    std::span<const std::shared_ptr<const FlatKvBuffer>> runs);

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_JOB_RESULT_H_
