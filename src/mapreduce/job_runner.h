#ifndef REDOOP_MAPREDUCE_JOB_RUNNER_H_
#define REDOOP_MAPREDUCE_JOB_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/ids.h"
#include "common/random.h"
#include "exec/task_executor.h"
#include "mapreduce/job.h"
#include "mapreduce/job_result.h"
#include "mapreduce/scheduler.h"
#include "mapreduce/task.h"
#include "obs/observability.h"

namespace redoop {

struct JobRunnerOptions {
  /// A task is retried this many times before failing the job (Hadoop's
  /// mapred.map.max.attempts default).
  int32_t max_task_attempts = 4;
  /// Straggler model: with this probability a task attempt runs
  /// `straggler_slowdown` times slower (background load, bad disk, ...).
  /// Deterministic per (seed, attempt).
  double straggler_probability = 0.0;
  double straggler_slowdown = 4.0;
  /// Hadoop's speculative execution: once a task has run
  /// `speculation_factor` times its nominal duration, a backup attempt is
  /// launched on another free slot and the first finisher wins. The
  /// paper's experiments ran with speculation disabled (§6.1), which is
  /// the default here too.
  bool speculative_execution = false;
  double speculation_factor = 1.3;
  uint64_t seed = 99;
  /// Metrics/journal sink for task lifecycle, DFS reads, and job events;
  /// null (the default) disables emission. Must outlive the runner.
  obs::ObservabilityContext* obs = nullptr;
  /// Attribution scope for emission (query/window labels). When non-null
  /// it is copied at construction and takes precedence over `obs`; the
  /// pointed-to scope only needs to live until the constructor returns.
  const obs::TelemetryScope* telemetry = nullptr;
  /// Host worker threads executing task payloads (the user map/reduce
  /// functions, combiner, and k-way merges). 1 runs every payload inline
  /// on the simulator thread; N > 1 offloads payloads to a work-stealing
  /// pool whose results re-join the event loop at deterministic points;
  /// 0 means "auto" (hardware_concurrency). Window outputs, counters,
  /// journal contents, and simulated times are byte-identical at every
  /// setting — threads only changes host wall-clock.
  int32_t threads = 1;
  /// Optional shared executor (e.g. one pool across a MultiQueryCoordinator's
  /// drivers); overrides `threads` when non-null. Must outlive the runner.
  exec::TaskExecutor* executor = nullptr;
};

/// Executes MapReduce jobs on the simulated cluster: splits inputs into
/// tasks (one map per HDFS block slice), drives the scheduler as slots free
/// up, actually runs the user map/reduce functions on the records, accounts
/// simulated time through the cost model, and survives node failures via
/// task re-execution. This is the JobTracker + TaskTracker execution path
/// of Hadoop, collapsed into one deterministic event-driven engine.
class JobRunner {
 public:
  /// `cluster` and `scheduler` must outlive the runner.
  JobRunner(Cluster* cluster, TaskScheduler* scheduler,
            JobRunnerOptions options = JobRunnerOptions());
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Runs the job to completion (advancing simulated time) and returns the
  /// result. Errors (missing input file, unreadable block, task attempts
  /// exhausted) are reported in JobResult::status.
  JobResult Run(const JobSpec& spec);

  /// Invoked when a node's local FS cannot fit a new cache file: handler
  /// should free space (on-demand purging of expired caches, paper §4.1)
  /// and return the bytes freed. The write is retried once.
  using DiskFullHandler = std::function<int64_t(NodeId node, int64_t needed)>;
  void SetDiskFullHandler(DiskFullHandler handler) {
    disk_full_handler_ = std::move(handler);
  }

 private:
  struct MapTaskState;
  struct ReduceTaskState;
  struct RunState;
  struct MapPayloadResult;
  struct ReducePayloadResult;

  void BuildMapTasks(const JobSpec& spec, RunState* run);
  void TryScheduleTasks(RunState* run);
  void StartMapTask(RunState* run, MapTaskState* task, NodeId node);
  /// Installs an offloaded (or inline) map payload's results, charges the
  /// result-dependent cost-model phases, and arms the attempt. Runs on the
  /// simulator thread — inline for threads=1, from the join event otherwise.
  void InstallMapResult(RunState* run, MapTaskState* task,
                        MapPayloadResult result);
  void FinishMapTask(RunState* run, MapTaskState* task, NodeId winner_node);
  void StartReduceTask(RunState* run, ReduceTaskState* task, NodeId node);
  /// Reduce twin of InstallMapResult. `merge_spill` is the start-computed
  /// merge-spill write charge folded into timing.write here.
  void InstallReduceResult(RunState* run, ReduceTaskState* task,
                           SimDuration merge_spill,
                           ReducePayloadResult result);
  void FinishReduceTask(RunState* run, ReduceTaskState* task,
                        NodeId winner_node);
  /// Consumes the per-attempt straggler draw (call exactly once per
  /// attempt, at Start — before any payload offload — so the RNG stream
  /// is identical at every thread count and failure interleaving).
  double DrawStragglerFactor();
  /// Applies the pre-drawn straggler factor and, when speculation is on,
  /// arms the backup-launch check. Returns the attempt's actual duration.
  template <typename TaskState>
  SimDuration ArmAttempt(RunState* run, TaskState* task,
                         SimDuration nominal_duration, bool is_map);
  void OnNodeFailure(NodeId node);
  void FailTaskAttempt(RunState* run, TaskType type, int64_t index);
  bool AllMapsDone(const RunState& run) const;
  /// Lifts the map barrier: snapshots the map outputs for the reduces and
  /// makes every pending reduce schedulable now.
  void UnlockReduces(RunState* run);
  void MaybeFinishJob(RunState* run);

  static MapPayloadResult ExecuteMapPayload(const DfsFile* file,
                                            int64_t record_begin,
                                            int64_t record_end,
                                            const Mapper* mapper,
                                            const Reducer* combiner,
                                            const Partitioner* partitioner,
                                            int32_t num_partitions);

  Cluster* cluster_;
  TaskScheduler* scheduler_;
  JobRunnerOptions options_;
  obs::TelemetryScope scope_;  // From options.telemetry, else options.obs.
  DiskFullHandler disk_full_handler_;
  Random random_;  // Straggler draws (deterministic from options.seed).
  RunState* active_run_ = nullptr;  // Non-null only inside Run().
  TaskId next_task_id_ = 1;
  /// Payload pool: null in inline mode (threads=1). Points at
  /// options_.executor when shared, else at owned_executor_.
  exec::TaskExecutor* executor_ = nullptr;
  std::unique_ptr<exec::TaskExecutor> owned_executor_;
};

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_JOB_RUNNER_H_
