#ifndef REDOOP_MAPREDUCE_JOB_H_
#define REDOOP_MAPREDUCE_JOB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "mapreduce/kv.h"
#include "mapreduce/kv_arena.h"
#include "mapreduce/mapper.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/reducer.h"

namespace redoop {

/// Static configuration of a MapReduce job: the user functions and the
/// reduce-side parallelism. Mapper/reducer/partitioner instances are shared
/// (they are stateless by contract) and must outlive the job execution.
struct JobConfig {
  std::string name = "job";
  std::shared_ptr<const Mapper> mapper;
  std::shared_ptr<const Reducer> reducer;
  /// Optional map-side combiner, run over each partition of a map task's
  /// output before it is spilled/shuffled (Hadoop's combiner). Must be
  /// associative/commutative and emit the same format it consumes;
  /// aggregation reducers usually double as their own combiner.
  std::shared_ptr<const Reducer> combiner;
  std::shared_ptr<const Partitioner> partitioner;  // Defaults to hash.
  int32_t num_reducers = 1;
};

/// One map input: a DFS file (or a record subrange of it, for a pane inside
/// a multi-pane file), tagged with the (source, pane) it carries so that
/// cached reducer inputs can be attributed to panes.
struct MapInput {
  std::string file_name;
  SourceId source = 0;
  PaneId pane = kInvalidPane;
  /// Half-open record range; record_end == -1 means "to end of file".
  int64_t record_begin = 0;
  int64_t record_end = -1;
};

/// A cached reducer input injected into one reduce partition: the shuffled,
/// sorted pairs of some (source, pane, partition), resident on `location`'s
/// local file system. If the reduce task is scheduled elsewhere the data is
/// fetched over the network (paper §4.3: this is what the cache-aware
/// scheduler tries to avoid).
struct ReduceSideInput {
  std::string cache_name;
  int32_t partition = 0;
  SourceId source = 0;
  PaneId pane = kInvalidPane;
  NodeId location = kInvalidNode;
  int64_t bytes = 0;
  int64_t records = 0;
  /// Shared payload (typically aliased with the cache store's entry): side
  /// inputs, caches, and results all reference the same immutable flat
  /// buffer instead of deep-copying it — cached panes pay no per-string
  /// heap overhead when stored or re-scanned.
  std::shared_ptr<const FlatKvBuffer> payload;
};

/// Instructions for materializing caches out of a job run (paper §4:
/// Redoop caches at two stages — reduce input and reduce output).
struct CacheDirectives {
  /// Write each reduce partition's newly shuffled input, split per
  /// (source, pane), to the reducer node's local FS.
  bool cache_reduce_input = false;
  /// Write each reduce partition's output to the reducer node's local FS.
  bool cache_reduce_output = false;
  /// Names the reduce-input cache file for (source, pane, partition).
  std::function<std::string(SourceId, PaneId, int32_t)> input_cache_name;
  /// Names the reduce-output cache file for partition.
  std::function<std::string(int32_t)> output_cache_name;
};

/// An explicitly specified reduce task, used by Redoop's pane-pair join
/// jobs: the task's entire input is its side inputs (no shuffle), and its
/// output may be cached under a per-task name. When a job carries explicit
/// reduce tasks it must have no map inputs.
struct ExplicitReduceTask {
  /// The hash partition this task covers (labels the cached output).
  int32_t partition = 0;
  std::vector<ReduceSideInput> side_inputs;
  /// When non-empty, the task's output (possibly empty) is materialized as
  /// a reduce-output cache with this name.
  std::string output_cache_name;
  /// Pane-pair labels for reporting/cache attribution.
  PaneId label_left = kInvalidPane;
  PaneId label_right = kInvalidPane;
  /// Placement hint: tasks sharing a side input anchor on one node so that
  /// repeat reads of the shared cache hit the page cache.
  NodeId preferred_node = kInvalidNode;
};

/// A complete executable job specification.
struct JobSpec {
  JobConfig config;
  std::vector<MapInput> map_inputs;
  std::vector<ReduceSideInput> side_inputs;
  /// Per-source mapper overrides (joins tag tuples by source); sources not
  /// listed use config.mapper.
  std::map<SourceId, std::shared_ptr<const Mapper>> per_source_mappers;
  /// When non-empty, these tasks replace the standard one-task-per-
  /// partition reduce phase; map_inputs and side_inputs must be empty.
  std::vector<ExplicitReduceTask> explicit_reduce_tasks;
  CacheDirectives cache;
  /// When non-empty, only these reduce partitions run (cache-rebuild jobs
  /// regenerate just the lost partitions; the deterministic partitioner
  /// guarantees the replay routes the same keys there). Maps still execute
  /// fully — their cost cannot be avoided — but other partitions' slices
  /// of their output are never read. Standard reduce phase only.
  std::vector<int32_t> active_partitions;
  /// When set, the job's output is also written to HDFS as
  /// "<output_prefix>/part-all": partitions in order, each in its
  /// reducer's emission order.
  std::string output_prefix;
  /// Nodes the scheduler should prefer for reduce partition p (e.g. where
  /// partition p's caches live). Parallel to partition ids; optional.
  std::vector<NodeId> preferred_reduce_nodes;
};

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_JOB_H_
