#ifndef REDOOP_MAPREDUCE_SCHEDULER_H_
#define REDOOP_MAPREDUCE_SCHEDULER_H_

#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/ids.h"
#include "mapreduce/job.h"
#include "obs/telemetry_scope.h"

namespace redoop {

/// Everything a scheduler may consider when placing a map task.
struct MapPlacementRequest {
  /// Nodes holding a replica of the task's input block (data locality).
  std::vector<NodeId> replica_nodes;
};

/// Everything a scheduler may consider when placing a reduce task.
struct ReducePlacementRequest {
  int32_t partition = 0;
  /// Cached side inputs this reduce task will read and where they live.
  std::vector<ReduceSideInput> side_inputs;
  /// Hint from the job spec (e.g. the node that produced this partition's
  /// caches in an earlier recurrence).
  NodeId preferred_node = kInvalidNode;
  /// Bytes arriving from the new shuffle (not cached).
  int64_t shuffle_bytes = 0;
};

/// Task placement policy. Implementations pick a live node with a free slot
/// of the right kind, or kInvalidNode to signal "wait for a slot". The
/// default implementation mirrors Hadoop's FIFO scheduler with data
/// locality; Redoop's window-aware scheduler (paper §4.3) subclasses this.
class TaskScheduler {
 public:
  virtual ~TaskScheduler() = default;

  virtual NodeId SelectNodeForMap(const MapPlacementRequest& request,
                                  const Cluster& cluster) = 0;
  virtual NodeId SelectNodeForReduce(const ReducePlacementRequest& request,
                                     const Cluster& cluster) = 0;

  /// Journals reduce placement decisions (sched.assign) with the scope's
  /// query/window attribution. A map placement is journaled by the job
  /// runner's task.start, which carries the node and the read's locality.
  void set_telemetry(obs::TelemetryScope scope) { scope_ = std::move(scope); }

 protected:
  obs::TelemetryScope scope_;
};

/// Hadoop's default placement shape: prefer a replica-local node with a
/// free slot, otherwise the least-loaded live node with a free slot.
/// Reduce tasks go to the least-loaded node (no cache awareness).
class DefaultScheduler : public TaskScheduler {
 public:
  NodeId SelectNodeForMap(const MapPlacementRequest& request,
                          const Cluster& cluster) override;
  NodeId SelectNodeForReduce(const ReducePlacementRequest& request,
                             const Cluster& cluster) override;
};

namespace scheduler_internal {
/// Least-loaded live node with a free slot of the requested kind; breaks
/// ties by node id for determinism. Returns kInvalidNode when none.
NodeId LeastLoadedWithFreeSlot(const Cluster& cluster, bool map_slot);
}  // namespace scheduler_internal

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_SCHEDULER_H_
