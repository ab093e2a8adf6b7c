#include "mapreduce/scheduler.h"

namespace redoop {

namespace scheduler_internal {

NodeId LeastLoadedWithFreeSlot(const Cluster& cluster, bool map_slot) {
  NodeId best = kInvalidNode;
  double best_load = 2.0;
  for (int32_t i = 0; i < cluster.num_nodes(); ++i) {
    const TaskNode& n = cluster.node(i);
    if (!n.alive()) continue;
    const int32_t free = map_slot ? n.free_map_slots() : n.free_reduce_slots();
    if (free <= 0) continue;
    const double load = n.Load();
    if (load < best_load) {
      best_load = load;
      best = n.id();
    }
  }
  return best;
}

}  // namespace scheduler_internal

NodeId DefaultScheduler::SelectNodeForMap(const MapPlacementRequest& request,
                                          const Cluster& cluster) {
  // Data locality first: any replica holder with a free map slot, least
  // loaded among them.
  NodeId best = kInvalidNode;
  double best_load = 2.0;
  for (NodeId candidate : request.replica_nodes) {
    if (candidate < 0 || candidate >= cluster.num_nodes()) continue;
    const TaskNode& n = cluster.node(candidate);
    if (!n.alive() || n.free_map_slots() <= 0) continue;
    if (n.Load() < best_load) {
      best_load = n.Load();
      best = candidate;
    }
  }
  if (best == kInvalidNode) {
    best = scheduler_internal::LeastLoadedWithFreeSlot(cluster,
                                                       /*map_slot=*/true);
  }
  return best;
}

NodeId DefaultScheduler::SelectNodeForReduce(
    const ReducePlacementRequest& request, const Cluster& cluster) {
  // Hadoop's default scheduler is cache/locality blind here.
  const NodeId best =
      scheduler_internal::LeastLoadedWithFreeSlot(cluster, /*map_slot=*/false);
  if (scope_.active() && best != kInvalidNode) {
    scope_.Emit(obs::event::kSchedAssign)
        .With("kind", "reduce")
        .With("policy", "default")
        .With("node", best)
        .With("partition", request.partition)
        .With("shuffle_bytes", request.shuffle_bytes);
  }
  return best;
}

}  // namespace redoop
