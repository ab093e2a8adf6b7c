#include "core/cache_aware_scheduler.h"

#include "common/logging.h"

namespace redoop {

CacheAwareScheduler::CacheAwareScheduler(const CostModel* cost_model,
                                         CacheAwareSchedulerOptions options)
    : cost_model_(cost_model), options_(options) {
  REDOOP_CHECK(cost_model_ != nullptr);
}

double CacheAwareScheduler::ReduceIoCost(const ReducePlacementRequest& request,
                                         NodeId node) const {
  double cost = 0.0;
  for (const ReduceSideInput& side : request.side_inputs) {
    if (side.location == node) {
      cost += cost_model_->LocalReadTime(side.bytes);
    } else {
      cost += cost_model_->RemoteReadTime(side.bytes);
    }
  }
  // Newly shuffled bytes arrive over the network regardless of placement;
  // they do not differentiate nodes but keep C_task,i in honest units.
  cost += cost_model_->TransferTime(request.shuffle_bytes);
  return cost;
}

NodeId CacheAwareScheduler::SelectNodeForReduce(
    const ReducePlacementRequest& request, const Cluster& cluster) {
  NodeId best = kInvalidNode;
  double best_score = 0.0;
  for (int32_t i = 0; i < cluster.num_nodes(); ++i) {
    const TaskNode& n = cluster.node(i);
    if (!n.alive() || n.free_reduce_slots() <= 0) continue;
    double score =
        options_.load_weight_s * n.Load() + ReduceIoCost(request, n.id());
    if (n.id() == request.preferred_node) score -= options_.preferred_bonus_s;
    if (best == kInvalidNode || score < best_score) {
      best = n.id();
      best_score = score;
    }
  }
  if (scope_.active() && best != kInvalidNode) {
    // Cache affinity is "considered" when the task has cached side inputs
    // at all, and "taken" when the chosen node holds at least one of them.
    const bool considered = !request.side_inputs.empty();
    bool taken = false;
    int64_t local_bytes = 0;
    int64_t remote_bytes = 0;
    for (const ReduceSideInput& side : request.side_inputs) {
      if (side.location == best) {
        taken = true;
        local_bytes += side.bytes;
      } else {
        remote_bytes += side.bytes;
      }
    }
    const double io_cost = ReduceIoCost(request, best);
    scope_.Emit(obs::event::kSchedAssign)
        .With("kind", "reduce")
        .With("policy", "cache_aware")
        .With("node", best)
        .With("partition", request.partition)
        .With("load", cluster.node(best).Load())
        .With("io_cost", io_cost)
        .With("score", best_score)
        .With("preferred", request.preferred_node)
        .With("affinity_considered", considered ? 1 : 0)
        .With("affinity_taken", taken ? 1 : 0)
        .With("cache_local_bytes", local_bytes)
        .With("cache_remote_bytes", remote_bytes)
        .With("shuffle_bytes", request.shuffle_bytes);
  }
  return best;
}

void FairShareLedger::RegisterTenant(QueryId id, double weight) {
  REDOOP_CHECK(weight > 0.0) << "fair-share weight must be positive";
  tenants_[id].weight = weight;
}

void FairShareLedger::Charge(QueryId id, double service_s) {
  auto it = tenants_.find(id);
  REDOOP_CHECK(it != tenants_.end()) << "Charge on unregistered tenant " << id;
  it->second.attained_s += service_s / it->second.weight;
}

double FairShareLedger::AttainedService(QueryId id) const {
  auto it = tenants_.find(id);
  return it != tenants_.end() ? it->second.attained_s : 0.0;
}

double FairShareLedger::Weight(QueryId id) const {
  auto it = tenants_.find(id);
  return it != tenants_.end() ? it->second.weight : 1.0;
}

size_t FairShareLedger::PickNext(
    const std::vector<Candidate>& candidates) const {
  REDOOP_CHECK(!candidates.empty());
  size_t best = 0;
  double best_attained = AttainedService(candidates[0].id);
  for (size_t i = 1; i < candidates.size(); ++i) {
    double attained = AttainedService(candidates[i].id);
    const Candidate& a = candidates[i];
    const Candidate& b = candidates[best];
    bool wins = attained < best_attained ||
                (attained == best_attained &&
                 (a.trigger < b.trigger ||
                  (a.trigger == b.trigger && a.index < b.index)));
    if (wins) {
      best = i;
      best_attained = attained;
    }
  }
  return best;
}

}  // namespace redoop
