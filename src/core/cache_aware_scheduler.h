#ifndef REDOOP_CORE_CACHE_AWARE_SCHEDULER_H_
#define REDOOP_CORE_CACHE_AWARE_SCHEDULER_H_

#include <cstddef>
#include <map>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "mapreduce/scheduler.h"
#include "sim/cost_model.h"

namespace redoop {

struct CacheAwareSchedulerOptions {
  /// Weight (seconds per unit of load) converting a node's busy-slot
  /// fraction into the same units as the I/O cost term, so Eq. 4's
  /// `Load_i + C_task,i` is a meaningful sum. Larger values favour load
  /// balancing; smaller values favour cache locality.
  double load_weight_s = 30.0;
  /// Bonus (seconds subtracted from the score) for the task's preferred
  /// node — used to co-locate pane-pair tasks that share a cached pane, so
  /// repeat reads hit the OS page cache.
  double preferred_bonus_s = 10.0;
};

/// Redoop's window-aware task scheduler (paper §4.3, Eq. 4):
///
///     node = argmin_i [ Load_i + C_task,i ]
///
/// where Load_i is node i's busy-slot fraction and C_task,i the I/O cost of
/// running the task there (low on nodes already holding the task's cached
/// reducer inputs, higher elsewhere — the SOPA-style I/O-dominant cost
/// model). Only nodes with a free slot of the right kind are considered: a
/// fully occupied node loses the task even if it holds the cache.
/// Map placement is DefaultScheduler's replica locality (the map task
/// list is FIFO, §4.3 Algorithm 2).
class CacheAwareScheduler : public DefaultScheduler {
 public:
  CacheAwareScheduler(const CostModel* cost_model,
                      CacheAwareSchedulerOptions options = {});

  NodeId SelectNodeForReduce(const ReducePlacementRequest& request,
                             const Cluster& cluster) override;

  /// Eq. 4's C_task,i for a reduce task on `node`: simulated seconds to
  /// read the task's cached inputs from where they live.
  double ReduceIoCost(const ReducePlacementRequest& request, NodeId node) const;

 private:
  const CostModel* cost_model_;
  CacheAwareSchedulerOptions options_;
};

/// Weighted fair-share bookkeeping for multi-tenant admission (DESIGN
/// §17). Each tenant accrues `service / weight` as it runs; among
/// admission candidates, the one with the least attained weighted service
/// goes first, so an overrunning query cannot starve lighter tenants.
/// Deterministic: ties break on (trigger time, registration index).
class FairShareLedger {
 public:
  /// `weight` must be positive; a tenant registered twice keeps its
  /// latest weight but its attained service.
  void RegisterTenant(QueryId id, double weight);

  /// Accrues `service_s` simulated seconds of service to `id`.
  void Charge(QueryId id, double service_s);

  /// Attained weighted service (sum of service / weight), 0 for unknown.
  double AttainedService(QueryId id) const;
  double Weight(QueryId id) const;

  struct Candidate {
    QueryId id = 0;
    Timestamp trigger = 0;
    size_t index = 0;  // registration order, the final tiebreak
  };

  /// Index (into `candidates`) of the tenant to admit next: least
  /// attained weighted service, ties by earlier trigger then lower index.
  size_t PickNext(const std::vector<Candidate>& candidates) const;

 private:
  struct Tenant {
    double weight = 1.0;
    double attained_s = 0.0;
  };
  std::map<QueryId, Tenant> tenants_;
};

}  // namespace redoop

#endif  // REDOOP_CORE_CACHE_AWARE_SCHEDULER_H_
