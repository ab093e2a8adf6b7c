#ifndef REDOOP_CORE_LOCAL_CACHE_REGISTRY_H_
#define REDOOP_CORE_LOCAL_CACHE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "core/cache_key.h"
#include "core/cache_types.h"
#include "obs/telemetry_scope.h"

namespace redoop {

/// One row of the local cache registry (paper §4.1, Table 1): which pane is
/// cached, as what, and whether the master has declared it expired.
struct LocalCacheEntry {
  std::string name;  // Cache file name (pid in the paper).
  CacheType type = CacheType::kNone;
  bool expired = false;
  int64_t bytes = 0;
};

/// The per-task-node cache metadata structure (paper §4.1). New caches are
/// appended unexpired; the window-aware cache controller later sends purge
/// notifications that flip the expiration flag; physical deletion happens
/// lazily via periodic purging (every PurgeCycle) or on-demand purging when
/// the local disk runs short.
class LocalCacheRegistry {
 public:
  LocalCacheRegistry(NodeId node, SimDuration purge_cycle);

  NodeId node() const { return node_; }
  SimDuration purge_cycle() const { return purge_cycle_; }

  /// Appends a new (unexpired) entry. Overwrites a stale same-name entry.
  /// Taking a CacheKey (not a raw name) means a malformed pane name fails
  /// at key construction, never as a silently unfindable registry row.
  void AddEntry(const CacheKey& key, CacheType type, int64_t bytes);

  /// Purge notification from the controller. Returns false when the entry
  /// is unknown (e.g. already dropped by a failure).
  bool MarkExpired(const CacheKey& key);

  /// Drops metadata for a cache that vanished (node-local file loss).
  void Remove(const CacheKey& key);

  bool Has(const CacheKey& key) const;
  const LocalCacheEntry* Find(const CacheKey& key) const;
  size_t size() const { return entries_.size(); }
  int64_t expired_count() const;

  /// Deletes every expired cache from `node`'s local FS now. Returns bytes
  /// freed. (The "scan during this scan" of periodic purging.)
  int64_t PurgeExpired(TaskNode* node);

  /// Periodic purging: runs PurgeExpired only when a full PurgeCycle has
  /// elapsed since the previous scan.
  int64_t MaybePeriodicPurge(TaskNode* node, SimTime now);

  /// On-demand (emergency) purging: frees expired caches until at least
  /// `needed_bytes` are reclaimed or none remain. Returns bytes freed.
  int64_t OnDemandPurge(TaskNode* node, int64_t needed_bytes);

  std::vector<LocalCacheEntry> Entries() const;

  /// Journals physical deletions as cache.purge events carrying this
  /// registry's node, so the purged-bytes metric folded from them is
  /// attributable per query AND per node.
  void set_telemetry(obs::TelemetryScope scope) {
    scope_ = std::move(scope);
  }

 private:
  int64_t PurgeMatching(TaskNode* node, int64_t stop_after_bytes,
                        const char* reason);

  NodeId node_;
  SimDuration purge_cycle_;
  SimTime last_purge_ = 0.0;
  std::map<std::string, LocalCacheEntry> entries_;
  obs::TelemetryScope scope_;
};

}  // namespace redoop

#endif  // REDOOP_CORE_LOCAL_CACHE_REGISTRY_H_
