#include "core/local_cache_registry.h"

#include "common/logging.h"

namespace redoop {

LocalCacheRegistry::LocalCacheRegistry(NodeId node, SimDuration purge_cycle)
    : node_(node), purge_cycle_(purge_cycle) {
  REDOOP_CHECK(purge_cycle_ >= 0.0);
}

void LocalCacheRegistry::AddEntry(const CacheKey& key, CacheType type,
                                  int64_t bytes) {
  REDOOP_CHECK(key.valid());
  REDOOP_CHECK(type != CacheType::kNone);
  REDOOP_CHECK(bytes >= 0);
  LocalCacheEntry entry;
  entry.name = key.name();
  entry.type = type;
  entry.expired = false;
  entry.bytes = bytes;
  entries_[key.name()] = std::move(entry);
}

bool LocalCacheRegistry::MarkExpired(const CacheKey& key) {
  auto it = entries_.find(key.name());
  if (it == entries_.end()) return false;
  it->second.expired = true;
  return true;
}

void LocalCacheRegistry::Remove(const CacheKey& key) {
  entries_.erase(key.name());
}

bool LocalCacheRegistry::Has(const CacheKey& key) const {
  return entries_.count(key.name()) > 0;
}

const LocalCacheEntry* LocalCacheRegistry::Find(const CacheKey& key) const {
  auto it = entries_.find(key.name());
  return it == entries_.end() ? nullptr : &it->second;
}

int64_t LocalCacheRegistry::expired_count() const {
  int64_t count = 0;
  for (const auto& [name, entry] : entries_) {
    (void)name;
    if (entry.expired) ++count;
  }
  return count;
}

int64_t LocalCacheRegistry::PurgeMatching(TaskNode* node,
                                          int64_t stop_after_bytes,
                                          const char* reason) {
  int64_t freed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (stop_after_bytes >= 0 && freed >= stop_after_bytes) break;
    if (it->second.expired) {
      const int64_t bytes = node->DeleteLocalFile(it->first);
      freed += bytes;
      if (scope_.active()) {
        scope_.Emit(obs::event::kCachePurge)
            .With("name", it->first)
            .With("node", node_)
            .With("bytes", bytes)
            .With("reason", reason);
      }
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return freed;
}

int64_t LocalCacheRegistry::PurgeExpired(TaskNode* node) {
  REDOOP_CHECK(node != nullptr);
  REDOOP_CHECK(node->id() == node_);
  return PurgeMatching(node, /*stop_after_bytes=*/-1, "periodic");
}

int64_t LocalCacheRegistry::MaybePeriodicPurge(TaskNode* node, SimTime now) {
  if (now - last_purge_ < purge_cycle_) return 0;
  last_purge_ = now;
  return PurgeExpired(node);
}

int64_t LocalCacheRegistry::OnDemandPurge(TaskNode* node,
                                          int64_t needed_bytes) {
  REDOOP_CHECK(node != nullptr);
  return PurgeMatching(node, needed_bytes, "on_demand");
}

std::vector<LocalCacheEntry> LocalCacheRegistry::Entries() const {
  std::vector<LocalCacheEntry> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)name;
    out.push_back(entry);
  }
  return out;
}

}  // namespace redoop
