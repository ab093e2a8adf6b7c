#include "core/cache_store.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/event_journal.h"

namespace redoop {

void CacheStore::Lease::Release() {
  if (store_ == nullptr) return;
  store_->ReleasePin(name_, serial_);
  store_ = nullptr;
}

CacheStore::CacheStore(Options options) : options_(std::move(options)) {
  UpdateGauges(GaugeSnapshot{});
}

void CacheStore::Put(const CacheKey& key,
                     std::shared_ptr<const FlatKvBuffer> payload,
                     PaneStats stats, Use use) {
  REDOOP_CHECK(key.valid());
  REDOOP_CHECK(stats.bytes >= 0 && stats.records >= 0);
  REDOOP_CHECK(payload != nullptr);
  std::vector<EvictionNotice> notices;
  GaugeSnapshot after;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key.name());
    if (it != entries_.end()) EraseLocked(it);
    auto entry = std::make_unique<Entry>();
    entry->payload_ = std::move(payload);
    entry->bytes = stats.bytes;
    entry->records = stats.records;
    entry->serial_ = ++last_serial_;
    entry->use_ = use;
    total_bytes_ += stats.bytes;
    it = entries_.emplace(key.name(), std::move(entry)).first;
    RecencyList& order = recency_[static_cast<size_t>(use)];
    it->second->recency_ = order.insert(order.end(), it);
    peak_bytes_ = std::max(peak_bytes_, total_bytes_);
    EvictLocked(/*exclude=*/it->second.get(), &notices);
    after = SnapshotLocked();
  }
  PublishEvictions(notices, after);
}

const CacheStore::Entry* CacheStore::Find(const CacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key.name());
  if (it == entries_.end()) return nullptr;
  Entry& entry = *it->second;
  RecencyList& order = recency_[static_cast<size_t>(entry.use_)];
  order.splice(order.end(), order, entry.recency_);
  return &entry;
}

void CacheStore::Remove(const CacheKey& key) {
  GaugeSnapshot after;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key.name());
    if (it == entries_.end()) return;
    EraseLocked(it);
    after = SnapshotLocked();
  }
  UpdateGauges(after);
}

CacheStore::Lease CacheStore::Acquire(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key.name());
  if (it == entries_.end()) return Lease();
  if (it->second->pins_++ == 0) pinned_bytes_ += it->second->bytes;
  return Lease(this, key.name(), it->second->serial_);
}

void CacheStore::ReleasePin(const std::string& name, uint64_t serial) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  // A replaced or removed entry took its pins with it.
  if (it == entries_.end() || it->second->serial_ != serial) return;
  if (--it->second->pins_ == 0) pinned_bytes_ -= it->second->bytes;
}

void CacheStore::EnforceBudget() {
  std::vector<EvictionNotice> notices;
  GaugeSnapshot after;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EvictLocked(/*exclude=*/nullptr, &notices);
    after = SnapshotLocked();
  }
  PublishEvictions(notices, after);
}

size_t CacheStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t CacheStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

int64_t CacheStore::pinned_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_bytes_;
}

int64_t CacheStore::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_bytes_;
}

int64_t CacheStore::evicted_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_entries_;
}

int64_t CacheStore::evicted_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_bytes_;
}

void CacheStore::EvictLocked(const Entry* exclude,
                             std::vector<EvictionNotice>* notices) {
  if (options_.budget_bytes <= 0) return;
  // recency_ is in victim order: every unpinned recovery-only entry goes
  // before any window-read one, least recently used first within each.
  // The sweep stops at the entry being inserted (the most recent of its
  // class): it is not its own victim, and nothing ranked after it goes
  // for it, so a recovery-only Put never evicts a window-read entry. An
  // entry a scan skips stays pinned for the rest of the sweep, so each
  // list is walked once.
  const auto candidate = [exclude](EntryMap::iterator it) {
    return it->second.get() == exclude || it->second->pins_ == 0;
  };
  for (RecencyList& order : recency_) {
    auto next = order.begin();
    while (total_bytes_ > options_.budget_bytes) {
      next = std::find_if(next, order.end(), candidate);
      if (next == order.end()) break;  // Only pinned entries left here.
      if ((*next)->second.get() == exclude) return;
      const EntryMap::iterator it = *next++;
      EvictionNotice notice;
      notice.key = CacheKey::FromName(it->first);
      notice.bytes = it->second->bytes;
      notice.records = it->second->records;
      EraseLocked(it);
      ++evicted_entries_;
      evicted_bytes_ += notice.bytes;
      notices->push_back(std::move(notice));
    }
  }
}

void CacheStore::EraseLocked(EntryMap::iterator it) {
  total_bytes_ -= it->second->bytes;
  if (it->second->pins_ > 0) pinned_bytes_ -= it->second->bytes;
  const size_t use = static_cast<size_t>(it->second->use_);
  recency_[use].erase(it->second->recency_);
  entries_.erase(it);
}

CacheStore::GaugeSnapshot CacheStore::SnapshotLocked() const {
  GaugeSnapshot snapshot;
  snapshot.bytes = total_bytes_;
  snapshot.pinned_bytes = pinned_bytes_;
  snapshot.entries = entries_.size();
  return snapshot;
}

void CacheStore::PublishEvictions(const std::vector<EvictionNotice>& notices,
                                  const GaugeSnapshot& after) {
  const obs::TelemetryScope& scope = options_.telemetry;
  for (const EvictionNotice& notice : notices) {
    if (scope.active()) {
      scope.Increment(obs::metric::kCacheEvictedEntries);
      scope.Increment(obs::metric::kCacheEvictedBytes, notice.bytes);
      scope.Emit(obs::event::kCachePaneEvict)
          .With("name", notice.key.name())
          .With("bytes", notice.bytes)
          .With("records", notice.records)
          .With("reason", "budget");
    }
    if (options_.on_evict) options_.on_evict(notice);
  }
  UpdateGauges(after);
}

void CacheStore::UpdateGauges(const GaugeSnapshot& snapshot) {
  const obs::TelemetryScope& scope = options_.telemetry;
  if (!scope.active()) return;
  scope.SetGauge(obs::metric::kCacheStoreBytes,
                 static_cast<double>(snapshot.bytes));
  scope.SetGauge(obs::metric::kCacheStorePinnedBytes,
                 static_cast<double>(snapshot.pinned_bytes));
  scope.SetGauge(obs::metric::kCacheStoreEntries,
                 static_cast<double>(snapshot.entries));
}

}  // namespace redoop
