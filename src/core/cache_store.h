#ifndef REDOOP_CORE_CACHE_STORE_H_
#define REDOOP_CORE_CACHE_STORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "core/cache_key.h"
#include "mapreduce/kv_arena.h"
#include "obs/telemetry_scope.h"

namespace redoop {

/// The contents of cached files, now under a configurable byte budget. In
/// the real system every task node keeps cache payloads on its local disk;
/// in the simulation the bytes live here (keyed by CacheKey) while
/// placement and I/O costs are tracked on the TaskNode / cache-controller
/// side. An entry leaves the store three ways: explicit Remove (loss,
/// purge), replacement by a fresh Put, or *eviction* when the budget is
/// exceeded, and the on_evict callback lets the driver roll back
/// controller state so the pane flips to recompute.
///
/// Victim order: every entry carries the Use its Put's caller gave it.
/// The least recently used unpinned recovery-only entry goes first; a
/// window-read entry goes only when no unpinned recovery-only entry is
/// left, again least recently used first. With every entry in one class
/// this is plain LRU. A Put's sweep stops at the entry being inserted,
/// the most recent of its class: it is not its own victim, and nothing
/// ranked after it goes for it, so a recovery-only Put never evicts a
/// window-read entry.
///
/// Recency: Put (a replacement included) and Find (so also Has) make an
/// entry the most recently used of its class.
///
/// Budgeting is on logical (simulated) bytes, the size the simulation
/// charges for the pane's cache file.
///
/// Pinning: Acquire() returns a Lease that exempts an entry from eviction
/// while any lease on it is live. The driver pins the window-read entries
/// the current recurrence reads or registers, so the store may transiently
/// exceed the budget while pinned bytes demand it; EnforceBudget() trims
/// back once leases are released. The capacity invariant is therefore:
/// after any Put/EnforceBudget, total_bytes() <= budget unless pinned
/// entries force the excess, or a Put's own entry does (with, for a
/// recovery-only Put, the window-read entries it may not evict) until the
/// next Put or EnforceBudget.
///
/// All mutations and reads take the store mutex, the recency order
/// included. Victim order depends only on the operation sequence, which
/// the driver issues in deterministic simulated-time order, so evictions
/// are byte-identical at any --threads setting.
class CacheStore {
 public:
  class Entry;

 private:
  using EntryMap = std::map<std::string, std::unique_ptr<Entry>>;
  /// Entries of one Use from least to most recently used.
  using RecencyList = std::list<EntryMap::iterator>;

 public:
  /// What the driver's windows do with an entry; fixes its eviction class.
  enum class Use : uint8_t {
    /// Read only to recompute a lost window-read entry (a per-pane-merge
    /// pane's reduce-input caches). Evicted before any window-read entry.
    kRecoveryOnly = 0,
    /// Read when a window assembles.
    kWindowRead = 1,
  };

  class Entry {
   public:
    /// The pane's pairs: the very buffer the materializing job handed to
    /// Put(), shared (never deep-copied) with its result and with every
    /// side input that references this cache — the ReStore lesson: result
    /// reuse only pays when the cached representation itself is cheap.
    ///
    /// Publish-once: a payload handed out is never mutated in place; a
    /// rebuild Put()s a fresh entry and old shared_ptrs stay valid. The
    /// parallel engine relies on this — an offloaded reduce closure keeps
    /// merging its captured reference even if the entry is replaced,
    /// removed, or evicted at the same virtual instant. Pinning exists for
    /// *planning* correctness (an entry the recurrence still reads must
    /// stay resident), not for memory safety.
    const std::shared_ptr<const FlatKvBuffer>& payload() const {
      return payload_;
    }

    /// Logical (simulated) size — what capacity math, the byte budget, and
    /// hit accounting have always charged.
    int64_t bytes = 0;
    int64_t records = 0;

   private:
    friend class CacheStore;
    std::shared_ptr<const FlatKvBuffer> payload_;
    int64_t pins_ = 0;  // Live leases; > 0 exempts from eviction.
    Use use_ = Use::kWindowRead;
    /// Which Put created this entry, so a lease taken on an entry that
    /// has since been replaced unpins nothing.
    uint64_t serial_ = 0;
    /// This entry's place in the recency list of its Use.
    RecencyList::iterator recency_;
  };

  /// Size accounting a materializing job reports alongside its payload.
  struct PaneStats {
    int64_t bytes = 0;
    int64_t records = 0;
  };

  /// What a budget eviction removed; handed to Options::on_evict (outside
  /// the store mutex) so the driver can roll back planner state.
  struct EvictionNotice {
    CacheKey key;
    int64_t bytes = 0;
    int64_t records = 0;
  };
  using EvictionCallback = std::function<void(const EvictionNotice&)>;

  /// Construction-time configuration, mirroring the RedoopDriverOptions
  /// idiom: everything that used to be a mutable setter is fixed here.
  struct Options {
    /// Logical-byte budget; 0 = unbounded (never evicts).
    int64_t budget_bytes = 0;
    /// Emits a cache.pane.evict event per budget eviction.
    obs::TelemetryScope telemetry;
    /// Invoked once per evicted entry, after the entry is gone and the
    /// mutex is released. Must not call back into this store.
    EvictionCallback on_evict;
  };

  /// RAII pin: while live, the entry it was acquired on is exempt from
  /// budget eviction. Once that entry is replaced or removed the lease
  /// pins nothing, and releasing it changes nothing. Releasing does not
  /// itself evict — the owner calls EnforceBudget() when a batch of leases
  /// retires (end of recurrence).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : store_(other.store_),
          name_(std::move(other.name_)),
          serial_(other.serial_) {
      other.store_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        store_ = other.store_;
        name_ = std::move(other.name_);
        serial_ = other.serial_;
        other.store_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    bool active() const { return store_ != nullptr; }
    void Release();

   private:
    friend class CacheStore;
    Lease(CacheStore* store, std::string name, uint64_t serial)
        : store_(store), name_(std::move(name)), serial_(serial) {}
    CacheStore* store_ = nullptr;
    std::string name_;
    uint64_t serial_ = 0;  // Entry::serial_ of the pinned entry.
  };

  CacheStore() : CacheStore(Options()) {}
  explicit CacheStore(Options options);
  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  /// Stores (or replaces) a payload as the most recently used entry of
  /// class `use`, then — when a budget is set — evicts unpinned entries in
  /// victim order until the budget holds again or the sweep reaches the
  /// entry being inserted. Pin the entry to protect it past the next Put.
  void Put(const CacheKey& key, std::shared_ptr<const FlatKvBuffer> payload,
           PaneStats stats, Use use = Use::kWindowRead);

  /// Returns nullptr when absent. The pointer stays valid until the entry
  /// is removed, replaced, or evicted; pin the entry to extend that. A hit
  /// makes the entry the most recently used.
  const Entry* Find(const CacheKey& key) const;
  bool Has(const CacheKey& key) const { return Find(key) != nullptr; }

  /// Explicit removal (cache loss, purge). Ignores pins — the planner
  /// layers that call this already know the entry is gone.
  void Remove(const CacheKey& key);

  /// Pins the entry; returns an inactive lease when the key is absent.
  Lease Acquire(const CacheKey& key);

  /// Evicts in victim order until the budget holds or only pinned entries
  /// remain. Call after releasing a batch of leases.
  void EnforceBudget();

  size_t size() const;
  int64_t total_bytes() const;
  /// Bytes of entries currently holding at least one lease.
  int64_t pinned_bytes() const;
  /// High-water mark of total_bytes() over the store's lifetime — the
  /// working-set measure the bench sweep derives budgets from.
  int64_t peak_bytes() const;
  int64_t evicted_entries() const;
  int64_t evicted_bytes() const;

  int64_t budget_bytes() const { return options_.budget_bytes; }

 private:
  /// Evicts until the budget holds; lock held. `exclude` (may be null)
  /// is never picked. Removed entries are appended to `notices`.
  void EvictLocked(const Entry* exclude,
                   std::vector<EvictionNotice>* notices);
  /// Drops one entry from the map, its recency list and the totals; lock
  /// held.
  void EraseLocked(EntryMap::iterator it);
  void ReleasePin(const std::string& name, uint64_t serial);
  void PublishEvictions(const std::vector<EvictionNotice>& notices);

  const Options options_;
  mutable std::mutex mu_;
  EntryMap entries_;
  /// One recency list per Use, indexed by its value, so in victim order.
  /// Find() is const but still makes its hit the most recently used.
  mutable std::array<RecencyList, 2> recency_;
  uint64_t last_serial_ = 0;
  int64_t total_bytes_ = 0;
  int64_t pinned_bytes_ = 0;
  int64_t peak_bytes_ = 0;
  int64_t evicted_entries_ = 0;
  int64_t evicted_bytes_ = 0;
};

}  // namespace redoop

#endif  // REDOOP_CORE_CACHE_STORE_H_
