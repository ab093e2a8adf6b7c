#ifndef REDOOP_CORE_FLEET_H_
#define REDOOP_CORE_FLEET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "core/batch_feed.h"
#include "core/cache_key.h"
#include "dfs/record.h"
#include "obs/telemetry_scope.h"

namespace redoop {

class FlatKvBuffer;

/// Fleet-serving features of the MultiQueryCoordinator (DESIGN §17). All
/// default to off, which reproduces the legacy private-tenant coordinator
/// exactly: every feature is a pure optimization whose per-query window
/// outputs are byte-identical to the unshared path.
struct FleetOptions {
  /// Read + parse each source batch once per coordinator and fan it out
  /// to every consuming query, instead of once per query.
  bool shared_scans = false;
  /// Queries with identical upstream pipelines (same pipeline_signature,
  /// source, and pane grid) share one physical cached pane image.
  bool cache_dedup = false;
  /// Weighted fair-share admission: among queries whose triggers fall
  /// within `fair_horizon_s` of the earliest pending trigger, admit the
  /// one with the least attained weighted service first.
  bool fair_share = false;
  /// Reordering horizon for fair_share; 0 keeps strict trigger order.
  Timestamp fair_horizon_s = 0;

  bool AnyEnabled() const { return shared_scans || cache_dedup || fair_share; }
};

/// Fleet-wide counters, accumulated on the coordinator thread (drivers run
/// serially in trigger order, so no synchronization is needed).
struct FleetStats {
  // Admission.
  int64_t admitted = 0;
  int64_t queue_peak = 0;
  double admission_wait_s = 0;
  // Shared scans. `bytes_served` is what consumers received; `bytes_scanned`
  // is what actually hit the underlying feed. Their ratio is the fan-out.
  int64_t scan_requests = 0;
  int64_t scan_hits = 0;
  int64_t scan_misses = 0;
  int64_t scan_bytes_served = 0;
  int64_t scan_bytes_scanned = 0;
  // Cross-query cache dedup.
  int64_t dedup_published = 0;
  int64_t dedup_adoptions = 0;
  int64_t dedup_bytes = 0;  // cache bytes adopted instead of recomputed
  int64_t dedup_evict_fanout = 0;
};

/// A BatchFeed decorator that materializes each underlying batch at most
/// once and serves every consumer from the in-memory image. Correct for
/// feeds that are pure functions of (source, range) — SyntheticFeed's
/// contract — and for consumers whose ranges align to the feed's batch
/// grid, which the coordinator guarantees by aligning every query to the
/// shared pane grid (itself a multiple of the batch interval).
///
/// Single-threaded by design: the coordinator runs drivers serially, so
/// ingest (the only caller) never races. Task-level parallelism below the
/// driver never touches the feed.
class SharedScanFeed : public BatchFeed {
 public:
  /// Per-call accounting, so per-query views can attribute their share.
  struct ScanDelta {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t bytes_served = 0;
    int64_t bytes_scanned = 0;
  };

  /// `inner` must outlive this feed. `stats` (optional) receives the
  /// fleet-wide scan counters.
  SharedScanFeed(BatchFeed* inner, FleetStats* stats)
      : inner_(inner), stats_(stats) {}

  std::vector<RecordBatch> BatchesFor(SourceId source, Timestamp begin,
                                      Timestamp end) override {
    return BatchesFor(source, begin, end, nullptr);
  }

  /// As BatchesFor, additionally reporting this call's hit/miss split.
  std::vector<RecordBatch> BatchesFor(SourceId source, Timestamp begin,
                                      Timestamp end, ScanDelta* delta);

  bool HasSource(SourceId source) const override {
    return inner_->HasSource(source);
  }

  /// Drops cached batches wholly below `time_floor` (end <= floor). The
  /// coordinator calls this with the minimum window-begin over all
  /// unfinished queries, so resident bytes track the active window span.
  void ReleaseBelow(Timestamp time_floor);

  int64_t resident_bytes() const { return resident_bytes_; }
  size_t resident_batches() const;

 private:
  BatchFeed* inner_;
  FleetStats* stats_;
  /// Per source: batch start -> materialized batch (non-overlapping).
  std::map<SourceId, std::map<Timestamp, RecordBatch>> cache_;
  int64_t resident_bytes_ = 0;
};

/// The per-query handle on a SharedScanFeed: delegates reads and emits
/// that query's share of scan hits/misses through its TelemetryScope (set
/// by the coordinator after drivers are built, so events inherit window
/// attribution). One view per driver, like SharedFeedView.
class SharedScanView : public BatchFeed {
 public:
  explicit SharedScanView(SharedScanFeed* shared) : shared_(shared) {}

  void set_telemetry(obs::TelemetryScope scope) { scope_ = std::move(scope); }

  std::vector<RecordBatch> BatchesFor(SourceId source, Timestamp begin,
                                      Timestamp end) override;

  bool HasSource(SourceId source) const override {
    return shared_->HasSource(source);
  }

 private:
  SharedScanFeed* shared_;
  obs::TelemetryScope scope_;
};

/// One physical cached pane image, published by the first query to build
/// the pane and adopted (payload shared, not copied) by every later query
/// with the same content key.
struct CacheImage {
  bool is_reduce_output = false;
  int32_t partition = 0;
  NodeId node = kInvalidNode;
  int64_t bytes = 0;
  int64_t records = 0;
  std::shared_ptr<const FlatKvBuffer> payload;
};

/// Content-addressed index of shared pane images. Keys come from
/// CacheKey::ContentKey: pipeline signature + execution pattern + source +
/// pane size + pane, so two queries collide only when their cached bytes
/// are provably identical.
class DedupIndex {
 public:
  /// Images for `key`, or nullptr. A hit means a prior query built this
  /// exact pane; the caller adopts the images and registers as a holder.
  const std::vector<CacheImage>* Find(const std::string& key) const;

  void Publish(const std::string& key, SourceId source, PaneId pane,
               Timestamp pane_size, QueryId owner,
               std::vector<CacheImage> images);
  void AddHolder(const std::string& key, QueryId holder);

  /// A holder's budget evicted one of this pane's images: that physical
  /// image is gone, so the entry is dropped (the pane stops being shared)
  /// and every *other* holder is returned for rollback fan-out.
  /// Idempotent (second call finds nothing).
  std::vector<QueryId> OnEviction(const std::string& key, QueryId evicted);

  /// Drops entries whose pane lies wholly below `time_floor`.
  void RetireBelow(Timestamp time_floor);

  size_t size() const { return entries_.size(); }
  int64_t resident_bytes() const { return resident_bytes_; }

 private:
  struct Entry {
    SourceId source = 0;
    PaneId pane = 0;
    Timestamp pane_end = 0;
    std::vector<CacheImage> images;
    std::vector<QueryId> holders;
    int64_t bytes = 0;
  };
  std::map<std::string, Entry> entries_;
  int64_t resident_bytes_ = 0;
};

/// Shared state the coordinator threads through every driver it builds.
/// Owned by the coordinator; drivers hold a pointer and consult it on the
/// coordinator thread only.
class FleetContext {
 public:
  explicit FleetContext(FleetOptions options) : options_(options) {}

  FleetContext(const FleetContext&) = delete;
  FleetContext& operator=(const FleetContext&) = delete;

  const FleetOptions& options() const { return options_; }
  FleetStats& stats() { return stats_; }
  const FleetStats& stats() const { return stats_; }
  DedupIndex& dedup() { return dedup_; }

  /// Rollback hook: called on every *other* holder of a shared pane when
  /// one holder's budget evicts one of its images (`EvictFleetPane`). The
  /// key is the evicting holder's: its kind, source, pane and partition
  /// name the image.
  using EvictFanout = std::function<void(const CacheKey& image)>;
  void RegisterQuery(QueryId id, EvictFanout fanout) {
    fanouts_[id] = std::move(fanout);
  }

  /// Drops the dedup entry for `content_key` and invokes the rollback
  /// hook of every holder except `origin` (whose own store already
  /// evicted `image`). Serial with driver execution, so no re-entrancy:
  /// hooks remove store entries with CacheStore::Remove, which never
  /// calls back into eviction.
  void FanoutEviction(const std::string& content_key, const CacheKey& image,
                      QueryId origin);

 private:
  FleetOptions options_;
  FleetStats stats_;
  DedupIndex dedup_;
  std::map<QueryId, EvictFanout> fanouts_;
};

}  // namespace redoop

#endif  // REDOOP_CORE_FLEET_H_
