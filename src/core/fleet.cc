#include "core/fleet.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/event_journal.h"
#include "obs/observability.h"

namespace redoop {

std::vector<RecordBatch> SharedScanFeed::BatchesFor(SourceId source,
                                                    Timestamp begin,
                                                    Timestamp end,
                                                    ScanDelta* delta) {
  std::vector<RecordBatch> out;
  if (begin >= end) return out;
  ScanDelta local;
  auto& per_source = cache_[source];
  Timestamp t = begin;
  while (t < end) {
    auto it = per_source.find(t);
    if (it != per_source.end()) {
      // Consumers are on the shared pane grid, itself a multiple of the
      // feed's batch interval, so a request boundary never splits a batch.
      REDOOP_CHECK(it->second.end <= end)
          << "shared scan request end " << end << " splits cached batch ["
          << it->second.start << ", " << it->second.end << ")";
      ++local.hits;
      local.bytes_served += it->second.logical_bytes();
      out.push_back(it->second);
      t = it->second.end;
      continue;
    }
    // Miss: fetch from the inner feed up to the next cached batch (or the
    // request end), so one straggling consumer never re-reads what a
    // faster one already materialized.
    Timestamp bound = end;
    auto next = per_source.lower_bound(t + 1);
    if (next != per_source.end() && next->first < end) bound = next->first;
    std::vector<RecordBatch> fetched = inner_->BatchesFor(source, t, bound);
    REDOOP_CHECK(!fetched.empty())
        << "inner feed returned nothing for [" << t << ", " << bound << ")";
    for (RecordBatch& batch : fetched) {
      REDOOP_CHECK(batch.start == t) << "inner feed gap at " << t;
      ++local.misses;
      int64_t bytes = batch.logical_bytes();
      local.bytes_scanned += bytes;
      local.bytes_served += bytes;
      resident_bytes_ += bytes;
      t = batch.end;
      out.push_back(batch);
      per_source.emplace(batch.start, std::move(batch));
    }
    REDOOP_CHECK(t == bound) << "inner feed stopped short of " << bound;
  }
  if (stats_ != nullptr) {
    ++stats_->scan_requests;
    stats_->scan_hits += local.hits;
    stats_->scan_misses += local.misses;
    stats_->scan_bytes_served += local.bytes_served;
    stats_->scan_bytes_scanned += local.bytes_scanned;
  }
  if (delta != nullptr) {
    delta->hits += local.hits;
    delta->misses += local.misses;
    delta->bytes_served += local.bytes_served;
    delta->bytes_scanned += local.bytes_scanned;
  }
  return out;
}

void SharedScanFeed::ReleaseBelow(Timestamp time_floor) {
  for (auto& [source, per_source] : cache_) {
    auto it = per_source.begin();
    while (it != per_source.end() && it->second.end <= time_floor) {
      resident_bytes_ -= it->second.logical_bytes();
      it = per_source.erase(it);
    }
  }
}

size_t SharedScanFeed::resident_batches() const {
  size_t n = 0;
  for (const auto& [source, per_source] : cache_) n += per_source.size();
  return n;
}

std::vector<RecordBatch> SharedScanView::BatchesFor(SourceId source,
                                                    Timestamp begin,
                                                    Timestamp end) {
  SharedScanFeed::ScanDelta delta;
  std::vector<RecordBatch> out = shared_->BatchesFor(source, begin, end, &delta);
  if (scope_.active() && (delta.hits > 0 || delta.misses > 0)) {
    scope_.Increment(obs::metric::kFleetScanRequests);
    scope_.Increment(obs::metric::kFleetScanHits, delta.hits);
    scope_.Increment(obs::metric::kFleetScanMisses, delta.misses);
    scope_.Increment(obs::metric::kFleetScanBytesServed, delta.bytes_served);
    scope_.Increment(obs::metric::kFleetScanBytesScanned, delta.bytes_scanned);
    scope_.Emit(obs::event::kFleetScan)
        .With("source", static_cast<int64_t>(source))
        .With("begin", static_cast<int64_t>(begin))
        .With("end", static_cast<int64_t>(end))
        .With("hits", delta.hits)
        .With("misses", delta.misses)
        .With("bytes", delta.bytes_served)
        .With("scanned_bytes", delta.bytes_scanned);
  }
  return out;
}

const std::vector<CacheImage>* DedupIndex::Find(const std::string& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() ? &it->second.images : nullptr;
}

void DedupIndex::Publish(const std::string& key, SourceId source, PaneId pane,
                         Timestamp pane_size, QueryId owner,
                         std::vector<CacheImage> images) {
  REDOOP_CHECK(entries_.find(key) == entries_.end())
      << "dedup image for " << key << " published twice";
  Entry entry;
  entry.source = source;
  entry.pane = pane;
  entry.pane_end = (pane + 1) * pane_size;
  entry.images = std::move(images);
  entry.holders.push_back(owner);
  for (const CacheImage& image : entry.images) entry.bytes += image.bytes;
  resident_bytes_ += entry.bytes;
  entries_.emplace(key, std::move(entry));
}

void DedupIndex::AddHolder(const std::string& key, QueryId holder) {
  auto it = entries_.find(key);
  REDOOP_CHECK(it != entries_.end()) << "AddHolder on unknown key " << key;
  auto& holders = it->second.holders;
  if (std::find(holders.begin(), holders.end(), holder) == holders.end()) {
    holders.push_back(holder);
  }
}

std::vector<QueryId> DedupIndex::OnEviction(const std::string& key,
                                            QueryId evicted) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  std::vector<QueryId> others;
  for (QueryId holder : it->second.holders) {
    if (holder != evicted) others.push_back(holder);
  }
  resident_bytes_ -= it->second.bytes;
  entries_.erase(it);
  return others;
}

void DedupIndex::RetireBelow(Timestamp time_floor) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.pane_end <= time_floor) {
      resident_bytes_ -= it->second.bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void FleetContext::FanoutEviction(const std::string& content_key,
                                  const CacheKey& image, QueryId origin) {
  std::vector<QueryId> others = dedup_.OnEviction(content_key, origin);
  for (QueryId holder : others) {
    auto it = fanouts_.find(holder);
    if (it == fanouts_.end()) continue;
    ++stats_.dedup_evict_fanout;
    it->second(image);
  }
}

}  // namespace redoop
