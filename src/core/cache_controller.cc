#include "core/cache_controller.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace redoop {

int32_t WindowAwareCacheController::RegisterQuery(const RecurringQuery& query,
                                                  Timestamp pane_size) {
  query.CheckValid();
  REDOOP_CHECK(queries_.count(query.id) == 0)
      << "query " << query.id << " already registered";
  auto state = std::make_unique<QueryState>();
  state->query = query;
  state->mask_bit = static_cast<int32_t>(queries_.size());
  state->pane_size = pane_size;
  state->geometry =
      std::make_unique<WindowGeometry>(query.window(), pane_size);
  if (query.pattern == IncrementalPattern::kPanePairJoin) {
    state->matrix = std::make_unique<CacheStatusMatrix>(*state->geometry);
  }
  const int32_t bit = state->mask_bit;
  queries_[query.id] = std::move(state);
  return bit;
}

WindowAwareCacheController::QueryState* WindowAwareCacheController::FindQuery(
    QueryId id) {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : it->second.get();
}

const WindowAwareCacheController::QueryState*
WindowAwareCacheController::FindQuery(QueryId id) const {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Pane lifecycle
// ---------------------------------------------------------------------------

void WindowAwareCacheController::OnPaneInHdfs(
    QueryId query, SourceId source, PaneId pane,
    const std::vector<std::string>& files) {
  QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr) << "unregistered query " << query;
  PaneState& state = q->panes[{source, pane}];
  for (const std::string& f : files) {
    if (std::find(state.files.begin(), state.files.end(), f) ==
        state.files.end()) {
      state.files.push_back(f);
    }
  }
  if (state.ready == CacheReady::kNotAvailable) {
    state.ready = CacheReady::kHdfsAvailable;
    if (scope_.active()) {
      scope_.Emit(obs::event::kPaneReady)
          .With("query_id", query)
          .With("source", source)
          .With("pane", pane)
          .With("ready", static_cast<int32_t>(CacheReady::kHdfsAvailable));
    }
  }
  if (!state.in_map_list && state.ready == CacheReady::kHdfsAvailable) {
    state.in_map_list = true;
    map_task_list_.push_back(PaneWorkItem{query, source, pane, state.files,
                                          /*rebuild=*/false});
  } else if (state.in_map_list) {
    // Refresh the queued item's file list (more sub-panes arrived).
    for (PaneWorkItem& item : map_task_list_) {
      if (item.query == query && item.source == source && item.pane == pane) {
        item.files = state.files;
      }
    }
  }
}

void WindowAwareCacheController::OnPaneCached(QueryId query, SourceId source,
                                              PaneId pane) {
  QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  PaneState& state = q->panes[{source, pane}];
  state.ready = CacheReady::kCacheAvailable;
  state.in_map_list = false;
  if (scope_.active()) {
    scope_.Emit(obs::event::kPaneReady)
        .With("query_id", query)
        .With("source", source)
        .With("pane", pane)
        .With("ready", static_cast<int32_t>(CacheReady::kCacheAvailable));
  }
  if (q->matrix != nullptr) EnqueueReadyPairs(q, source, pane);
}

CacheReady WindowAwareCacheController::PaneReady(QueryId query,
                                                 SourceId source,
                                                 PaneId pane) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  auto it = q->panes.find({source, pane});
  return it == q->panes.end() ? CacheReady::kNotAvailable : it->second.ready;
}

std::vector<std::string> WindowAwareCacheController::PaneFiles(
    QueryId query, SourceId source, PaneId pane) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  auto it = q->panes.find({source, pane});
  return it == q->panes.end() ? std::vector<std::string>() : it->second.files;
}

// ---------------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------------

void WindowAwareCacheController::AddSignature(CacheSignature signature,
                                              QueryId owner) {
  QueryState* q = FindQuery(owner);
  REDOOP_CHECK(q != nullptr);
  // doneQueryMask: one bit per registered query; queries that never touch
  // this cache start at 1 (paper §4.2), so only the owner's bit gates
  // expiration.
  signature.done_query_mask.assign(queries_.size(), true);
  signature.done_query_mask[static_cast<size_t>(q->mask_bit)] = false;

  // Index by pane (or pane pair), avoiding duplicate index entries when a
  // cache is re-registered after loss + rebuild.
  const std::string name = signature.name;
  if (signature.pane_right != kInvalidPane) {
    const std::pair<PaneId, PaneId> key{signature.pane, signature.pane_right};
    auto [begin, end] = q->caches_by_pair.equal_range(key);
    const bool indexed =
        std::any_of(begin, end, [&](const auto& e) { return e.second == name; });
    if (!indexed) q->caches_by_pair.insert({key, name});
  } else {
    const std::pair<SourceId, PaneId> key{signature.source, signature.pane};
    auto [begin, end] = q->caches_by_pane.equal_range(key);
    const bool indexed =
        std::any_of(begin, end, [&](const auto& e) { return e.second == name; });
    if (!indexed) q->caches_by_pane.insert({key, name});
  }
  if (scope_.active()) {
    scope_.Emit(obs::event::kCacheAdd)
        .With("name", name)
        .With("node", signature.node)
        .With("kind", CacheTypeName(signature.type))
        .With("source", signature.source)
        .With("pane", signature.pane)
        .With("pane_right", signature.pane_right)
        .With("partition", signature.partition)
        .With("bytes", signature.bytes)
        .With("records", signature.records);
  }
  signatures_[name] = std::move(signature);
}

const CacheSignature* WindowAwareCacheController::Find(
    const std::string& name) const {
  auto it = signatures_.find(name);
  return it == signatures_.end() ? nullptr : &it->second;
}

std::vector<const CacheSignature*> WindowAwareCacheController::CachesForPane(
    QueryId query, SourceId source, PaneId pane, CacheType type) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  std::vector<const CacheSignature*> out;
  auto [begin, end] = q->caches_by_pane.equal_range({source, pane});
  for (auto it = begin; it != end; ++it) {
    const CacheSignature* sig = Find(it->second);
    if (sig != nullptr && sig->type == type) out.push_back(sig);
  }
  std::sort(out.begin(), out.end(),
            [](const CacheSignature* a, const CacheSignature* b) {
              return a->partition < b->partition;
            });
  return out;
}

// ---------------------------------------------------------------------------
// Join bookkeeping
// ---------------------------------------------------------------------------

void WindowAwareCacheController::MarkPanePairDone(QueryId query, PaneId left,
                                                  PaneId right) {
  QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr && q->matrix != nullptr);
  q->matrix->MarkDone(left, right);
  if (scope_.active()) {
    scope_.Emit(obs::event::kMatrixDone)
        .With("query_id", query)
        .With("left", left)
        .With("right", right);
  }
}

bool WindowAwareCacheController::IsPanePairDone(QueryId query, PaneId left,
                                                PaneId right) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr && q->matrix != nullptr);
  return q->matrix->IsDone(left, right);
}

const CacheStatusMatrix* WindowAwareCacheController::matrix(
    QueryId query) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  return q->matrix.get();
}

void WindowAwareCacheController::EnqueueReadyPairs(QueryState* q,
                                                   SourceId source,
                                                   PaneId pane) {
  REDOOP_CHECK(q->query.sources.size() == 2);
  const SourceId left_source = q->query.sources[0].id;
  const SourceId right_source = q->query.sources[1].id;
  const bool is_left = source == left_source;
  const SourceId partner_source = is_left ? right_source : left_source;

  // Pair `pane` with every partner pane within its lifespan whose caches
  // are also available (paper §4.3: "whenever the ready bit turns 2, it
  // will be matched up with the other panes based on its lifespan").
  const PaneRange lifespan = JoinLifespan(*q->geometry, pane);
  for (PaneId partner = lifespan.first; partner < lifespan.last; ++partner) {
    auto it = q->panes.find({partner_source, partner});
    if (it == q->panes.end() ||
        it->second.ready != CacheReady::kCacheAvailable) {
      continue;
    }
    const PaneId left = is_left ? pane : partner;
    const PaneId right = is_left ? partner : pane;
    if (q->matrix->IsDone(left, right)) continue;
    if (!q->pairs_enqueued.insert({left, right}).second) continue;
    reduce_task_list_.push_back(PanePairWorkItem{q->query.id, left, right});
  }
}

// ---------------------------------------------------------------------------
// Task lists
// ---------------------------------------------------------------------------

std::optional<PaneWorkItem> WindowAwareCacheController::PopMapTask() {
  if (map_task_list_.empty()) return std::nullopt;
  PaneWorkItem item = std::move(map_task_list_.front());
  map_task_list_.pop_front();
  QueryState* q = FindQuery(item.query);
  if (q != nullptr) {
    auto it = q->panes.find({item.source, item.pane});
    if (it != q->panes.end()) it->second.in_map_list = false;
  }
  return item;
}

std::optional<PanePairWorkItem> WindowAwareCacheController::PopReduceTask() {
  if (reduce_task_list_.empty()) return std::nullopt;
  PanePairWorkItem item = reduce_task_list_.front();
  reduce_task_list_.pop_front();
  QueryState* q = FindQuery(item.query);
  if (q != nullptr) q->pairs_enqueued.erase({item.left, item.right});
  return item;
}

// ---------------------------------------------------------------------------
// Expiration
// ---------------------------------------------------------------------------

void WindowAwareCacheController::ExpireCache(
    const std::string& name, QueryState* q,
    std::vector<PurgeNotification>* out) {
  auto it = signatures_.find(name);
  if (it == signatures_.end()) return;
  CacheSignature& sig = it->second;
  sig.done_query_mask[static_cast<size_t>(q->mask_bit)] = true;
  if (!sig.Expired()) return;
  if (scope_.active()) {
    scope_.Emit(obs::event::kCacheEvict)
        .With("name", sig.name)
        .With("node", sig.node)
        .With("reason", "expired")
        .With("bytes", sig.bytes);
  }
  out->push_back(PurgeNotification{sig.node, sig.name});
  signatures_.erase(it);
}

std::vector<PurgeNotification> WindowAwareCacheController::FinishRecurrence(
    QueryId query, int64_t recurrence) {
  QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  q->last_finished_recurrence = std::max(q->last_finished_recurrence,
                                         recurrence);
  std::vector<PurgeNotification> notifications;

  if (q->matrix != nullptr) {
    // Join: the matrix shift decides which panes retire; their reduce-input
    // caches expire with them. A pane-pair output cache expires once the
    // last window containing both panes has completed.
    auto [left_purged, right_purged] = q->matrix->Shift(recurrence);
    if (scope_.active()) {
      scope_.Emit(obs::event::kMatrixShift)
          .With("query_id", query)
          .With("recurrence", recurrence)
          .With("purged_left", static_cast<int64_t>(left_purged.size()))
          .With("purged_right", static_cast<int64_t>(right_purged.size()))
          .With("cells", q->matrix->CellCount());
    }
    const SourceId left_source = q->query.sources[0].id;
    const SourceId right_source = q->query.sources[1].id;
    auto expire_pane = [&](SourceId source, PaneId pane) {
      auto [begin, end] = q->caches_by_pane.equal_range({source, pane});
      std::vector<std::string> names;
      for (auto it = begin; it != end; ++it) names.push_back(it->second);
      for (const std::string& name : names) {
        ExpireCache(name, q, &notifications);
      }
      q->caches_by_pane.erase({source, pane});
      q->panes.erase({source, pane});
    };
    for (PaneId p : left_purged) expire_pane(left_source, p);
    for (PaneId p : right_purged) expire_pane(right_source, p);

    // Pair outputs.
    for (auto it = q->caches_by_pair.begin(); it != q->caches_by_pair.end();) {
      const auto [left, right] = it->first;
      const int64_t last_needed =
          std::min(q->geometry->LastRecurrenceUsingPane(left),
                   q->geometry->LastRecurrenceUsingPane(right));
      if (last_needed <= recurrence) {
        ExpireCache(it->second, q, &notifications);
        it = q->caches_by_pair.erase(it);
      } else {
        ++it;
      }
    }
  } else {
    // Aggregation: a pane expires once it is outside every future window.
    for (auto it = q->caches_by_pane.begin(); it != q->caches_by_pane.end();) {
      const PaneId pane = it->first.second;
      if (q->geometry->PaneExpiredAfter(pane, recurrence)) {
        ExpireCache(it->second, q, &notifications);
        it = q->caches_by_pane.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = q->panes.begin(); it != q->panes.end();) {
      if (q->geometry->PaneExpiredAfter(it->first.second, recurrence)) {
        it = q->panes.erase(it);
      } else {
        ++it;
      }
    }
  }
  return notifications;
}

// ---------------------------------------------------------------------------
// Failure recovery
// ---------------------------------------------------------------------------

WindowAwareCacheController::LossImpact
WindowAwareCacheController::HandleLostCache(NodeId node,
                                            const std::string& name) {
  LossImpact impact;
  auto it = signatures_.find(name);
  if (it == signatures_.end()) return impact;
  const CacheSignature sig = it->second;
  if (sig.node != node) return impact;  // Stale notification.
  signatures_.erase(it);
  impact.lost_caches.push_back(PurgeNotification{node, name});
  if (scope_.active()) {
    scope_.Emit(obs::event::kCacheInvalidate)
        .With("name", name)
        .With("node", node)
        .With("reason", "lost")
        .With("bytes", sig.bytes);
  }

  for (auto& [qid, q] : queries_) {
    (void)qid;
    if (sig.pane_right != kInvalidPane) {
      // Lost pane-pair output: un-mark the matrix entry so the pair is
      // recomputed if any window still needs it.
      if (q->matrix != nullptr) {
        // Only if the pair is still within the live (non-purged) region.
        q->caches_by_pair.erase({sig.pane, sig.pane_right});
      }
      continue;
    }
    auto pane_it = q->panes.find({sig.source, sig.pane});
    if (pane_it == q->panes.end()) continue;
    PaneState& state = pane_it->second;
    if (sig.type == CacheType::kReduceInput &&
        state.ready == CacheReady::kCacheAvailable) {
      // Roll the ready bit back to HDFS-available, evict pending reduce
      // pairs using this pane, and schedule a rebuild map task (paper §5).
      state.ready = CacheReady::kHdfsAvailable;
      reduce_task_list_.erase(
          std::remove_if(reduce_task_list_.begin(), reduce_task_list_.end(),
                         [&](const PanePairWorkItem& item) {
                           if (item.query != q->query.id) return false;
                           const bool uses =
                               item.left == sig.pane || item.right == sig.pane;
                           if (uses) {
                             q->pairs_enqueued.erase({item.left, item.right});
                           }
                           return uses;
                         }),
          reduce_task_list_.end());
      if (!state.in_map_list) {
        state.in_map_list = true;
        PaneWorkItem rebuild{q->query.id, sig.source, sig.pane, state.files,
                             /*rebuild=*/true};
        map_task_list_.push_back(rebuild);
        impact.rebuilds.push_back(rebuild);
        if (scope_.active()) {
          scope_.Emit(obs::event::kCacheRebuild)
              .With("query_id", q->query.id)
              .With("source", sig.source)
              .With("pane", sig.pane)
              .With("partition", sig.partition)
              .With("node", node);
        }
      }
      // Sibling partition caches of the same pane survive: the rebuild is
      // partition-scoped (paper §6.4 — pane/partition-grained caching
      // loses only part of the cache on a failure).
    }
  }
  return impact;
}

WindowAwareCacheController::LossImpact WindowAwareCacheController::OnCacheLost(
    NodeId node, const std::string& name) {
  return HandleLostCache(node, name);
}

NodeId WindowAwareCacheController::OnCacheEvicted(const CacheKey& key) {
  auto it = signatures_.find(key.name());
  if (it == signatures_.end()) return kInvalidNode;
  const CacheSignature sig = it->second;
  // The store already journaled cache.pane.evict; the rollback here is
  // silent so eviction accounting is never double-counted.
  signatures_.erase(it);

  for (auto& [qid, q] : queries_) {
    (void)qid;
    if (sig.pane_right != kInvalidPane) {
      if (q->matrix == nullptr) continue;
      // Drop only this partition's index entry; sibling partitions of the
      // pair may still be resident.
      auto [begin, end] =
          q->caches_by_pair.equal_range({sig.pane, sig.pane_right});
      for (auto e = begin; e != end; ++e) {
        if (e->second == key.name()) {
          q->caches_by_pair.erase(e);
          break;
        }
      }
      // Flip the cell back to recompute iff a future (unfinished) window
      // still reads the pair; un-doing an expired cell would block Shift
      // forever for a pair nothing will ever run again.
      const int64_t last_needed =
          std::min(q->geometry->LastRecurrenceUsingPane(sig.pane),
                   q->geometry->LastRecurrenceUsingPane(sig.pane_right));
      if (last_needed > q->last_finished_recurrence) {
        q->matrix->MarkUndone(sig.pane, sig.pane_right);
      }
      continue;
    }
    auto pane_it = q->panes.find({sig.source, sig.pane});
    if (pane_it == q->panes.end()) continue;
    PaneState& state = pane_it->second;
    if (sig.type == CacheType::kReduceInput &&
        state.ready == CacheReady::kCacheAvailable) {
      // Roll the ready bit back and strip pending reduce pairs using the
      // pane — but schedule no rebuild map task: the window-preparation
      // manifest check recomputes the pane lazily, only if it is read
      // again.
      state.ready = CacheReady::kHdfsAvailable;
      reduce_task_list_.erase(
          std::remove_if(reduce_task_list_.begin(), reduce_task_list_.end(),
                         [&](const PanePairWorkItem& item) {
                           if (item.query != q->query.id) return false;
                           const bool uses =
                               item.left == sig.pane || item.right == sig.pane;
                           if (uses) {
                             q->pairs_enqueued.erase({item.left, item.right});
                           }
                           return uses;
                         }),
          reduce_task_list_.end());
    }
  }
  return sig.node;
}

NodeId WindowAwareCacheController::DropSignature(const std::string& name) {
  auto it = signatures_.find(name);
  if (it == signatures_.end()) return kInvalidNode;
  const NodeId node = it->second.node;
  if (scope_.active()) {
    scope_.Emit(obs::event::kCacheInvalidate)
        .With("name", name)
        .With("node", node)
        .With("reason", "dropped")
        .With("bytes", it->second.bytes);
  }
  signatures_.erase(it);
  return node;
}

WindowAwareCacheController::LossImpact WindowAwareCacheController::OnNodeLost(
    NodeId node) {
  LossImpact impact;
  std::vector<std::string> on_node;
  for (const auto& [name, sig] : signatures_) {
    if (sig.node == node) on_node.push_back(name);
  }
  for (const std::string& name : on_node) {
    LossImpact one = HandleLostCache(node, name);
    impact.rebuilds.insert(impact.rebuilds.end(), one.rebuilds.begin(),
                           one.rebuilds.end());
    impact.lost_caches.insert(impact.lost_caches.end(),
                              one.lost_caches.begin(), one.lost_caches.end());
  }
  return impact;
}

}  // namespace redoop
