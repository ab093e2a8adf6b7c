#include "core/redoop_driver.h"

#include <cstdio>

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/string_utils.h"
#include "core/fleet.h"
#include "core/pane_naming.h"
#include "obs/slo/slo_tracker.h"

namespace redoop {

namespace {
/// Effective incremental strategy given the cache-tier ablation switches.
enum class EffectivePattern {
  kPerPaneMerge,
  kPanePairJoin,
  kPanePairJoinNoOutputCache,
  kCachedInputRecompute,
  kNoCaching,
};

EffectivePattern Effective(IncrementalPattern pattern,
                           const RedoopDriverOptions& options) {
  switch (pattern) {
    case IncrementalPattern::kPerPaneMerge:
      if (options.cache.reduce_output) return EffectivePattern::kPerPaneMerge;
      if (options.cache.reduce_input)
        return EffectivePattern::kCachedInputRecompute;
      return EffectivePattern::kNoCaching;
    case IncrementalPattern::kPanePairJoin:
      if (!options.cache.reduce_input) return EffectivePattern::kNoCaching;
      return options.cache.reduce_output
                 ? EffectivePattern::kPanePairJoin
                 : EffectivePattern::kPanePairJoinNoOutputCache;
    case IncrementalPattern::kCachedInputRecompute:
      return options.cache.reduce_input
                 ? EffectivePattern::kCachedInputRecompute
                 : EffectivePattern::kNoCaching;
  }
  return EffectivePattern::kNoCaching;
}

/// Pane size the geometry is built with: an invalid override falls back to
/// the GCD grid so the geometry itself stays well-formed — the rejection
/// is reported through the driver's init_status() instead of an abort.
Timestamp EffectivePaneSize(const WindowSpec& window, Timestamp override_pane) {
  if (override_pane > 0 && window.win % override_pane == 0 &&
      window.slide % override_pane == 0) {
    return override_pane;
  }
  return Gcd(window.win, window.slide);
}
}  // namespace

RedoopDriver::RedoopDriver(Cluster* cluster, BatchFeed* feed,
                           RecurringQuery query, RedoopDriverOptions options)
    : cluster_(cluster),
      feed_(feed),
      query_(std::move(query)),
      options_(options),
      geometry_(query_.window(),
                EffectivePaneSize(query_.window(),
                                  options.adaptive.pane_size_override)),
      analyzer_(cluster->dfs().options().block_size_bytes),
      profiler_(options.profiler.alpha, options.profiler.beta) {
  REDOOP_CHECK(cluster_ != nullptr);
  REDOOP_CHECK(feed_ != nullptr);
  query_.CheckValid();

  // User-reachable misconfiguration becomes a typed error surfaced by
  // RunRecurrence/Run rather than an abort deep inside the run.
  const Timestamp override_pane = options_.adaptive.pane_size_override;
  if (override_pane > 0 &&
      (query_.window().win % override_pane != 0 ||
       query_.window().slide % override_pane != 0)) {
    init_status_ = Status::InvalidArgument(StringPrintf(
        "pane_size_override %lld must divide win %lld and slide %lld",
        static_cast<long long>(override_pane),
        static_cast<long long>(query_.window().win),
        static_cast<long long>(query_.window().slide)));
  }
  for (const QuerySource& s : query_.sources) {
    if (!init_status_.ok()) break;
    if (!feed_->HasSource(s.id)) {
      init_status_ = Status::NotFound(StringPrintf(
          "query source %d is not registered with the feed",
          static_cast<int>(s.id)));
    }
  }

  // Observability: every component journals into one context; sim-time
  // stamps come from the cluster's simulator.
  if (options_.obs != nullptr) {
    obs_ = options_.obs;
  } else {
    owned_obs_ = std::make_unique<obs::ObservabilityContext>();
    obs_ = owned_obs_.get();
  }
  obs_->SetTimeSource(
      [cluster = cluster_] { return cluster->simulator().Now(); });
  // Attribution: one query-labeled scope, copied into every component.
  // telemetry_window_ / trace_ctx_ are the driver-owned cells the scopes
  // read at emit time. DFS stays cluster-scoped (shared across drivers).
  scope_ = obs::TelemetryScope(obs_, query_.name, &telemetry_window_,
                               &trace_ctx_);
  controller_.set_telemetry(scope_);
  {
    CacheStore::Options store_options;
    store_options.budget_bytes = options_.cache.budget_bytes;
    store_options.telemetry = scope_;
    store_options.on_evict = [this](const CacheStore::EvictionNotice& n) {
      OnCacheEvicted(n);
    };
    store_ = std::make_unique<CacheStore>(std::move(store_options));
  }
  profiler_.set_telemetry(scope_);
  default_scheduler_.set_telemetry(scope_);
  cluster_->dfs().set_observability(obs_);
  options_.runner.obs = obs_;
  options_.runner.telemetry = &scope_;

  base_plan_ = analyzer_.Plan(query_.window(), SourceStatistics{0.0});
  base_plan_.pane_size = geometry_.pane_size();
  current_plan_ = base_plan_;
  controller_.RegisterQuery(query_, geometry_.pane_size());

  if (options_.scheduler.cache_aware) {
    CacheAwareSchedulerOptions sched_options;
    sched_options.load_weight_s = options_.scheduler.load_weight_s;
    cache_aware_scheduler_ = std::make_unique<CacheAwareScheduler>(
        &cluster_->cost_model(), sched_options);
    cache_aware_scheduler_->set_telemetry(scope_);
  }
  runner_ = std::make_unique<JobRunner>(cluster_, scheduler(),
                                        options_.runner);
  runner_->SetDiskFullHandler([this](NodeId node, int64_t needed) {
    // On-demand (emergency) purging of expired caches, paper §4.1.
    return registries_[static_cast<size_t>(node)]->OnDemandPurge(
        &cluster_->node(node), needed);
  });

  for (const QuerySource& s : query_.sources) {
    packers_[s.id] = std::make_unique<DynamicDataPacker>(
        &cluster_->dfs(), s.id, current_plan_, options_.file_namespace);
  }
  const double purge_cycle = options_.cache.purge_cycle_s >= 0
                                 ? options_.cache.purge_cycle_s
                                 : static_cast<double>(query_.slide());
  for (int32_t n = 0; n < cluster_->num_nodes(); ++n) {
    registries_.push_back(
        std::make_unique<LocalCacheRegistry>(n, purge_cycle));
    registries_.back()->set_telemetry(scope_.WithNode(n));
  }
  ingested_until_.assign(query_.sources.size(), 0);

  // Cache-loss rollback hook (paper §5 failure recovery). The shared flag
  // guards against the cluster outliving this driver.
  auto alive = std::make_shared<bool>(true);
  alive_flag_ = alive;
  cluster_->AddCacheLossListener(
      [this, alive](NodeId node, const std::vector<std::string>& lost) {
        if (!*alive) return;
        OnCacheLossEvent(node, lost);
      });

  // Fleet rollback hook (DESIGN §17): when another holder's budget evicts
  // a shared pane image, this query drops its copy too. The coordinator
  // runs drivers serially and owns both the context and the drivers, so
  // the raw `this` capture is safe for the driver's lifetime.
  if (options_.fleet != nullptr) {
    options_.fleet->RegisterQuery(
        query_.id, [this](const CacheKey& image) { EvictFleetPane(image); });
  }
}

RedoopDriver::~RedoopDriver() {
  if (alive_flag_ != nullptr) *alive_flag_ = false;
}

TaskScheduler* RedoopDriver::scheduler() {
  if (cache_aware_scheduler_ != nullptr) return cache_aware_scheduler_.get();
  return &default_scheduler_;
}

bool RedoopDriver::WindowReads(CacheType type) const {
  return type == CacheType::kReduceOutput ||
         Effective(query_.pattern, options_) != EffectivePattern::kPerPaneMerge;
}

std::vector<const CacheKey*> RedoopDriver::WindowReadManifest(
    const PaneIngestState& ps) const {
  std::vector<const CacheKey*> keys;
  if (WindowReads(CacheType::kReduceInput)) {
    for (const CacheKey& key : ps.ric_names) keys.push_back(&key);
  }
  if (WindowReads(CacheType::kReduceOutput)) {
    for (const CacheKey& key : ps.roc_names) keys.push_back(&key);
  }
  return keys;
}

const LocalCacheRegistry& RedoopDriver::registry(NodeId node) const {
  REDOOP_CHECK(node >= 0 && node < static_cast<NodeId>(registries_.size()));
  return *registries_[static_cast<size_t>(node)];
}

const DynamicDataPacker& RedoopDriver::packer(SourceId source) const {
  auto it = packers_.find(source);
  REDOOP_CHECK(it != packers_.end()) << "unknown source " << source;
  return *it->second;
}

JobConfig RedoopDriver::BaseJobConfig(const std::string& suffix) const {
  JobConfig config = query_.config;
  config.name = query_.name + "-" + suffix;
  return config;
}

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

void RedoopDriver::IngestInterval(Timestamp from, Timestamp to) {
  (void)from;  // Per-source progress is tracked in ingested_until_.
  Simulator& sim = cluster_->simulator();
  for (size_t si = 0; si < query_.sources.size(); ++si) {
    const SourceId source = query_.sources[si].id;
    if (ingested_until_[si] >= to) continue;
    std::vector<RecordBatch> batches =
        feed_->BatchesFor(source, ingested_until_[si], to);
    for (RecordBatch& batch : batches) {
      REDOOP_CHECK(batch.start == ingested_until_[si])
          << "feed returned a non-contiguous batch";
      ingested_until_[si] = batch.end;
      if (proactive_mode_ &&
          sim.Now() < static_cast<SimTime>(batch.end)) {
        // Proactive execution: process data as it lands instead of waiting
        // for the trigger (paper §3.3).
        sim.RunUntil(static_cast<SimTime>(batch.end));
      }
      auto files = packers_[source]->Ingest(std::move(batch));
      REDOOP_CHECK(files.ok()) << files.status().ToString();
      HandlePaneFiles(source, *files);
      if (proactive_mode_) DrainWorkLists();
    }
    REDOOP_CHECK(ingested_until_[si] == to);
  }
}

void RedoopDriver::HandlePaneFiles(SourceId source,
                                   const std::vector<PaneFileInfo>& files) {
  for (const PaneFileInfo& f : files) {
    for (PaneId pane = f.first_pane; pane <= f.last_pane; ++pane) {
      PaneIngestState& ps = pane_states_[{source, pane}];
      if (!f.file_name.empty()) {
        FileSlice slice;
        slice.file_name = f.file_name;
        if (f.first_pane != f.last_pane) {
          // Multi-pane file: locate this pane via the file header.
          auto file_or = cluster_->dfs().GetFile(f.file_name);
          REDOOP_CHECK(file_or.ok());
          auto entry = (*file_or)->pane_header.Find(pane);
          REDOOP_CHECK(entry.has_value())
              << "pane " << pane << " missing from header of " << f.file_name;
          slice.record_begin = entry->record_offset;
          slice.record_end = entry->record_offset + entry->record_count;
          slice.bytes = entry->byte_size;
        } else {
          slice.record_begin = 0;
          slice.record_end = -1;
          slice.bytes = f.bytes;
        }
        ps.bytes += slice.bytes;
        fresh_bytes_accum_ += slice.bytes;
        source_window_bytes_[source] += slice.bytes;
        ps.unprocessed.push_back(slice);
        ps.all_slices.push_back(slice);
        controller_.OnPaneInHdfs(query_.id, source, pane, {f.file_name});
      }
      if (!f.is_subpane || f.subpane_index == f.subpane_count - 1) {
        ps.complete = true;
      }
      if (ps.complete && ps.unprocessed.empty() && !ps.cached_reported) {
        // Empty (or fully processed) complete pane.
        ps.cached_reported = true;
        controller_.OnPaneCached(query_.id, source, pane);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Work lists
// ---------------------------------------------------------------------------

void RedoopDriver::DrainWorkLists() {
  const EffectivePattern pattern = Effective(query_.pattern, options_);
  while (true) {
    if (auto map_item = controller_.PopMapTask()) {
      if (pattern == EffectivePattern::kNoCaching) continue;  // Nothing to do.
      // Join/recompute patterns fold the caching pass into the window job
      // when not running proactively; the pane's slices stay queued in
      // pane_states_ until window preparation (rebuilds still run here).
      const bool fold_later =
          !proactive_mode_ && !map_item->rebuild &&
          (pattern == EffectivePattern::kPanePairJoin ||
           pattern == EffectivePattern::kPanePairJoinNoOutputCache ||
           pattern == EffectivePattern::kCachedInputRecompute);
      if (!fold_later) RunPaneJob(*map_item);
      continue;
    }
    // Batch every pending pane pair into one job (shared startup).
    std::vector<PanePairWorkItem> pairs;
    while (auto pair_item = controller_.PopReduceTask()) {
      pairs.push_back(*pair_item);
    }
    if (!pairs.empty()) {
      if (pattern == EffectivePattern::kPanePairJoin) {
        if (proactive_mode_ || !options_.cache.hybrid_join_strategy) {
          // Eager: compute pairs as soon as both sides are cached.
          RunPanePairBatch(pairs);
        } else {
          // Defer to the window's strategy decision.
          for (const PanePairWorkItem& p : pairs) {
            if (deferred_pair_keys_.insert({p.left, p.right}).second) {
              deferred_pairs_.push_back(p);
            }
          }
        }
      }
      // Without output caching, in-window pairs are recomputed during
      // window assembly; drop the items.
      continue;
    }
    break;
  }
}

void RedoopDriver::RunPaneJob(const PaneWorkItem& item) {
  if (item.rebuild) {
    RebuildPane(item.source, item.pane);
    return;
  }
  PaneIngestState& ps = pane_states_[{item.source, item.pane}];
  if (ps.unprocessed.empty()) {
    if (ps.complete && !ps.cached_reported) {
      ps.cached_reported = true;
      controller_.OnPaneCached(query_.id, item.source, item.pane);
    }
    return;
  }
  RunPaneSlices(item.source, item.pane, ps.unprocessed);
  ps.unprocessed.clear();
  ++ps.chunks_processed;
  if (ps.complete && !ps.cached_reported) {
    ps.cached_reported = true;
    controller_.OnPaneCached(query_.id, item.source, item.pane);
  }
}

void RedoopDriver::RunPaneSlices(SourceId source, PaneId pane,
                                 const std::vector<FileSlice>& slices,
                                 std::vector<int32_t> active_partitions) {
  const EffectivePattern pattern = Effective(query_.pattern, options_);
  PaneIngestState& ps = pane_states_[{source, pane}];
  const int32_t chunk = ps.chunks_processed;

  // Cross-query dedup (DESIGN §17): if another query with an identical
  // upstream pipeline already built this pane on the same grid, adopt its
  // images instead of re-running the job; if not, run the job and publish
  // ours. Eligibility is decided before the job mutates the manifests.
  const bool dedup_eligible =
      FleetDedupEligible(source, pane, slices, active_partitions);
  if (dedup_eligible && TryAdoptPane(source, pane)) return;

  JobSpec spec;
  spec.config = BaseJobConfig(StringPrintf("pane-S%dP%ld", source, pane));
  const bool make_roc = pattern == EffectivePattern::kPerPaneMerge;
  if (!make_roc) {
    // Caching-only pass: the shuffled inputs are the product.
    spec.config.reducer = std::make_shared<const NullReducer>();
  }
  spec.per_source_mappers[source] = query_.MapperFor(source);
  for (const FileSlice& slice : slices) {
    MapInput input;
    input.file_name = slice.file_name;
    input.source = source;
    input.pane = pane;
    input.record_begin = slice.record_begin;
    input.record_end = slice.record_end;
    spec.map_inputs.push_back(std::move(input));
  }
  const QueryId qid = query_.id;
  const std::string chunk_suffix =
      chunk > 0 ? StringPrintf("_c%d", chunk) : "";
  spec.cache.cache_reduce_input = options_.cache.reduce_input;
  spec.cache.input_cache_name = [qid, chunk_suffix](SourceId s, PaneId p,
                                                    int32_t r) {
    return ReduceInputCacheName(qid, s, p, r) + chunk_suffix;
  };
  spec.cache.cache_reduce_output = make_roc;
  spec.cache.output_cache_name = [qid, source, pane,
                                  chunk_suffix](int32_t r) {
    return ReduceOutputCacheName(qid, source, pane, r) + chunk_suffix;
  };
  spec.active_partitions = std::move(active_partitions);

  JobResult result = runner_->Run(spec);
  REDOOP_CHECK(result.status.ok()) << result.status.ToString();
  RegisterJobCaches(result, source, pane);
  AccumulateJobStats(result);
  if (dedup_eligible) PublishFleetPane(source, pane, result.caches);
}

void RedoopDriver::RunPanePairBatch(
    const std::vector<PanePairWorkItem>& pairs) {
  if (pairs.empty()) return;
  const SourceId left_source = query_.sources[0].id;
  const SourceId right_source = query_.sources[1].id;
  const int32_t num_partitions = query_.config.num_reducers;

  JobSpec spec;
  spec.config = BaseJobConfig("pane-pairs");
  // Pair outputs are the query's actual results: they are published to the
  // job output area in HDFS once, at pair-computation time (the window
  // assembly then only unions them).
  spec.output_prefix =
      StringPrintf("out/%s/pairs-%ld", query_.name.c_str(),
                   pair_batch_counter_++);
  // Anchor each pair's tasks on the pane shared by the most pairs in this
  // batch (typically the freshly arrived pane): its cached partitions then
  // serve all partner joins from the page cache.
  std::map<std::pair<SourceId, PaneId>, int64_t> pane_frequency;
  for (const PanePairWorkItem& pair : pairs) {
    ++pane_frequency[{left_source, pair.left}];
    ++pane_frequency[{right_source, pair.right}];
  }
  for (const PanePairWorkItem& pair : pairs) {
    const auto left_caches = controller_.CachesForPane(
        query_.id, left_source, pair.left, CacheType::kReduceInput);
    const auto right_caches = controller_.CachesForPane(
        query_.id, right_source, pair.right, CacheType::kReduceInput);
    const bool anchor_left = pane_frequency[{left_source, pair.left}] >=
                             pane_frequency[{right_source, pair.right}];
    for (int32_t r = 0; r < num_partitions; ++r) {
      ExplicitReduceTask task;
      task.partition = r;
      task.label_left = pair.left;
      task.label_right = pair.right;
      task.output_cache_name =
          JoinOutputCacheName(query_.id, pair.left, pair.right, r);
      for (const CacheSignature* sig : left_caches) {
        if (sig->partition == r) {
          AppendSideInput(*sig, &task.side_inputs);
          if (anchor_left) task.preferred_node = sig->node;
        }
      }
      for (const CacheSignature* sig : right_caches) {
        if (sig->partition == r) {
          AppendSideInput(*sig, &task.side_inputs);
          if (!anchor_left) task.preferred_node = sig->node;
        }
      }
      spec.explicit_reduce_tasks.push_back(std::move(task));
    }
  }

  JobResult result = runner_->Run(spec);
  REDOOP_CHECK(result.status.ok()) << result.status.ToString();
  RegisterJobCaches(result, /*source_for_roc=*/0, kInvalidPane);
  AccumulateJobStats(result);
  for (const PanePairWorkItem& pair : pairs) {
    controller_.MarkPanePairDone(query_.id, pair.left, pair.right);
  }
}

void RedoopDriver::RebuildPane(SourceId source, PaneId pane) {
  auto it = pane_states_.find({source, pane});
  if (it == pane_states_.end()) return;  // Pane already expired.
  PaneIngestState& ps = it->second;

  // Determine which of the pane's caches actually vanished; the survivors
  // stay valid (caching is pane- and partition-grained, so a failure costs
  // only the lost slices, paper §6.4). The replay still re-runs the pane's
  // map tasks — their outputs are gone — but only the lost partitions'
  // reduce/caching tasks.
  std::set<int32_t> lost_ric;
  std::set<int32_t> lost_roc;
  auto classify = [&](std::vector<CacheKey>* manifest, CacheType type,
                      std::set<int32_t>* lost) {
    const bool window_read = WindowReads(type);
    manifest->erase(
        std::remove_if(manifest->begin(), manifest->end(),
                       [&](const CacheKey& key) {
                         if (store_->Has(key)) {
                           // Survivor: pin what a window reads so the
                           // rebuild's own Puts cannot evict it. The
                           // recovery-only survivors that
                           // RebuildOutputsFromInputs reads are pinned
                           // there, before its job Puts anything.
                           if (window_read) {
                             recurrence_leases_.push_back(
                                 store_->Acquire(key));
                           }
                           return false;
                         }
                         if (key.partition() >= 0) {
                           lost->insert(key.partition());
                         }
                         const NodeId node =
                             controller_.DropSignature(key.name());
                         if (node != kInvalidNode &&
                             node < cluster_->num_nodes()) {
                           if (cluster_->node(node).alive()) {
                             cluster_->node(node).DeleteLocalFile(
                                 key.name());
                           }
                           registries_[static_cast<size_t>(node)]->Remove(
                               key);
                         }
                         return true;
                       }),
        manifest->end());
  };
  classify(&ps.ric_names, CacheType::kReduceInput, &lost_ric);
  classify(&ps.roc_names, CacheType::kReduceOutput, &lost_roc);
  if (lost_ric.empty() && lost_roc.empty()) {
    // Nothing actually missing (stale rebuild request).
    if (ps.complete && !ps.cached_reported) {
      ps.cached_reported = true;
      controller_.OnPaneCached(query_.id, source, pane);
    }
    return;
  }

  // Partitions whose reduce-output cache vanished but whose reduce-input
  // cache survives can be re-reduced straight from the input cache — no
  // re-mapping of the pane.
  std::set<int32_t> reducible;
  for (int32_t partition : lost_roc) {
    if (lost_ric.count(partition) > 0) continue;
    bool have_ric = false;
    for (const CacheKey& key : ps.ric_names) {
      if (key.partition() == partition) have_ric = true;
    }
    if (have_ric) reducible.insert(partition);
  }
  // Which lost caches force a replay of the pane's map tasks? A lost
  // input cache that windows read must come back. Where windows read only
  // output caches, a lost input cache is just a recovery asset and is
  // dropped lazily (re-materialized only if its partition's output is
  // ever lost too).
  std::set<int32_t> remap;
  if (WindowReads(CacheType::kReduceInput)) remap = lost_ric;
  for (int32_t partition : lost_roc) {
    if (reducible.count(partition) == 0) remap.insert(partition);
  }

  if (!reducible.empty()) {
    RebuildOutputsFromInputs(source, pane,
                             std::vector<int32_t>(reducible.begin(),
                                                  reducible.end()));
  }
  if (!remap.empty() && !ps.all_slices.empty()) {
    ++ps.chunks_processed;  // Fresh chunk tag: rebuilt caches get new names.
    RunPaneSlices(source, pane, ps.all_slices,
                  std::vector<int32_t>(remap.begin(), remap.end()));
    ++ps.chunks_processed;
  }
  ps.unprocessed.clear();
  REDOOP_CHECK(ps.complete) << "rebuilding an incomplete pane";
  ps.cached_reported = true;
  controller_.OnPaneCached(query_.id, source, pane);
}

void RedoopDriver::RebuildOutputsFromInputs(
    SourceId source, PaneId pane, std::vector<int32_t> partitions) {
  PaneIngestState& ps = pane_states_[{source, pane}];
  JobSpec spec;
  spec.config =
      BaseJobConfig(StringPrintf("roc-rebuild-S%dP%ld", source, pane));
  for (const CacheKey& key : ps.ric_names) {
    if (std::find(partitions.begin(), partitions.end(), key.partition()) ==
        partitions.end()) {
      continue;
    }
    const CacheSignature* sig = controller_.Find(key.name());
    if (sig != nullptr) AppendSideInput(*sig, &spec.side_inputs);
  }
  const QueryId qid = query_.id;
  const int32_t chunk = ps.chunks_processed;
  const std::string chunk_suffix =
      chunk > 0 ? StringPrintf("_c%d", chunk) : "";
  spec.cache.cache_reduce_output = true;
  spec.cache.output_cache_name = [qid, source, pane,
                                  chunk_suffix](int32_t r) {
    return ReduceOutputCacheName(qid, source, pane, r) + chunk_suffix + "_rb";
  };
  spec.active_partitions = std::move(partitions);

  JobResult result = runner_->Run(spec);
  REDOOP_CHECK(result.status.ok()) << result.status.ToString();
  RegisterJobCaches(result, source, pane);
  AccumulateJobStats(result);
}

// ---------------------------------------------------------------------------
// Cache registration
// ---------------------------------------------------------------------------

void RedoopDriver::AppendSideInput(const CacheSignature& sig,
                                   std::vector<ReduceSideInput>* out) {
  const CacheKey key = CacheKey::FromName(sig.name);
  const CacheStore::Entry* entry = store_->Find(key);
  REDOOP_CHECK(entry != nullptr) << "cache payload missing: " << sig.name;
  // Pin for the rest of the recurrence: a side input already handed to a
  // job spec must not be reclaimed by a later Put's budget sweep.
  recurrence_leases_.push_back(store_->Acquire(key));
  ReduceSideInput side;
  side.cache_name = sig.name;
  side.partition = sig.partition;
  side.source = sig.source;
  side.pane = sig.pane;
  side.location = sig.node;
  side.bytes = sig.bytes;
  side.records = sig.records;
  side.payload = entry->payload();  // Shared with the store, not copied.
  out->push_back(std::move(side));
}

std::vector<ReduceSideInput> RedoopDriver::SideInputsFor(
    const std::vector<const CacheSignature*>& caches) {
  std::vector<ReduceSideInput> out;
  out.reserve(caches.size());
  for (const CacheSignature* sig : caches) AppendSideInput(*sig, &out);
  return out;
}

void RedoopDriver::RegisterJobCaches(const JobResult& result,
                                     SourceId source_for_roc,
                                     PaneId pane_for_roc) {
  for (const MaterializedCache& cache : result.caches) {
    // Free validation: a job that emitted a malformed cache file name dies
    // here, not as an unfindable registry row windows later.
    const CacheKey key = CacheKey::FromName(cache.name);
    CacheSignature sig;
    sig.name = cache.name;
    sig.partition = cache.partition;
    sig.node = cache.node;
    sig.bytes = cache.bytes;
    sig.records = cache.records;
    sig.ready = CacheReady::kCacheAvailable;
    if (cache.is_reduce_output) {
      sig.type = CacheType::kReduceOutput;
      if (cache.pane_right != kInvalidPane) {
        sig.pane = cache.pane;           // Pane-pair output.
        sig.pane_right = cache.pane_right;
      } else {
        sig.source = source_for_roc;     // Per-pane aggregation partial.
        sig.pane = pane_for_roc;
      }
    } else {
      sig.type = CacheType::kReduceInput;
      sig.source = cache.source;
      sig.pane = cache.pane;
    }
    RegisterCache(key, std::move(sig), cache.payload);
  }
  cluster_->heartbeat_bus().DeliverUpTo(cluster_->simulator().Now());
}

void RedoopDriver::RegisterCache(const CacheKey& key, CacheSignature sig,
                                 std::shared_ptr<const FlatKvBuffer> payload) {
  // Manifest bookkeeping for loss detection.
  if (sig.pane_right == kInvalidPane && sig.pane != kInvalidPane) {
    PaneIngestState& ps = pane_states_[{sig.source, sig.pane}];
    if (sig.type == CacheType::kReduceInput) {
      ps.ric_names.push_back(key);
    } else {
      ps.roc_names.push_back(key);
    }
    // Serving this pane later in the same recurrence is not a cache hit.
    panes_built_this_recurrence_.insert({sig.source, sig.pane});
    pane_built_window_[{sig.source, sig.pane}] = telemetry_window_;
  }
  const bool window_read = WindowReads(sig.type);
  store_->Put(key, std::move(payload),
              CacheStore::PaneStats{sig.bytes, sig.records},
              window_read ? CacheStore::Use::kWindowRead
                          : CacheStore::Use::kRecoveryOnly);
  // Pin a window-read entry for the rest of the recurrence: the window
  // that just paid to build it must be able to read it back. A
  // recovery-only entry may go at the next Put.
  if (window_read) recurrence_leases_.push_back(store_->Acquire(key));
  registries_[static_cast<size_t>(sig.node)]->AddEntry(key, sig.type,
                                                       sig.bytes);
  // The registry ships its delta to the master with its next heartbeat
  // (paper §2.3); the bus records the in-flight metadata traffic.
  cluster_->heartbeat_bus().Send(sig.node, cluster_->simulator().Now(),
                                 "cache-add", sig.name);
  controller_.AddSignature(std::move(sig), query_.id);
}

void RedoopDriver::AccumulateJobStats(const JobResult& result) {
  shuffle_accum_ += result.shuffle_time_total;
  reduce_accum_ += result.reduce_time_total;
  map_phase_accum_ += result.map_phase_time;
  work_accum_ += result.Elapsed();
  counters_accum_.MergeFrom(result.counters);
  task_reports_accum_.insert(task_reports_accum_.end(),
                             result.task_reports.begin(),
                             result.task_reports.end());
}

// ---------------------------------------------------------------------------
// Window assembly
// ---------------------------------------------------------------------------

void RedoopDriver::EnsureWindowPanes(int64_t recurrence) {
  const EffectivePattern pattern = Effective(query_.pattern, options_);
  if (pattern == EffectivePattern::kNoCaching) return;
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  for (const QuerySource& qs : query_.sources) {
    for (PaneId p = panes.first; p < panes.last; ++p) {
      auto it = pane_states_.find({qs.id, p});
      if (it == pane_states_.end()) continue;  // Pane had no data.
      const std::vector<const CacheKey*> reads =
          WindowReadManifest(it->second);
      bool missing = false;
      for (const CacheKey* key : reads) {
        if (!store_->Has(*key)) missing = true;
      }
      if (missing) {
        // RebuildPane pins the survivors and re-materializes the rest.
        RebuildPane(qs.id, p);
      } else {
        // Pin what assembly reads of the pane for this window: the budget
        // sweep must not reclaim it mid-window.
        for (const CacheKey* key : reads) {
          recurrence_leases_.push_back(store_->Acquire(*key));
        }
      }
    }
  }
}

std::vector<PanePairWorkItem> RedoopDriver::MissingWindowPairs(
    int64_t recurrence) const {
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  const int32_t num_partitions = query_.config.num_reducers;
  std::vector<PanePairWorkItem> missing;
  for (PaneId l = panes.first; l < panes.last; ++l) {
    for (PaneId r = panes.first; r < panes.last; ++r) {
      bool needs_run = !controller_.IsPanePairDone(query_.id, l, r);
      if (!needs_run) {
        for (int32_t part = 0; part < num_partitions; ++part) {
          if (controller_.Find(JoinOutputCacheName(query_.id, l, r, part)) ==
              nullptr) {
            // Pair output absent: lost to a failure, or the pair was
            // retired by a recompute-path window without materializing it.
            needs_run = true;
          }
        }
      }
      if (needs_run) missing.push_back(PanePairWorkItem{query_.id, l, r});
    }
  }
  return missing;
}

double RedoopDriver::EstimatePairPathCost(
    const std::vector<PanePairWorkItem>& pairs) const {
  const CostModel& cost = cluster_->cost_model();
  const SourceId left_source = query_.sources[0].id;
  const SourceId right_source = query_.sources[1].id;
  auto pane_bytes = [&](SourceId s, PaneId p) {
    auto it = pane_states_.find({s, p});
    return it == pane_states_.end() ? int64_t{0} : it->second.bytes;
  };
  // Reads: each distinct pane once (optimistic: co-located tasks hit the
  // page cache); CPU: every pair scans both sides.
  std::set<std::pair<SourceId, PaneId>> distinct;
  double cpu_bytes = 0.0;
  for (const PanePairWorkItem& pair : pairs) {
    distinct.insert({left_source, pair.left});
    distinct.insert({right_source, pair.right});
    cpu_bytes += static_cast<double>(pane_bytes(left_source, pair.left) +
                                     pane_bytes(right_source, pair.right));
  }
  double read_bytes = 0.0;
  for (const auto& [s, p] : distinct) {
    read_bytes += static_cast<double>(pane_bytes(s, p));
  }
  return cost.LocalReadTime(static_cast<int64_t>(read_bytes)) +
         cost.ReduceComputeTime(static_cast<int64_t>(cpu_bytes)) +
         static_cast<double>(pairs.size()) * cost.TaskStartupTime();
}

double RedoopDriver::EstimateRecomputePathCost(int64_t recurrence) const {
  const CostModel& cost = cluster_->cost_model();
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  int64_t window_bytes = 0;
  for (const QuerySource& qs : query_.sources) {
    for (PaneId p = panes.first; p < panes.last; ++p) {
      auto it = pane_states_.find({qs.id, p});
      if (it != pane_states_.end()) window_bytes += it->second.bytes;
    }
  }
  // Read + join-scan the whole window, then write the full output anew
  // (estimated from the previous window's output volume).
  return cost.LocalReadTime(window_bytes) +
         cost.ReduceComputeTime(window_bytes) +
         cost.HdfsWriteTime(last_join_output_bytes_);
}

JobSpec RedoopDriver::BuildFoldedWindowSpec(int64_t recurrence) {
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  JobSpec spec;
  spec.config = BaseJobConfig(StringPrintf("window-%ld", recurrence));
  spec.output_prefix = query_.OutputPathForRecurrence(recurrence);
  const QueryId qid = query_.id;
  for (const QuerySource& qs : query_.sources) {
    spec.per_source_mappers[qs.id] = query_.MapperFor(qs.id);
    for (PaneId p = panes.first; p < panes.last; ++p) {
      auto it = pane_states_.find({qs.id, p});
      if (it == pane_states_.end()) continue;  // Empty pane.
      // Not-yet-cached slices are mapped; already-cached data arrives at
      // the reducers straight from the local caches (paper Fig. 5: reducer
      // input physically comes from the mappers AND the local FS).
      for (const FileSlice& slice : it->second.unprocessed) {
        MapInput input;
        input.file_name = slice.file_name;
        input.source = qs.id;
        input.pane = p;
        input.record_begin = slice.record_begin;
        input.record_end = slice.record_end;
        spec.map_inputs.push_back(std::move(input));
      }
      for (const CacheSignature* sig : controller_.CachesForPane(
               qid, qs.id, p, CacheType::kReduceInput)) {
        AppendSideInput(*sig, &spec.side_inputs);
      }
    }
  }
  spec.cache.cache_reduce_input = options_.cache.reduce_input;
  spec.cache.input_cache_name = [this, qid](SourceId s, PaneId p, int32_t r) {
    auto it = pane_states_.find({s, p});
    const int32_t chunk =
        it == pane_states_.end() ? 0 : it->second.chunks_processed;
    const std::string suffix = chunk > 0 ? StringPrintf("_c%d", chunk) : "";
    return ReduceInputCacheName(qid, s, p, r) + suffix;
  };
  return spec;
}

void RedoopDriver::FinishFoldedPanes(int64_t recurrence) {
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  for (const QuerySource& qs : query_.sources) {
    for (PaneId p = panes.first; p < panes.last; ++p) {
      auto it = pane_states_.find({qs.id, p});
      if (it == pane_states_.end()) continue;
      PaneIngestState& ps = it->second;
      if (!ps.unprocessed.empty()) {
        ps.unprocessed.clear();
        ++ps.chunks_processed;
      }
      if (ps.complete && !ps.cached_reported) {
        ps.cached_reported = true;
        controller_.OnPaneCached(query_.id, qs.id, p);
      }
    }
  }
}

void RedoopDriver::EnsureWindowPanesCached(int64_t recurrence) {
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  for (const QuerySource& qs : query_.sources) {
    for (PaneId p = panes.first; p < panes.last; ++p) {
      auto it = pane_states_.find({qs.id, p});
      if (it == pane_states_.end()) continue;
      PaneIngestState& ps = it->second;
      if (!ps.unprocessed.empty()) {
        RunPaneSlices(qs.id, p, ps.unprocessed);
        ps.unprocessed.clear();
        ++ps.chunks_processed;
      }
      if (ps.complete && !ps.cached_reported) {
        ps.cached_reported = true;
        controller_.OnPaneCached(query_.id, qs.id, p);
      }
    }
  }
}

void RedoopDriver::RunJoinWindowRecompute(int64_t recurrence) {
  // The folded window job: map the fresh panes, join against the cached
  // older panes, publish the window output, and keep the fresh panes'
  // shuffled inputs as caches (the merge spill, at no extra write cost).
  JobSpec spec = BuildFoldedWindowSpec(recurrence);

  std::vector<KeyValue> output;
  if (!spec.map_inputs.empty() || !spec.side_inputs.empty()) {
    JobResult result = runner_->Run(spec);
    REDOOP_CHECK(result.status.ok()) << result.status.ToString();
    RegisterJobCaches(result, /*source_for_roc=*/0, kInvalidPane);
    AccumulateJobStats(result);
    output = std::move(result.output);
  }
  FinishFoldedPanes(recurrence);
  last_join_output_bytes_ = TotalLogicalBytes(output);
  join_window_override_ = std::move(output);

  // The pairs this window covers are retired in the status matrix (their
  // outputs were delivered, just not cached); expiration bookkeeping
  // proceeds as usual, and any future window that wants a pair's cached
  // output will recompute it (MissingWindowPairs treats done-without-
  // output as missing).
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  for (PaneId l = panes.first; l < panes.last; ++l) {
    for (PaneId r = panes.first; r < panes.last; ++r) {
      controller_.MarkPanePairDone(query_.id, l, r);
    }
  }
}

void RedoopDriver::PrepareJoinWindow(int64_t recurrence) {
  const EffectivePattern pattern = Effective(query_.pattern, options_);
  if (pattern != EffectivePattern::kPanePairJoin) return;
  join_window_override_.reset();

  // Drop deferred pairs that already ran (e.g. proactively).
  deferred_pairs_.erase(
      std::remove_if(deferred_pairs_.begin(), deferred_pairs_.end(),
                     [&](const PanePairWorkItem& p) {
                       if (controller_.IsPanePairDone(query_.id, p.left,
                                                      p.right)) {
                         deferred_pair_keys_.erase({p.left, p.right});
                         return true;
                       }
                       return false;
                     }),
      deferred_pairs_.end());

  const std::vector<PanePairWorkItem> missing = MissingWindowPairs(recurrence);
  {
    // Pin the in-window pair outputs already materialized: assembly unions
    // them later this recurrence, so the pair batch's own Puts must not
    // evict them in the meantime.
    const PaneRange w = geometry_.PanesForRecurrence(recurrence);
    for (PaneId l = w.first; l < w.last; ++l) {
      for (PaneId r = w.first; r < w.last; ++r) {
        for (int32_t part = 0; part < query_.config.num_reducers; ++part) {
          const CacheKey key =
              CacheKey::JoinOutput(query_.id, l, r, part);
          if (store_->Has(key)) {
            recurrence_leases_.push_back(store_->Acquire(key));
          }
        }
      }
    }
  }
  {
    // Pair-grain cache accounting: every in-window pair whose output is
    // already materialized is served from cache; the missing ones must run.
    const PaneRange w = geometry_.PanesForRecurrence(recurrence);
    const int64_t span = w.last - w.first;
    const int64_t misses = static_cast<int64_t>(missing.size());
    const int64_t hits = span * span - misses;
    if (hits > 0) {
      scope_.Increment(obs::metric::kCachePairHits, hits);
      counters_accum_.Increment(counter::kCachePairHits, hits);
      scope_.Emit(obs::event::kCachePairHit)
          .With("recurrence", recurrence)
          .With("count", hits);
    }
    if (misses > 0) {
      scope_.Increment(obs::metric::kCachePairMisses, misses);
      counters_accum_.Increment(counter::kCachePairMisses, misses);
      scope_.Emit(obs::event::kCachePairMiss)
          .With("recurrence", recurrence)
          .With("count", misses);
    }
  }
  if (missing.empty()) return;  // Everything cached already.

  // Strategy choice on steady-state costs: the pair path's recurring work
  // is the pairs involving freshly arrived panes, regardless of how large
  // the transition investment is this window (a myopic comparison on
  // `missing` would lock the driver into recompute forever, since pairs
  // retired by a recompute window have no cached output).
  const PaneRange window = geometry_.PanesForRecurrence(recurrence);
  const PaneRange fresh = geometry_.NewPanesForRecurrence(recurrence);
  std::vector<PanePairWorkItem> steady_pairs;
  for (PaneId l = window.first; l < window.last; ++l) {
    for (PaneId r = window.first; r < window.last; ++r) {
      if (fresh.Contains(l) || fresh.Contains(r)) {
        steady_pairs.push_back(PanePairWorkItem{query_.id, l, r});
      }
    }
  }
  const bool choose_pairs =
      !options_.cache.hybrid_join_strategy ||
      EstimatePairPathCost(steady_pairs) <=
          EstimateRecomputePathCost(recurrence);
  if (choose_pairs) {
    // The pair path needs every in-window pane's reducer inputs cached
    // first (pairs read from caches), then recomputes the missing pairs —
    // including panes that became cache-ready during this preparation.
    EnsureWindowPanesCached(recurrence);
    const std::vector<PanePairWorkItem> needed =
        MissingWindowPairs(recurrence);
    RunPanePairBatch(needed);
    for (const PanePairWorkItem& p : needed) {
      deferred_pair_keys_.erase({p.left, p.right});
    }
  } else {
    RunJoinWindowRecompute(recurrence);
    // Deferred in-window pairs are covered by the recompute.
    deferred_pairs_.erase(
        std::remove_if(deferred_pairs_.begin(), deferred_pairs_.end(),
                       [&](const PanePairWorkItem& p) {
                         if (controller_.IsPanePairDone(query_.id, p.left,
                                                        p.right)) {
                           deferred_pair_keys_.erase({p.left, p.right});
                           return true;
                         }
                         return false;
                       }),
        deferred_pairs_.end());
  }
}

void RedoopDriver::EmitPaneCacheStats(int64_t recurrence) {
  if (Effective(query_.pattern, options_) == EffectivePattern::kNoCaching) {
    return;  // No cache tier enabled; hit/miss is meaningless.
  }
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  for (const QuerySource& qs : query_.sources) {
    for (PaneId p = panes.first; p < panes.last; ++p) {
      auto it = pane_states_.find({qs.id, p});
      if (it == pane_states_.end()) continue;  // Pane carried no data.
      const PaneIngestState& ps = it->second;
      // A pane is cached when every cache its windows read is resident.
      // One lookup per such key, no short cut: each hit refreshes the
      // entry's recency, which budgeted eviction order depends on.
      const std::vector<const CacheKey*> reads = WindowReadManifest(ps);
      bool cached = !reads.empty();
      for (const CacheKey* key : reads) {
        if (!store_->Has(*key)) cached = false;
      }
      const bool built_now =
          panes_built_this_recurrence_.count({qs.id, p}) > 0;
      const bool hit = cached && !built_now;
      if (hit) {
        scope_.Increment(obs::metric::kCachePaneHits);
        scope_.Increment(obs::metric::kCachePaneHitBytes, ps.bytes);
        counters_accum_.Increment(counter::kCachePaneHits);
      } else {
        scope_.Increment(obs::metric::kCachePaneMisses);
        scope_.Increment(obs::metric::kCachePaneMissBytes, ps.bytes);
        counters_accum_.Increment(counter::kCachePaneMisses);
      }
      obs::Event& verdict =
          scope_.Emit(hit ? obs::event::kCachePaneHit
                          : obs::event::kCachePaneMiss)
              .With("recurrence", recurrence)
              .With("source", qs.id)
              .With("pane", p)
              .With("bytes", ps.bytes)
              .With("reason", hit          ? "reused"
                              : built_now ? "built_this_recurrence"
                                          : "uncached");
      // Lineage: a reuse hit consumes the artifact built in an earlier
      // window — name that window so the trace's follows-from edge points
      // at the right pane span even after rebuilds.
      if (hit) {
        auto built = pane_built_window_.find({qs.id, p});
        if (built != pane_built_window_.end()) {
          verdict.With("built_in", built->second);
        }
      }
    }
  }
}

WindowReport RedoopDriver::AssembleWindow(int64_t recurrence) {
  const EffectivePattern pattern = Effective(query_.pattern, options_);
  const PaneRange panes = geometry_.PanesForRecurrence(recurrence);
  const int32_t num_partitions = query_.config.num_reducers;

  EmitPaneCacheStats(recurrence);

  JobSpec spec;
  spec.config = BaseJobConfig(StringPrintf("window-%ld", recurrence));
  spec.output_prefix = query_.OutputPathForRecurrence(recurrence);
  // The per-pane-merge and no-caching windows are one plain job over
  // `spec`; the other patterns produce their output directly.
  auto run_window_job = [&] {
    JobResult result = runner_->Run(spec);
    REDOOP_CHECK(result.status.ok()) << result.status.ToString();
    AccumulateJobStats(result);
    return std::move(result.output);
  };

  WindowReport report;
  report.recurrence = recurrence;
  switch (pattern) {
    case EffectivePattern::kPerPaneMerge: {
      // Merge per-pane partial aggregates (pane-based, not tuple-based).
      spec.config.reducer =
          query_.finalizer ? query_.finalizer : query_.config.reducer;
      const SourceId source = query_.sources[0].id;
      for (PaneId p = panes.first; p < panes.last; ++p) {
        auto caches = controller_.CachesForPane(query_.id, source, p,
                                                CacheType::kReduceOutput);
        auto sides = SideInputsFor(caches);
        spec.side_inputs.insert(spec.side_inputs.end(), sides.begin(),
                                sides.end());
      }
      report.output = run_window_job();
      break;
    }
    case EffectivePattern::kPanePairJoinNoOutputCache:
      // Without pair-output caching, each window is re-joined from the
      // cached reducer inputs — exactly the folded recompute below.
      [[fallthrough]];
    case EffectivePattern::kCachedInputRecompute: {
      // The folded window job (paper Fig. 5): map only the fresh panes,
      // pull the overlapping panes from the reducer-input caches, and keep
      // the fresh panes' shuffled inputs as next window's caches.
      JobSpec folded = BuildFoldedWindowSpec(recurrence);
      folded.config.name = spec.config.name;
      if (query_.finalizer != nullptr &&
          query_.pattern == IncrementalPattern::kPerPaneMerge) {
        // Input-cache-only mode reduces whole windows directly, so the
        // window finalization composes into the reduce per key group.
        folded.config.reducer = std::make_shared<const ComposedReducer>(
            query_.config.reducer, query_.finalizer);
      }
      JobResult result = runner_->Run(folded);
      REDOOP_CHECK(result.status.ok()) << result.status.ToString();
      RegisterJobCaches(result, /*source_for_roc=*/0, kInvalidPane);
      AccumulateJobStats(result);
      FinishFoldedPanes(recurrence);
      report.output = std::move(result.output);
      break;
    }
    case EffectivePattern::kPanePairJoin: {
      if (join_window_override_.has_value()) {
        // The recompute path already produced (and published) the window
        // output in one pass over the cached reducer inputs.
        report.output = std::move(*join_window_override_);
        join_window_override_.reset();
        break;
      }
      // The window result is the union of the in-window pane-pair outputs.
      // Each pair's output was already materialized (and written to the
      // job output area in HDFS) exactly once, when the pair task ran;
      // finalization is a pure metadata union — no re-reading or
      // re-writing of result bytes (this is where the join's Fig. 7 gains
      // come from: Hadoop rewrites the whole window's output every
      // recurrence).
      std::vector<std::shared_ptr<const FlatKvBuffer>> pair_outputs;
      size_t output_records = 0;
      for (PaneId l = panes.first; l < panes.last; ++l) {
        for (PaneId r = panes.first; r < panes.last; ++r) {
          for (int32_t part = 0; part < num_partitions; ++part) {
            const CacheSignature* sig = controller_.Find(
                JoinOutputCacheName(query_.id, l, r, part));
            REDOOP_CHECK(sig != nullptr)
                << "missing pair output " << l << "x" << r << " R" << part;
            if (sig->records == 0) continue;
            const CacheStore::Entry* entry =
                store_->Find(CacheKey::FromName(sig->name));
            REDOOP_CHECK(entry != nullptr);
            pair_outputs.push_back(entry->payload());
            output_records += pair_outputs.back()->size();
          }
        }
      }
      report.output.reserve(output_records);
      for (const auto& pair_output : pair_outputs) {
        pair_output->AppendToKeyValues(&report.output);
      }
      last_join_output_bytes_ = TotalLogicalBytes(report.output);
      break;
    }
    case EffectivePattern::kNoCaching: {
      // Degenerate mode: recompute the window from the pane files.
      for (const QuerySource& qs : query_.sources) {
        spec.per_source_mappers[qs.id] = query_.MapperFor(qs.id);
        for (PaneId p = panes.first; p < panes.last; ++p) {
          auto it = pane_states_.find({qs.id, p});
          if (it == pane_states_.end()) continue;
          for (const FileSlice& slice : it->second.all_slices) {
            MapInput input;
            input.file_name = slice.file_name;
            input.source = qs.id;
            input.pane = p;
            input.record_begin = slice.record_begin;
            input.record_end = slice.record_end;
            spec.map_inputs.push_back(std::move(input));
          }
        }
      }
      report.output = run_window_job();
      break;
    }
  }

  SortByKey(&report.output);
  report.output_records = static_cast<int64_t>(report.output.size());
  for (const QuerySource& qs : query_.sources) {
    for (PaneId p = panes.first; p < panes.last; ++p) {
      auto it = pane_states_.find({qs.id, p});
      if (it != pane_states_.end()) report.window_input_bytes += it->second.bytes;
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Recurrence loop
// ---------------------------------------------------------------------------

StatusOr<WindowReport> RedoopDriver::RunRecurrence(int64_t recurrence) {
  REDOOP_RETURN_IF_ERROR(init_status_);
  if (recurrence != next_recurrence_) {
    return Status::FailedPrecondition(StringPrintf(
        "recurrence %lld out of order (expected %lld): recurrences must "
        "run consecutively",
        static_cast<long long>(recurrence),
        static_cast<long long>(next_recurrence_)));
  }
  ++next_recurrence_;

  const Timestamp trigger = geometry_.TriggerTime(recurrence);
  const Timestamp window_end = geometry_.WindowEnd(recurrence);
  Simulator& sim = cluster_->simulator();

  panes_built_this_recurrence_.clear();
  telemetry_window_ = recurrence;  // Scopes stamp this onto every event.
  // Window trace context: every scope copy points at trace_ctx_, so one
  // store here makes the whole component tree stamp this window's ids.
  // The trace id hashes the same system/query labels the journal stamps.
  const int64_t sample_period = options_.trace.sample_period;
  trace_ctx_.trace_id = obs::trace::TraceIdFor(
      obs_->journal().CommonFieldOr("system", ""), query_.name);
  trace_ctx_.span_id =
      obs::trace::WindowSpanId(trace_ctx_.trace_id, recurrence);
  trace_ctx_.window = recurrence;
  trace_ctx_.sampled =
      sample_period > 0 && recurrence % sample_period == 0;
  obs::Event& open =
      scope_.EmitAt(sim.Now(), obs::event::kWindowOpen)
          .With("recurrence", recurrence)
          .With("trigger", trigger)
          .With("window_begin", geometry_.WindowBegin(recurrence))
          .With("window_end", window_end);
  const double deadline = query_.EffectiveDeadline();
  if (deadline > 0) open.With("deadline", deadline);

  // Fleet admission (DESIGN §17): the coordinator's fair-share queue set
  // this note just before dispatching; journal it inside the window
  // bracket so per-tenant slot-wait lands on the right recurrence.
  if (pending_admission_.has_value()) {
    const FleetAdmission& adm = *pending_admission_;
    scope_.Increment(obs::metric::kFleetAdmitted);
    scope_.Record(obs::metric::kFleetAdmissionWait, adm.wait_s);
    scope_.SetGauge(obs::metric::kFleetQueueDepth,
                    static_cast<double>(adm.queued));
    scope_.EmitAt(sim.Now(), obs::event::kFleetAdmit)
        .With("recurrence", recurrence)
        .With("wait", adm.wait_s)
        .With("queued", adm.queued)
        .With("attained", adm.attained_s)
        .With("weight", adm.weight);
    pending_admission_.reset();
  }

  // 1. Ingest the inter-trigger data; the packer materializes panes and, in
  //    proactive mode, partial processing happens as data lands.
  IngestInterval(geometry_.WindowBegin(recurrence), window_end);
  for (const QuerySource& qs : query_.sources) {
    HandlePaneFiles(qs.id, packers_[qs.id]->FlushUpTo(window_end));
  }
  if (proactive_mode_) DrainWorkLists();

  // 2. Wait for the trigger (or start late if the previous window overran).
  if (sim.Now() < static_cast<SimTime>(trigger)) {
    sim.RunUntil(static_cast<SimTime>(trigger));
  }
  scope_.EmitAt(sim.Now(), obs::event::kWindowTrigger)
      .With("recurrence", recurrence)
      .With("trigger", trigger);

  // 3. Remaining incremental work, failure repair, and window assembly.
  DrainWorkLists();
  EnsureWindowPanes(recurrence);
  PrepareJoinWindow(recurrence);
  WindowReport report = AssembleWindow(recurrence);

  report.trigger_time = trigger;
  report.finished_at = sim.Now();
  report.response_time = sim.Now() - static_cast<SimTime>(trigger);
  if (query_.emit_deltas) {
    report.delta = ComputeWindowDelta(previous_output_, report.output);
    previous_output_ = report.output;
  }
  report.shuffle_time = shuffle_accum_;
  report.reduce_time = reduce_accum_;
  report.map_phase_time = map_phase_accum_;
  report.fresh_input_bytes = fresh_bytes_accum_;
  report.counters = counters_accum_;
  report.task_reports = std::move(task_reports_accum_);
  task_reports_accum_.clear();
  shuffle_accum_ = 0.0;
  reduce_accum_ = 0.0;
  map_phase_accum_ = 0.0;
  fresh_bytes_accum_ = 0;
  counters_accum_ = Counters();

  scope_.Increment(obs::metric::kWindowsCompleted);
  scope_.Record(obs::metric::kWindowResponseTime,
                         report.response_time);
  // Always-sample-on-SLO-violation: an unsampled window that blew its
  // deadline is promoted retroactively, so its completion record (and the
  // teardown that follows) is traceable; the marker explains why stamps
  // appear mid-window.
  if (!trace_ctx_.sampled && trace_ctx_.active() && deadline > 0 &&
      report.response_time > deadline) {
    trace_ctx_.sampled = true;
    scope_.EmitAt(report.finished_at, obs::event::kTraceSample)
        .With("recurrence", recurrence)
        .With("reason", "slo_violation");
  }
  scope_.EmitAt(report.finished_at, obs::event::kWindowComplete)
      .With("recurrence", recurrence)
      .With("trigger", trigger)
      .With("response_time", report.response_time)
      .With("output_records", report.output_records)
      .With("fresh_bytes", report.fresh_input_bytes);

  AfterRecurrence(recurrence, report);
  telemetry_window_ = -1;  // Between-recurrence events are unattributed.
  trace_ctx_ = obs::trace::TraceContext();  // ... and untraced.
  return report;
}

void RedoopDriver::AfterRecurrence(int64_t recurrence,
                                   const WindowReport& report) {
  // The profiler tracks the recurrence's total execution time — the sum of
  // all job time spent for this window, whether it ran before the trigger
  // (proactively) or after. Observing the response time instead would make
  // the control loop disengage proactive mode the moment it helps. The
  // cold recurrence 0 (a whole window of backlog, an order of magnitude
  // above steady state) is excluded — feeding it in poisons the Holt trend
  // with a huge negative slope for several recurrences.
  if (recurrence > 0) {
    profiler_.Observe(std::max(work_accum_, report.response_time),
                      report.fresh_input_bytes);
  }
  work_accum_ = 0.0;

  // Adaptive re-planning (paper §3.3): forecast next execution time; when
  // it threatens the slide budget, switch to finer sub-panes + proactive
  // early processing.
  if (options_.adaptive.enabled && profiler_.observation_count() >= 2) {
    const double budget =
        options_.adaptive.proactive_threshold * static_cast<double>(query_.slide());
    const double forecast = profiler_.Forecast(1);
    const double scale = budget > 0 ? forecast / budget : 0.0;
    for (const QuerySource& qs : query_.sources) {
      const double rate =
          static_cast<double>(source_window_bytes_[qs.id]) /
          static_cast<double>(query_.slide());
      PartitionPlan plan =
          analyzer_.Plan(query_.window(), SourceStatistics{rate});
      plan.pane_size = geometry_.pane_size();  // Grid possibly overridden.
      plan = analyzer_.AdaptPlan(plan, scale, options_.adaptive.max_subpanes);
      packers_[qs.id]->UpdatePlan(plan);
      current_plan_ = plan;
    }
    proactive_mode_ = current_plan_.subpanes_per_pane > 1;
  }
  source_window_bytes_.clear();

  // Expiration: flip doneQueryMask bits, shift the status matrix, route
  // purge notifications to the local cache registries.
  const std::vector<PurgeNotification> notifications =
      controller_.FinishRecurrence(query_.id, recurrence);
  for (const PurgeNotification& n : notifications) {
    const CacheKey key = CacheKey::FromName(n.name);
    if (n.node >= 0 && n.node < cluster_->num_nodes()) {
      registries_[static_cast<size_t>(n.node)]->MarkExpired(key);
      // Master -> node purge notification (paper §4.2) rides the bus too.
      cluster_->heartbeat_bus().Send(n.node, cluster_->simulator().Now(),
                                     "cache-expire", n.name);
    }
    store_->Remove(key);
  }
  // Retire this recurrence's pins, then trim the store back under budget.
  // Doing both here (not lease-by-lease) keeps the victim sequence a pure
  // function of the recurrence boundary, independent of lease destruction
  // order.
  recurrence_leases_.clear();
  store_->EnforceBudget();
  cluster_->heartbeat_bus().DeliverUpTo(cluster_->simulator().Now() +
                                        cluster_->heartbeat_bus().interval());
  // Periodic purging on every live node (paper §4.1).
  for (int32_t n = 0; n < cluster_->num_nodes(); ++n) {
    TaskNode& node = cluster_->node(n);
    if (!node.alive()) continue;
    registries_[static_cast<size_t>(n)]->MaybePeriodicPurge(
        &node, cluster_->simulator().Now());
  }
  // Retire driver-side pane state that no future window can touch, along
  // with the pane files in DFS.
  const PaneRange next_window = geometry_.PanesForRecurrence(recurrence + 1);
  for (auto it = pane_states_.begin(); it != pane_states_.end();) {
    if (it->first.second < next_window.first) {
      for (const FileSlice& slice : it->second.all_slices) {
        if (cluster_->dfs().Exists(slice.file_name)) {
          // Multi-pane files may be shared with a live pane; only drop
          // files whose entire range expired.
          auto file_or = cluster_->dfs().GetFile(slice.file_name);
          if (file_or.ok() &&
              (*file_or)->time_end <=
                  geometry_.PaneBegin(next_window.first)) {
            REDOOP_CHECK_OK(cluster_->dfs().DeleteFile(slice.file_name));
          }
        }
      }
      it = pane_states_.erase(it);
    } else {
      ++it;
    }
  }
}

StatusOr<RunReport> RedoopDriver::Run(int64_t n) {
  RunReport report;
  report.system = options_.adaptive.enabled ? "redoop-adaptive" : "redoop";
  for (int64_t i = 0; i < n; ++i) {
    StatusOr<WindowReport> window = RunRecurrence(i);
    REDOOP_RETURN_IF_ERROR(window.status());
    report.windows.push_back(std::move(window).value());
  }
  report.observability = obs_->metrics().Snapshot();
  // Fold the per-query SLO rollup (deadline attainment, lag, cache hit
  // rate) into the exported snapshot. Derived from the journal alone, so
  // redoop_inspect reproduces these figures from the journal file.
  obs::analysis::AnalysisOptions slo_options;
  slo_options.group_by_query = true;
  obs::slo::ExportTo(obs::slo::ComputeSlo(obs_->journal(), slo_options),
                     &report.observability);
  return report;
}

// ---------------------------------------------------------------------------
// Ad-hoc queries over the cached history
// ---------------------------------------------------------------------------

StatusOr<std::vector<KeyValue>> RedoopDriver::RunAdHocQuery(Timestamp begin,
                                                            Timestamp end) {
  if (query_.pattern != IncrementalPattern::kPerPaneMerge) {
    return Status::InvalidArgument(
        "ad-hoc range queries are supported for aggregation "
        "(kPerPaneMerge) queries");
  }
  if (begin < 0 || end <= begin) {
    return Status::InvalidArgument("empty or negative ad-hoc range");
  }
  const Timestamp pane_size = geometry_.pane_size();
  const PaneId first_pane = begin / pane_size;
  const PaneId last_pane = (end + pane_size - 1) / pane_size;  // Exclusive.
  const SourceId source = query_.sources[0].id;

  JobSpec spec;
  spec.config = BaseJobConfig(
      StringPrintf("adhoc-%ld-%ld", begin, end));
  spec.config.reducer =
      query_.finalizer
          ? std::static_pointer_cast<const Reducer>(
                std::make_shared<const ComposedReducer>(query_.config.reducer,
                                                        query_.finalizer))
          : query_.config.reducer;

  // The retained horizon starts at the oldest pane still tracked; ranges
  // reaching before it cannot be answered (their files were reclaimed).
  if (!pane_states_.empty() &&
      first_pane < pane_states_.begin()->first.second) {
    return Status::OutOfRange(StringPrintf(
        "ad-hoc range starts at pane %ld but history begins at pane %ld",
        first_pane, pane_states_.begin()->first.second));
  }

  for (PaneId p = first_pane; p < last_pane; ++p) {
    auto it = pane_states_.find({source, p});
    if (it == pane_states_.end()) continue;  // Pane carried no data.
    const PaneIngestState& ps = it->second;
    const bool fully_covered =
        begin <= geometry_.PaneBegin(p) && geometry_.PaneEnd(p) <= end;
    const bool has_cached_outputs = fully_covered && !ps.roc_names.empty();
    bool served_from_cache = false;
    if (has_cached_outputs) {
      // Serve the pane from its cached partial outputs.
      served_from_cache = true;
      for (const CacheKey& key : ps.roc_names) {
        const CacheSignature* sig = controller_.Find(key.name());
        if (sig == nullptr || !store_->Has(key)) {
          served_from_cache = false;
          break;
        }
      }
      if (served_from_cache) {
        for (const CacheKey& key : ps.roc_names) {
          AppendSideInput(*controller_.Find(key.name()), &spec.side_inputs);
        }
      }
    }
    if (!served_from_cache) {
      // Re-map the pane's files, clipped to the requested range.
      spec.per_source_mappers[source] =
          std::make_shared<const WindowFilterMapper>(query_.MapperFor(source),
                                                     begin, end);
      for (const FileSlice& slice : ps.all_slices) {
        MapInput input;
        input.file_name = slice.file_name;
        input.source = source;
        input.pane = p;
        input.record_begin = slice.record_begin;
        input.record_end = slice.record_end;
        spec.map_inputs.push_back(std::move(input));
      }
    }
  }

  JobResult result = runner_->Run(spec);
  REDOOP_RETURN_IF_ERROR(result.status);
  AccumulateJobStats(result);
  std::vector<KeyValue> output = std::move(result.output);
  SortByKey(&output);
  return output;
}

// ---------------------------------------------------------------------------
// Failure handling
// ---------------------------------------------------------------------------

void RedoopDriver::OnCacheLossEvent(NodeId node,
                                    const std::vector<std::string>& lost) {
  for (const std::string& name : lost) {
    WindowAwareCacheController::LossImpact impact =
        controller_.OnCacheLost(node, name);
    for (const PurgeNotification& n : impact.lost_caches) {
      store_->Remove(CacheKey::FromName(n.name));
      if (n.node >= 0 && n.node < cluster_->num_nodes()) {
        if (n.node != node && cluster_->node(n.node).alive()) {
          cluster_->node(n.node).DeleteLocalFile(n.name);
        }
        registries_[static_cast<size_t>(n.node)]->Remove(
            CacheKey::FromName(n.name));
      }
    }
  }
}

void RedoopDriver::OnCacheEvicted(const CacheStore::EvictionNotice& notice) {
  // The store already dropped the payload and journaled the eviction; this
  // rolls the *planner* back so the pane reads as recompute-needed: drop
  // the signature, flip the matrix/ready bits, clear stale work-list
  // entries, and purge the node-side metadata and file. No eager rebuild —
  // a future window that actually reads the pane re-materializes it via
  // EnsureWindowPanes / MissingWindowPairs (lazy, no thrash under a tight
  // budget).
  const NodeId node = controller_.OnCacheEvicted(notice.key);
  if (node != kInvalidNode && node < cluster_->num_nodes()) {
    if (cluster_->node(node).alive()) {
      cluster_->node(node).DeleteLocalFile(notice.key.name());
    }
    registries_[static_cast<size_t>(node)]->Remove(notice.key);
  }
  // Fleet dedup (DESIGN §17): the evicted entry may be one physical image
  // shared with other queries — they lose that image too. The fan-out
  // drops the index entry and calls every other holder's EvictFleetPane.
  if (options_.fleet != nullptr &&
      notice.key.kind() != CacheKey::Kind::kJoinOutput) {
    auto it = fleet_pane_keys_.find({notice.key.source(), notice.key.pane()});
    if (it != fleet_pane_keys_.end()) {
      const std::string content_key = it->second;
      fleet_pane_keys_.erase(it);
      options_.fleet->FanoutEviction(content_key, notice.key, query_.id);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet serving (DESIGN §17)
// ---------------------------------------------------------------------------

void RedoopDriver::NoteFleetAdmission(const FleetAdmission& note) {
  pending_admission_ = note;
}

bool RedoopDriver::FleetDedupEligible(
    SourceId source, PaneId pane, const std::vector<FileSlice>& slices,
    const std::vector<int32_t>& active_partitions) const {
  if (options_.fleet == nullptr || !options_.fleet->options().cache_dedup) {
    return false;
  }
  if (query_.pipeline_signature.empty()) return false;
  if (!active_partitions.empty()) return false;  // Partition-scoped rebuild.
  if (Effective(query_.pattern, options_) == EffectivePattern::kNoCaching) {
    return false;
  }
  auto it = pane_states_.find({source, pane});
  if (it == pane_states_.end()) return false;
  const PaneIngestState& ps = it->second;
  // Only the initial, complete, single-chunk build is content-addressable:
  // partial chunks and rebuilds depend on per-query ingest history.
  return ps.complete && ps.chunks_processed == 0 &&
         slices.size() == ps.all_slices.size() && ps.ric_names.empty() &&
         ps.roc_names.empty();
}

std::string RedoopDriver::FleetContentKey(SourceId source, PaneId pane) const {
  return CacheKey::ContentKey(
      query_.pipeline_signature,
      static_cast<int32_t>(Effective(query_.pattern, options_)), source,
      geometry_.pane_size(), pane);
}

bool RedoopDriver::TryAdoptPane(SourceId source, PaneId pane) {
  FleetContext* fleet = options_.fleet;
  const std::string content_key = FleetContentKey(source, pane);
  const std::vector<CacheImage>* published = fleet->dedup().Find(content_key);
  if (published == nullptr) return false;
  // Copied, and this query made a holder, before the first Put: a budget
  // eviction while adopting fans out like any other, and that drops the
  // index entry `published` points into.
  const std::vector<CacheImage> images = *published;
  fleet->dedup().AddHolder(content_key, query_.id);
  fleet_pane_keys_[{source, pane}] = content_key;
  int64_t adopted_bytes = 0;
  for (const CacheImage& image : images) {
    // Register the shared image under this query's own key and signature,
    // at the producer's node placement — exactly what RegisterJobCaches
    // would have done, minus the job.
    const CacheKey key =
        image.is_reduce_output
            ? CacheKey::ReduceOutput(query_.id, source, pane, image.partition)
            : CacheKey::ReduceInput(query_.id, source, pane, image.partition);
    CacheSignature sig;
    sig.name = key.name();
    sig.partition = image.partition;
    sig.node = image.node;
    sig.bytes = image.bytes;
    sig.records = image.records;
    sig.ready = CacheReady::kCacheAvailable;
    sig.type = image.is_reduce_output ? CacheType::kReduceOutput
                                      : CacheType::kReduceInput;
    sig.source = source;
    sig.pane = pane;
    adopted_bytes += sig.bytes;
    RegisterCache(key, std::move(sig), image.payload);
  }
  cluster_->heartbeat_bus().DeliverUpTo(cluster_->simulator().Now());
  ++fleet->stats().dedup_adoptions;
  fleet->stats().dedup_bytes += adopted_bytes;
  scope_.Increment(obs::metric::kFleetDedupAdoptions);
  scope_.Increment(obs::metric::kFleetDedupBytes, adopted_bytes);
  scope_.Emit(obs::event::kFleetAdopt)
      .With("source", static_cast<int64_t>(source))
      .With("pane", static_cast<int64_t>(pane))
      .With("bytes", adopted_bytes)
      .With("images", static_cast<int64_t>(images.size()));
  return true;
}

void RedoopDriver::PublishFleetPane(
    SourceId source, PaneId pane,
    const std::vector<MaterializedCache>& caches) {
  std::vector<CacheImage> images;
  images.reserve(caches.size());
  for (const MaterializedCache& cache : caches) {
    // Only what this query still holds: a recovery-only image its budget
    // evicted while the job's caches were registered is gone, not shared.
    // The lookups leave the recency order as it was: these are the job's
    // own entries, already the most recent of their class, in this order.
    if (!store_->Has(CacheKey::FromName(cache.name))) continue;
    CacheImage image;
    image.is_reduce_output = cache.is_reduce_output;
    image.partition = cache.partition;
    image.node = cache.node;
    image.bytes = cache.bytes;
    image.records = cache.records;
    image.payload = cache.payload;
    images.push_back(std::move(image));
  }
  if (images.empty()) return;
  const std::string content_key = FleetContentKey(source, pane);
  options_.fleet->dedup().Publish(content_key, source, pane,
                                  geometry_.pane_size(), query_.id,
                                  std::move(images));
  fleet_pane_keys_[{source, pane}] = content_key;
  ++options_.fleet->stats().dedup_published;
  scope_.Increment(obs::metric::kFleetDedupPublished);
}

void RedoopDriver::EvictFleetPane(const CacheKey& image) {
  const PaneKey pane_key{image.source(), image.pane()};
  auto it = fleet_pane_keys_.find(pane_key);
  if (it == fleet_pane_keys_.end()) return;
  fleet_pane_keys_.erase(it);
  auto ps_it = pane_states_.find(pane_key);
  if (ps_it == pane_states_.end()) return;
  const PaneIngestState& ps = ps_it->second;
  // This query's copy of the image: the manifest key of the same kind and
  // partition. The pane's other images stay resident.
  const std::vector<CacheKey>& manifest =
      image.kind() == CacheKey::Kind::kReduceInput ? ps.ric_names
                                                   : ps.roc_names;
  int64_t dropped = 0;
  int64_t dropped_bytes = 0;
  for (const CacheKey& key : manifest) {
    if (key.partition() != image.partition()) continue;
    const CacheStore::Entry* entry = store_->Find(key);
    if (entry == nullptr) continue;
    dropped_bytes += entry->bytes;
    store_->Remove(key);  // Remove never re-enters eviction callbacks.
    const NodeId node = controller_.OnCacheEvicted(key);
    if (node != kInvalidNode && node < cluster_->num_nodes()) {
      if (cluster_->node(node).alive()) {
        cluster_->node(node).DeleteLocalFile(key.name());
      }
      registries_[static_cast<size_t>(node)]->Remove(key);
    }
    ++dropped;
  }
  // Manifests stay intact: EnsureWindowPanes sees a missing window-read
  // entry and rebuilds the pane lazily, only when a window reads it.
  scope_.Increment(obs::metric::kFleetDedupEvictFanout);
  scope_.Emit(obs::event::kFleetEvictFanout)
      .With("source", static_cast<int64_t>(image.source()))
      .With("pane", static_cast<int64_t>(image.pane()))
      .With("entries", dropped)
      .With("bytes", dropped_bytes);
}

}  // namespace redoop
