#include "obs/analysis/analysis.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_utils.h"
#include "obs/metric_registry.h"

namespace redoop {
namespace obs {
namespace analysis {

void PhaseBreakdown::Add(const PhaseBreakdown& other) {
  wait += other.wait;
  startup += other.startup;
  read += other.read;
  shuffle += other.shuffle;
  sort += other.sort;
  compute += other.compute;
  write += other.write;
}

void CacheStats::Add(const CacheStats& other) {
  pane_hits += other.pane_hits;
  pane_misses += other.pane_misses;
  pair_hits += other.pair_hits;
  pair_misses += other.pair_misses;
  hit_bytes += other.hit_bytes;
  miss_bytes += other.miss_bytes;
  evictions += other.evictions;
  evicted_bytes += other.evicted_bytes;
}

void FleetWindowStats::Add(const FleetWindowStats& other) {
  admissions += other.admissions;
  admission_wait_s += other.admission_wait_s;
  queued_peak = std::max(queued_peak, other.queued_peak);
  if (other.admissions > 0) {
    attained_s = other.attained_s;
    weight = other.weight;
  }
  scan_hits += other.scan_hits;
  scan_misses += other.scan_misses;
  scan_hit_bytes += other.scan_hit_bytes;
  scan_scanned_bytes += other.scan_scanned_bytes;
  dedup_adoptions += other.dedup_adoptions;
  dedup_bytes += other.dedup_bytes;
  evict_fanouts += other.evict_fanouts;
}

void BlameBreakdown::Add(const BlameBreakdown& other) {
  compute += other.compute;
  cache_wait += other.cache_wait;
  slot_wait += other.slot_wait;
  skew += other.skew;
  recovery += other.recovery;
}

double CacheStats::HitRate() const {
  const double hits = static_cast<double>(pane_hits + pair_hits);
  const double total =
      hits + static_cast<double>(pane_misses + pair_misses);
  return total > 0.0 ? hits / total : 0.0;
}

double SystemAnalysis::TotalResponseTime() const {
  double total = 0.0;
  for (const WindowAnalysis& w : windows) total += w.response_time;
  return total;
}

double SystemAnalysis::TotalCriticalPath() const {
  double total = 0.0;
  for (const WindowAnalysis& w : windows) total += w.critical_path.length;
  return total;
}

double SystemAnalysis::TotalCriticalPathWait() const {
  double total = 0.0;
  for (const WindowAnalysis& w : windows) total += w.critical_path.wait;
  return total;
}

PhaseBreakdown SystemAnalysis::TotalMapPhases() const {
  PhaseBreakdown total;
  for (const WindowAnalysis& w : windows) total.Add(w.map_phases);
  return total;
}

PhaseBreakdown SystemAnalysis::TotalReducePhases() const {
  PhaseBreakdown total;
  for (const WindowAnalysis& w : windows) total.Add(w.reduce_phases);
  return total;
}

FleetWindowStats SystemAnalysis::TotalFleet() const {
  FleetWindowStats total;
  for (const WindowAnalysis& w : windows) total.Add(w.fleet);
  return total;
}

CacheStats SystemAnalysis::TotalCache() const {
  CacheStats total;
  for (const WindowAnalysis& w : windows) total.Add(w.cache);
  return total;
}

BlameBreakdown SystemAnalysis::TotalBlame() const {
  BlameBreakdown total;
  for (const WindowAnalysis& w : windows) total.Add(w.blame);
  return total;
}

int64_t SystemAnalysis::TotalStragglers() const {
  int64_t total = 0;
  for (const WindowAnalysis& w : windows) {
    total += static_cast<int64_t>(w.stragglers.size());
  }
  return total;
}

const SystemAnalysis* RunAnalysis::FindSystem(std::string_view name) const {
  for (const SystemAnalysis& s : systems) {
    if (s.system == name) return &s;
  }
  return nullptr;
}

const SystemAnalysis* RunAnalysis::FindQuery(std::string_view system,
                                             std::string_view query) const {
  for (const SystemAnalysis& s : systems) {
    if (s.system == system && s.query == query) return &s;
  }
  return nullptr;
}

namespace {

PhaseBreakdown PhasesFromFinish(const Event& e) {
  PhaseBreakdown p;
  p.startup = e.DoubleOr("startup", 0.0);
  p.read = e.DoubleOr("read", 0.0);
  p.shuffle = e.DoubleOr("shuffle", 0.0);
  p.sort = e.DoubleOr("sort", 0.0);
  p.compute = e.DoubleOr("compute", 0.0);
  p.write = e.DoubleOr("write", 0.0);
  return p;
}

double MedianDuration(std::vector<double> durations) {
  // Nearest-rank median (upper element for even sizes), matching the
  // histogram quantile convention.
  const size_t n = durations.size();
  const size_t rank = n / 2;  // 0-based: ceil(n/2)-th smallest.
  std::nth_element(durations.begin(),
                   durations.begin() + static_cast<int64_t>(rank),
                   durations.end());
  return durations[rank];
}

/// Critical path of one job: true longest path through the span DAG.
/// Nodes are the job submit, every finished task attempt, and the job
/// finish; edges run submit -> map, map -> reduce (the shuffle barrier),
/// and tail -> finish, weighted by the zero-clamped scheduling gap plus
/// the successor task's duration. On a well-formed journal every
/// (map, reduce) chain telescopes to finish - submit, so all chains tie
/// and the tie-break — prefer the later-ending predecessor — reproduces
/// the wave-tail choice of the heuristic this replaced; on reordered or
/// failure-heavy journals (where clamping bites) the DP maximizes over
/// every chain instead of assuming the last-ending tasks chain up.
void AppendJobCriticalPath(const JobSpan& job, WindowCriticalPath* path) {
  std::vector<const TaskSpan*> maps;
  std::vector<const TaskSpan*> reduces;
  for (const TaskSpan& task : job.tasks) {
    if (!task.finished) continue;
    (task.is_map ? maps : reduces).push_back(&task);
  }

  auto add = [path](std::string label, const TaskSpan* task, double start,
                    double duration, double wait) {
    CriticalPathStep step;
    step.label = std::move(label);
    if (task != nullptr) {
      step.task = task->id;
      step.node = task->node;
    }
    step.start = start;
    step.duration = std::max(0.0, duration);
    step.wait = std::max(0.0, wait);
    path->steps.push_back(std::move(step));
    path->length += std::max(0.0, duration);
    path->wait += std::max(0.0, wait);
  };

  if (maps.empty() && reduces.empty()) {
    add("job", nullptr, job.start, job.Elapsed(), 0.0);
    return;
  }

  // Ties (telescoped chains are equal up to rounding) break toward the
  // later-ending predecessor.
  constexpr double kTieEps = 1e-9;
  auto better = [](double value, double pred_end, double best,
                   double best_pred_end) {
    if (value > best + kTieEps) return true;
    if (value < best - kTieEps) return false;
    return pred_end > best_pred_end;
  };
  auto gap = [](double from_end, double to_start) {
    return std::max(0.0, to_start - from_end);
  };

  // best length of a chain ending at each task (inclusive of its duration).
  std::vector<double> map_best(maps.size());
  for (size_t i = 0; i < maps.size(); ++i) {
    map_best[i] = gap(job.start, maps[i]->start) + maps[i]->duration;
  }
  std::vector<double> reduce_best(reduces.size());
  std::vector<int64_t> reduce_pred(reduces.size(), -1);
  for (size_t j = 0; j < reduces.size(); ++j) {
    if (maps.empty()) {
      reduce_best[j] = gap(job.start, reduces[j]->start) +
                       reduces[j]->duration;
      continue;
    }
    double best = 0.0;
    double best_pred_end = 0.0;
    int64_t best_i = -1;
    for (size_t i = 0; i < maps.size(); ++i) {
      const double value = map_best[i] +
                           gap(maps[i]->end(), reduces[j]->start) +
                           reduces[j]->duration;
      if (best_i < 0 ||
          better(value, maps[i]->end(), best, best_pred_end)) {
        best = value;
        best_pred_end = maps[i]->end();
        best_i = static_cast<int64_t>(i);
      }
    }
    reduce_best[j] = best;
    reduce_pred[j] = best_i;
  }

  // Finish node: tails are the reduces when any ran, else the maps.
  const std::vector<const TaskSpan*>& tails =
      reduces.empty() ? maps : reduces;
  const std::vector<double>& tail_best =
      reduces.empty() ? map_best : reduce_best;
  double best = 0.0;
  double best_pred_end = 0.0;
  int64_t best_tail = -1;
  for (size_t t = 0; t < tails.size(); ++t) {
    const double value = tail_best[t] + gap(tails[t]->end(), job.finish);
    if (best_tail < 0 ||
        better(value, tails[t]->end(), best, best_pred_end)) {
      best = value;
      best_pred_end = tails[t]->end();
      best_tail = static_cast<int64_t>(t);
    }
  }

  const TaskSpan* path_reduce =
      reduces.empty() ? nullptr
                      : reduces[static_cast<size_t>(best_tail)];
  const TaskSpan* path_map = nullptr;
  if (reduces.empty()) {
    path_map = maps[static_cast<size_t>(best_tail)];
  } else if (reduce_pred[static_cast<size_t>(best_tail)] >= 0) {
    path_map = maps[static_cast<size_t>(
        reduce_pred[static_cast<size_t>(best_tail)])];
  }

  const TaskSpan* first = path_map != nullptr ? path_map : path_reduce;
  add("startup", nullptr, job.start, first->start - job.start, first->wait);
  if (path_map != nullptr) {
    add("map", path_map, path_map->start, path_map->duration, 0.0);
  }
  if (path_reduce != nullptr) {
    if (path_map != nullptr) {
      add("barrier", nullptr, path_map->end(),
          path_reduce->start - path_map->end(), path_reduce->wait);
    }
    add("reduce", path_reduce, path_reduce->start, path_reduce->duration,
        0.0);
  }
  const TaskSpan* tail = path_reduce != nullptr ? path_reduce : path_map;
  add("finalize", nullptr, tail->end(), job.finish - tail->end(), 0.0);
}

void FlagStragglers(const WindowAnalysis& window, double k,
                    std::vector<Straggler>* out) {
  for (const JobSpan& job : window.jobs) {
    for (const bool is_map : {true, false}) {
      std::vector<double> wave;
      for (const TaskSpan& task : job.tasks) {
        if (task.finished && task.is_map == is_map) {
          wave.push_back(task.duration);
        }
      }
      if (wave.size() < 2) continue;  // A lone task defines its own median.
      const double median = MedianDuration(wave);
      if (median <= 0.0) continue;
      for (const TaskSpan& task : job.tasks) {
        if (!task.finished || task.is_map != is_map) continue;
        if (task.duration > k * median) {
          Straggler s;
          s.task = task.id;
          s.is_map = task.is_map;
          s.node = task.node;
          s.duration = task.duration;
          s.wave_median = median;
          out->push_back(s);
        }
      }
    }
  }
}

/// Splits a window's critical-path length into blame buckets. Each step
/// contributes exactly its duration, so the buckets sum to the length.
/// Task steps: recovery when the attempt is a re-issue; else skew (excess
/// over the wave median) and, for maps of panes that missed the cache
/// this window, cache-wait (the read time reuse would have saved); the
/// remainder is compute. Gap steps (startup/barrier/finalize) split into
/// slot-wait and compute.
void ComputeBlame(WindowAnalysis* window,
                  const std::set<std::pair<int64_t, int64_t>>& missed) {
  std::map<int64_t, const TaskSpan*> tasks;
  for (const JobSpan& job : window->jobs) {
    for (const TaskSpan& t : job.tasks) tasks[t.id] = &t;
  }
  std::map<int64_t, double> straggler_median;
  for (const Straggler& s : window->stragglers) {
    straggler_median[s.task] = s.wave_median;
  }

  BlameBreakdown& b = window->blame;
  for (const CriticalPathStep& step : window->critical_path.steps) {
    const double d = step.duration;
    const TaskSpan* task = nullptr;
    if (step.task >= 0) {
      auto it = tasks.find(step.task);
      if (it != tasks.end()) task = it->second;
    }
    if (task == nullptr) {
      const double slot = std::min(std::max(0.0, step.wait), d);
      b.slot_wait += slot;
      b.compute += d - slot;
      continue;
    }
    if (task->attempt > 0) {
      b.recovery += d;
      continue;
    }
    double skew_part = 0.0;
    auto sit = straggler_median.find(task->id);
    if (sit != straggler_median.end()) {
      skew_part = std::min(d, std::max(0.0, d - sit->second));
    }
    double cache_part = 0.0;
    if (task->is_map && missed.count({task->source, task->pane}) > 0) {
      cache_part = std::max(0.0, std::min(task->phases.read, d - skew_part));
    }
    b.skew += skew_part;
    b.cache_wait += cache_part;
    b.compute += d - skew_part - cache_part;
  }
}

/// Per-system reconstruction state while scanning the journal.
struct SystemBuilder {
  SystemAnalysis analysis;
  WindowAnalysis window;        // Open window being filled.
  bool window_open = false;
  JobSpan job;                  // Open job being filled.
  bool job_open = false;
  std::map<int64_t, size_t> task_index;  // task id -> index in job.tasks.
  /// Panes that missed the cache this window (blame: their path reads are
  /// cache-wait, not compute). Cleared per window.
  std::set<std::pair<int64_t, int64_t>> missed_panes;

  void FinalizeWindow(double straggler_k) {
    if (job_open) CloseJob();  // Truncated journal: keep partial job.
    for (const JobSpan& j : window.jobs) {
      AppendJobCriticalPath(j, &window.critical_path);
    }
    FlagStragglers(window, straggler_k, &window.stragglers);
    ComputeBlame(&window, missed_panes);
    missed_panes.clear();
    analysis.windows.push_back(std::move(window));
    window = WindowAnalysis();
    window_open = false;
  }

  void CloseJob() {
    if (job.finish <= job.start) {
      // Missing job.finish: extend to the last task span.
      for (const TaskSpan& t : job.tasks) {
        job.finish = std::max(job.finish, t.end());
      }
      job.finish = std::max(job.finish, job.start);
    }
    window.jobs.push_back(std::move(job));
    job = JobSpan();
    job_open = false;
    task_index.clear();
  }

  /// Opens a synthetic window for events arriving outside window.open /
  /// window.complete (defensive; the drivers always bracket).
  void EnsureWindow(double time) {
    if (window_open) return;
    window.recurrence = -1;
    window.open_time = time;
    window.trigger_time = time;
    window_open = true;
  }
};

}  // namespace

Status AnalyzeJournal(const EventJournal& journal,
                      const AnalysisOptions& options, RunAnalysis* out) {
  *out = RunAnalysis();
  std::vector<SystemBuilder> builders;
  std::map<std::string, size_t> builder_index;

  auto builder_for = [&](const Event& e) -> SystemBuilder& {
    const std::string system = e.StrOr("system", "");
    const std::string query =
        options.group_by_query ? e.StrOr("query", "") : std::string();
    // '\n' cannot appear in either value (journal lines are flat), so the
    // concatenation is an unambiguous composite key.
    const std::string key = system + '\n' + query;
    auto it = builder_index.find(key);
    if (it == builder_index.end()) {
      it = builder_index.emplace(key, builders.size()).first;
      builders.emplace_back();
      builders.back().analysis.system = system;
      builders.back().analysis.query = query;
    }
    return builders[it->second];
  };

  for (const Event& e : journal.events()) {
    const std::string& type = e.type();
    if (type == event::kWindowOpen) {
      SystemBuilder& b = builder_for(e);
      if (b.window_open) b.FinalizeWindow(options.straggler_k);
      b.window.recurrence = e.IntOr("recurrence", -1);
      b.window.open_time = e.time();
      b.window.trigger_time = e.DoubleOr("trigger", e.time());
      b.window.deadline_s = e.DoubleOr("deadline", -1.0);
      b.window_open = true;
    } else if (type == event::kWindowTrigger) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      b.window.trigger_time = e.DoubleOr("trigger", e.time());
    } else if (type == event::kWindowComplete) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      b.window.complete_time = e.time();
      b.window.response_time = e.DoubleOr("response_time", 0.0);
      b.FinalizeWindow(options.straggler_k);
    } else if (type == event::kJobStart) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      if (b.job_open) b.CloseJob();
      b.job.name = e.StrOr("job", "");
      b.job.start = e.time();
      b.job_open = true;
    } else if (type == event::kJobFinish) {
      SystemBuilder& b = builder_for(e);
      if (!b.job_open) continue;  // Unmatched finish: nothing to close.
      b.job.finish = e.time();
      b.CloseJob();
    } else if (type == event::kTaskStart) {
      SystemBuilder& b = builder_for(e);
      if (!b.job_open) continue;
      TaskSpan task;
      task.id = e.IntOr("task", -1);
      task.is_map = e.StrOr("kind", "map") == "map";
      task.node = e.IntOr("node", -1);
      task.attempt = e.IntOr("attempt", 0);
      task.source = e.IntOr("source", 0);
      task.pane = e.IntOr("pane", -1);
      task.partition = e.IntOr("partition", -1);
      task.start = e.time();
      task.wait = e.DoubleOr("wait", 0.0);
      b.task_index[task.id] = b.job.tasks.size();
      b.job.tasks.push_back(std::move(task));
    } else if (type == event::kTaskFinish) {
      SystemBuilder& b = builder_for(e);
      if (!b.job_open) continue;
      const int64_t id = e.IntOr("task", -1);
      auto it = b.task_index.find(id);
      if (it == b.task_index.end()) {
        // Pre-span journal (no task.start): synthesize from the finish.
        TaskSpan task;
        task.id = id;
        task.is_map = e.StrOr("kind", "map") == "map";
        task.source = e.IntOr("source", 0);
        task.pane = e.IntOr("pane", -1);
        task.partition = e.IntOr("partition", -1);
        task.start = e.DoubleOr("start", e.time());
        it = b.task_index.emplace(id, b.job.tasks.size()).first;
        b.job.tasks.push_back(std::move(task));
      }
      TaskSpan& task = b.job.tasks[it->second];
      task.node = e.IntOr("node", task.node);
      task.attempt = e.IntOr("attempt", task.attempt);
      task.duration = e.DoubleOr("duration", e.time() - task.start);
      task.phases = PhasesFromFinish(e);
      task.phases.wait = task.wait;  // The slot wait is journaled at start.
      task.finished = true;
      (task.is_map ? b.window.map_phases : b.window.reduce_phases)
          .Add(task.phases);
    } else if (type == event::kTaskFail) {
      SystemBuilder& b = builder_for(e);
      if (b.window_open) ++b.window.failed_attempts;
    } else if (type == event::kTaskSpeculate) {
      SystemBuilder& b = builder_for(e);
      if (b.window_open) ++b.window.speculative_attempts;
    } else if (type == event::kCachePaneHit || type == event::kCachePaneMiss) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      const bool hit = type == event::kCachePaneHit;
      const int64_t bytes = e.IntOr("bytes", 0);
      if (hit) {
        ++b.window.cache.pane_hits;
        b.window.cache.hit_bytes += bytes;
      } else {
        ++b.window.cache.pane_misses;
        b.window.cache.miss_bytes += bytes;
        b.missed_panes.insert({e.IntOr("source", -1), e.IntOr("pane", -1)});
      }
    } else if (type == event::kCachePairHit || type == event::kCachePairMiss) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      const int64_t count = e.IntOr("count", 1);
      if (type == event::kCachePairHit) {
        b.window.cache.pair_hits += count;
      } else {
        b.window.cache.pair_misses += count;
      }
    } else if (type == event::kFleetAdmit) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      ++b.window.fleet.admissions;
      b.window.fleet.admission_wait_s += e.DoubleOr("wait", 0.0);
      b.window.fleet.queued_peak =
          std::max(b.window.fleet.queued_peak, e.IntOr("queued", 0));
      b.window.fleet.attained_s = e.DoubleOr("attained", 0.0);
      b.window.fleet.weight = e.DoubleOr("weight", 1.0);
    } else if (type == event::kFleetScan) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      b.window.fleet.scan_hits += e.IntOr("hits", 0);
      b.window.fleet.scan_misses += e.IntOr("misses", 0);
      // "bytes" is everything served; "scanned_bytes" the part that hit
      // the inner feed. The difference is what shared scans saved.
      b.window.fleet.scan_hit_bytes +=
          e.IntOr("bytes", 0) - e.IntOr("scanned_bytes", 0);
      b.window.fleet.scan_scanned_bytes += e.IntOr("scanned_bytes", 0);
    } else if (type == event::kFleetAdopt) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      ++b.window.fleet.dedup_adoptions;
      b.window.fleet.dedup_bytes += e.IntOr("bytes", 0);
    } else if (type == event::kFleetEvictFanout) {
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      ++b.window.fleet.evict_fanouts;
    } else if (type == event::kCachePaneEvict) {
      // Budget evictions can land between recurrences (EnforceBudget at
      // the recurrence boundary); charge them to the open window when one
      // exists, else to the next window that opens.
      SystemBuilder& b = builder_for(e);
      b.EnsureWindow(e.time());
      ++b.window.cache.evictions;
      b.window.cache.evicted_bytes += e.IntOr("bytes", 0);
    }
  }

  for (SystemBuilder& b : builders) {
    if (b.window_open) b.FinalizeWindow(options.straggler_k);
    out->systems.push_back(std::move(b.analysis));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

namespace {

std::string PhaseJson(const PhaseBreakdown& p) {
  return StringPrintf(
      "{\"wait\": %s, \"startup\": %s, \"read\": %s, \"shuffle\": %s, "
      "\"sort\": %s, \"compute\": %s, \"write\": %s, \"total\": %s}",
      FormatDouble(p.wait).c_str(), FormatDouble(p.startup).c_str(),
      FormatDouble(p.read).c_str(), FormatDouble(p.shuffle).c_str(),
      FormatDouble(p.sort).c_str(), FormatDouble(p.compute).c_str(),
      FormatDouble(p.write).c_str(), FormatDouble(p.TaskTotal()).c_str());
}

std::string CacheJson(const CacheStats& c) {
  return StringPrintf(
      "{\"pane_hits\": %lld, \"pane_misses\": %lld, \"pair_hits\": %lld, "
      "\"pair_misses\": %lld, \"hit_bytes\": %lld, \"miss_bytes\": %lld, "
      "\"evictions\": %lld, \"evicted_bytes\": %lld, \"hit_rate\": %s}",
      static_cast<long long>(c.pane_hits),
      static_cast<long long>(c.pane_misses),
      static_cast<long long>(c.pair_hits),
      static_cast<long long>(c.pair_misses),
      static_cast<long long>(c.hit_bytes),
      static_cast<long long>(c.miss_bytes),
      static_cast<long long>(c.evictions),
      static_cast<long long>(c.evicted_bytes),
      FormatDouble(c.HitRate()).c_str());
}

void AppendPhaseRow(std::string* out, const char* label,
                    const PhaseBreakdown& p) {
  *out += StringPrintf(
      "  %-7s wait=%-9s startup=%-9s read=%-9s shuffle=%-9s sort=%-9s "
      "compute=%-9s write=%-9s total=%s\n",
      label, FormatDouble(p.wait).c_str(), FormatDouble(p.startup).c_str(),
      FormatDouble(p.read).c_str(), FormatDouble(p.shuffle).c_str(),
      FormatDouble(p.sort).c_str(), FormatDouble(p.compute).c_str(),
      FormatDouble(p.write).c_str(), FormatDouble(p.TaskTotal()).c_str());
}

}  // namespace

namespace {

// "system X" / "system X query Y" — group heading shared by both text
// renderers; the query segment only appears for per-query groupings so
// ungrouped output is unchanged.
std::string GroupHeading(const SystemAnalysis& s) {
  std::string out = StringPrintf(
      "system %s", s.system.empty() ? "(unnamed)" : s.system.c_str());
  if (!s.query.empty()) {
    out += StringPrintf(" query %s", s.query.c_str());
  }
  return out;
}

}  // namespace

std::string BreakdownToText(const RunAnalysis& analysis) {
  std::string out;
  for (const SystemAnalysis& s : analysis.systems) {
    out += StringPrintf("=== %s: %zu windows, total response %s s ===\n",
                        GroupHeading(s).c_str(), s.windows.size(),
                        FormatDouble(s.TotalResponseTime()).c_str());
    for (const WindowAnalysis& w : s.windows) {
      const CacheStats& c = w.cache;
      out += StringPrintf(
          "window %ld: response=%s s  jobs=%zu  cache %lld/%lld hits "
          "(%s hit rate, %lld bytes reused)\n",
          w.recurrence, FormatDouble(w.response_time).c_str(), w.jobs.size(),
          static_cast<long long>(c.pane_hits + c.pair_hits),
          static_cast<long long>(c.pane_hits + c.pair_hits + c.pane_misses +
                                 c.pair_misses),
          FormatDouble(c.HitRate()).c_str(),
          static_cast<long long>(c.hit_bytes));
      AppendPhaseRow(&out, "map", w.map_phases);
      AppendPhaseRow(&out, "reduce", w.reduce_phases);
    }
    out += "totals:\n";
    AppendPhaseRow(&out, "map", s.TotalMapPhases());
    AppendPhaseRow(&out, "reduce", s.TotalReducePhases());
    const CacheStats total = s.TotalCache();
    out += StringPrintf(
        "  cache   pane %lld/%lld  pair %lld/%lld  hit rate %s  reused "
        "%lld bytes\n",
        static_cast<long long>(total.pane_hits),
        static_cast<long long>(total.pane_hits + total.pane_misses),
        static_cast<long long>(total.pair_hits),
        static_cast<long long>(total.pair_hits + total.pair_misses),
        FormatDouble(total.HitRate()).c_str(),
        static_cast<long long>(total.hit_bytes));
    if (total.evictions > 0) {
      out += StringPrintf(
          "  evict   %lld panes (%lld bytes) pushed out by the byte "
          "budget\n",
          static_cast<long long>(total.evictions),
          static_cast<long long>(total.evicted_bytes));
    }
  }
  return out;
}

std::string BreakdownToJson(const RunAnalysis& analysis) {
  std::string out = "{\"systems\": [";
  bool first_system = true;
  for (const SystemAnalysis& s : analysis.systems) {
    out += first_system ? "\n" : ",\n";
    first_system = false;
    out += StringPrintf("{\"system\": \"%s\", \"query\": \"%s\", "
                        "\"windows\": [",
                        s.system.c_str(), s.query.c_str());
    bool first_window = true;
    for (const WindowAnalysis& w : s.windows) {
      out += first_window ? "\n" : ",\n";
      first_window = false;
      out += StringPrintf(
          "{\"recurrence\": %ld, \"response_time\": %s, \"jobs\": %zu, "
          "\"map\": %s, \"reduce\": %s, \"cache\": %s, "
          "\"critical_path\": {\"length\": %s, \"wait\": %s}, "
          "\"stragglers\": %zu, \"failed_attempts\": %lld, "
          "\"speculations\": %lld}",
          w.recurrence, FormatDouble(w.response_time).c_str(), w.jobs.size(),
          PhaseJson(w.map_phases).c_str(), PhaseJson(w.reduce_phases).c_str(),
          CacheJson(w.cache).c_str(),
          FormatDouble(w.critical_path.length).c_str(),
          FormatDouble(w.critical_path.wait).c_str(), w.stragglers.size(),
          static_cast<long long>(w.failed_attempts),
          static_cast<long long>(w.speculative_attempts));
    }
    out += StringPrintf(
        "\n], \"totals\": {\"response_time\": %s, \"map\": %s, "
        "\"reduce\": %s, \"cache\": %s, \"critical_path\": %s, "
        "\"critical_path_wait\": %s, \"stragglers\": %lld}}",
        FormatDouble(s.TotalResponseTime()).c_str(),
        PhaseJson(s.TotalMapPhases()).c_str(),
        PhaseJson(s.TotalReducePhases()).c_str(),
        CacheJson(s.TotalCache()).c_str(),
        FormatDouble(s.TotalCriticalPath()).c_str(),
        FormatDouble(s.TotalCriticalPathWait()).c_str(),
        static_cast<long long>(s.TotalStragglers()));
  }
  out += "\n]}\n";
  return out;
}

namespace {

std::string BlameText(const BlameBreakdown& b) {
  return StringPrintf(
      "compute=%s cache_wait=%s slot_wait=%s skew=%s recovery=%s",
      FormatDouble(b.compute).c_str(), FormatDouble(b.cache_wait).c_str(),
      FormatDouble(b.slot_wait).c_str(), FormatDouble(b.skew).c_str(),
      FormatDouble(b.recovery).c_str());
}

std::string BlameJson(const BlameBreakdown& b) {
  return StringPrintf(
      "{\"compute\": %s, \"cache_wait\": %s, \"slot_wait\": %s, "
      "\"skew\": %s, \"recovery\": %s}",
      FormatDouble(b.compute).c_str(), FormatDouble(b.cache_wait).c_str(),
      FormatDouble(b.slot_wait).c_str(), FormatDouble(b.skew).c_str(),
      FormatDouble(b.recovery).c_str());
}

}  // namespace

std::string CriticalPathToText(const RunAnalysis& analysis) {
  std::string out;
  for (const SystemAnalysis& s : analysis.systems) {
    out += StringPrintf(
        "=== %s: critical path %s s over %zu windows "
        "(slot-wait %s s) ===\n",
        GroupHeading(s).c_str(),
        FormatDouble(s.TotalCriticalPath()).c_str(), s.windows.size(),
        FormatDouble(s.TotalCriticalPathWait()).c_str());
    out += StringPrintf("blame: %s\n", BlameText(s.TotalBlame()).c_str());
    for (const WindowAnalysis& w : s.windows) {
      out += StringPrintf(
          "window %ld: path=%s s  wait=%s s  response=%s s\n", w.recurrence,
          FormatDouble(w.critical_path.length).c_str(),
          FormatDouble(w.critical_path.wait).c_str(),
          FormatDouble(w.response_time).c_str());
      out += StringPrintf("  blame: %s\n", BlameText(w.blame).c_str());
      for (const CriticalPathStep& step : w.critical_path.steps) {
        out += StringPrintf("  %-9s", step.label.c_str());
        if (step.task >= 0) {
          out += StringPrintf(" task=%-6ld node=%-4ld", step.task, step.node);
        } else {
          out += StringPrintf(" %-22s", "");
        }
        out += StringPrintf(" start=%-10s dur=%-10s wait=%s\n",
                            FormatDouble(step.start).c_str(),
                            FormatDouble(step.duration).c_str(),
                            FormatDouble(step.wait).c_str());
      }
      for (const Straggler& straggler : w.stragglers) {
        out += StringPrintf(
            "  straggler %s task=%ld node=%ld dur=%s s (wave median %s s)\n",
            straggler.is_map ? "map" : "reduce", straggler.task,
            straggler.node, FormatDouble(straggler.duration).c_str(),
            FormatDouble(straggler.wave_median).c_str());
      }
    }
  }
  return out;
}

std::string CriticalPathToJson(const RunAnalysis& analysis) {
  std::string out = "{\"systems\": [";
  bool first_system = true;
  for (const SystemAnalysis& s : analysis.systems) {
    out += first_system ? "\n" : ",\n";
    first_system = false;
    out += StringPrintf("{\"system\": \"%s\", \"query\": \"%s\", "
                        "\"windows\": [",
                        s.system.c_str(), s.query.c_str());
    bool first_window = true;
    for (const WindowAnalysis& w : s.windows) {
      out += first_window ? "\n" : ",\n";
      first_window = false;
      out += StringPrintf(
          "{\"recurrence\": %ld, \"length\": %s, \"wait\": %s, "
          "\"response_time\": %s, \"steps\": [",
          w.recurrence, FormatDouble(w.critical_path.length).c_str(),
          FormatDouble(w.critical_path.wait).c_str(),
          FormatDouble(w.response_time).c_str());
      bool first_step = true;
      for (const CriticalPathStep& step : w.critical_path.steps) {
        out += first_step ? "" : ", ";
        first_step = false;
        out += StringPrintf(
            "{\"label\": \"%s\", \"task\": %ld, \"node\": %ld, "
            "\"start\": %s, \"duration\": %s, \"wait\": %s}",
            step.label.c_str(), step.task, step.node,
            FormatDouble(step.start).c_str(),
            FormatDouble(step.duration).c_str(),
            FormatDouble(step.wait).c_str());
      }
      out += "], \"stragglers\": [";
      bool first_straggler = true;
      for (const Straggler& straggler : w.stragglers) {
        out += first_straggler ? "" : ", ";
        first_straggler = false;
        out += StringPrintf(
            "{\"task\": %ld, \"kind\": \"%s\", \"node\": %ld, "
            "\"duration\": %s, \"wave_median\": %s}",
            straggler.task, straggler.is_map ? "map" : "reduce",
            straggler.node, FormatDouble(straggler.duration).c_str(),
            FormatDouble(straggler.wave_median).c_str());
      }
      out += StringPrintf("], \"blame\": %s}", BlameJson(w.blame).c_str());
    }
    out += StringPrintf(
        "\n], \"totals\": {\"length\": %s, \"wait\": %s, "
        "\"stragglers\": %lld, \"blame\": %s}}",
        FormatDouble(s.TotalCriticalPath()).c_str(),
        FormatDouble(s.TotalCriticalPathWait()).c_str(),
        static_cast<long long>(s.TotalStragglers()),
        BlameJson(s.TotalBlame()).c_str());
  }
  out += "\n]}\n";
  return out;
}

}  // namespace analysis
}  // namespace obs
}  // namespace redoop
