#include "obs/slo/slo_tracker.h"

#include <algorithm>

#include "common/string_utils.h"

namespace redoop {
namespace obs {
namespace slo {

const QuerySlo* SloReport::Find(std::string_view system,
                                std::string_view query) const {
  for (const QuerySlo& q : queries) {
    if (q.system == system && q.query == query) return &q;
  }
  return nullptr;
}

SloReport ComputeSlo(const analysis::RunAnalysis& analysis) {
  SloReport report;
  for (const analysis::SystemAnalysis& s : analysis.systems) {
    QuerySlo q;
    q.system = s.system;
    q.query = s.query;
    for (const analysis::WindowAnalysis& w : s.windows) {
      ++q.windows;
      q.total_response_s += w.response_time;
      q.max_response_s = std::max(q.max_response_s, w.response_time);
      if (w.deadline_s >= 0.0) {
        q.deadline_s = w.deadline_s;
        ++q.windows_with_deadline;
        // Completing exactly at the deadline meets it; the epsilon keeps
        // "response == deadline" stable across double round-trips.
        const double lag = w.response_time - w.deadline_s;
        if (lag <= 1e-9) {
          ++q.deadline_met;
          q.last_lag_s = 0.0;
        } else {
          ++q.deadline_missed;
          q.total_lag_s += lag;
          q.max_lag_s = std::max(q.max_lag_s, lag);
          q.last_lag_s = lag;
        }
      }
      q.cache_hits += w.cache.pane_hits + w.cache.pair_hits;
      q.cache_misses += w.cache.pane_misses + w.cache.pair_misses;
      q.cache_hit_bytes += w.cache.hit_bytes;
      q.cache_evictions += w.cache.evictions;
      q.cache_evicted_bytes += w.cache.evicted_bytes;
      q.slot_wait_s += w.map_phases.wait + w.reduce_phases.wait;
      q.stragglers += static_cast<int64_t>(w.stragglers.size());
      q.failed_attempts += w.failed_attempts;
      q.speculative_attempts += w.speculative_attempts;
      q.fleet_admissions += w.fleet.admissions;
      q.fleet_admission_wait_s += w.fleet.admission_wait_s;
      q.fleet_queued_peak = std::max(q.fleet_queued_peak,
                                     w.fleet.queued_peak);
      if (w.fleet.admissions > 0) {
        q.fleet_attained_s = w.fleet.attained_s;
        q.fleet_weight = w.fleet.weight;
      }
      q.fleet_scan_hits += w.fleet.scan_hits;
      q.fleet_scan_misses += w.fleet.scan_misses;
      q.fleet_scan_hit_bytes += w.fleet.scan_hit_bytes;
      q.fleet_scan_scanned_bytes += w.fleet.scan_scanned_bytes;
      q.fleet_adoptions += w.fleet.dedup_adoptions;
      q.fleet_adopted_bytes += w.fleet.dedup_bytes;
      q.fleet_evict_fanouts += w.fleet.evict_fanouts;
    }
    report.queries.push_back(std::move(q));
  }
  std::sort(report.queries.begin(), report.queries.end(),
            [](const QuerySlo& a, const QuerySlo& b) {
              if (a.system != b.system) return a.system < b.system;
              return a.query < b.query;
            });
  return report;
}

SloReport ComputeSlo(const EventJournal& journal,
                     const analysis::AnalysisOptions& options) {
  analysis::RunAnalysis analysis;
  // AnalyzeJournal cannot fail today (it returns OK for any journal), but
  // stay defensive: an error yields an empty report.
  if (!AnalyzeJournal(journal, options, &analysis).ok()) return SloReport();
  return ComputeSlo(analysis);
}

void ExportTo(const SloReport& report, MetricsSnapshot* snapshot) {
  for (const QuerySlo& q : report.queries) {
    auto counter = [&](const char* name, int64_t value) {
      snapshot->counters[LabeledName(name, q.query)] = value;
    };
    auto gauge = [&](const char* name, double value) {
      snapshot->gauges[LabeledName(name, q.query)] = value;
    };
    counter("slo.windows", q.windows);
    if (q.windows_with_deadline > 0) {
      counter("slo.deadline.met", q.deadline_met);
      counter("slo.deadline.missed", q.deadline_missed);
      gauge("slo.attainment", q.Attainment());
      gauge("slo.deadline_s", q.deadline_s);
      gauge("slo.lag.total_s", q.total_lag_s);
      gauge("slo.lag.max_s", q.max_lag_s);
      gauge("slo.lag.last_s", q.last_lag_s);
    }
    gauge("slo.response.mean_s", q.MeanResponse());
    gauge("slo.response.max_s", q.max_response_s);
    gauge("slo.cache.hit_rate", q.CacheHitRate());
    counter("slo.cache.hit.bytes", q.cache_hit_bytes);
    counter("slo.cache.evictions", q.cache_evictions);
    counter("slo.cache.evicted.bytes", q.cache_evicted_bytes);
    gauge("slo.slot_wait_s", q.slot_wait_s);
    counter("slo.stragglers", q.stragglers);
    // Fleet figures only exist for coordinator-served queries; gating on
    // activity keeps single-driver exports (and their goldens) unchanged.
    if (q.FleetActive()) {
      counter("slo.fleet.admissions", q.fleet_admissions);
      gauge("slo.fleet.admission.wait_s", q.fleet_admission_wait_s);
      counter("slo.fleet.queued.peak", q.fleet_queued_peak);
      gauge("slo.fleet.attained_s", q.fleet_attained_s);
      gauge("slo.fleet.weight", q.fleet_weight);
      counter("slo.fleet.scan.hits", q.fleet_scan_hits);
      counter("slo.fleet.scan.misses", q.fleet_scan_misses);
      counter("slo.fleet.scan.hit.bytes", q.fleet_scan_hit_bytes);
      counter("slo.fleet.scan.scanned.bytes", q.fleet_scan_scanned_bytes);
      counter("slo.fleet.adoptions", q.fleet_adoptions);
      counter("slo.fleet.adopted.bytes", q.fleet_adopted_bytes);
      counter("slo.fleet.evict.fanouts", q.fleet_evict_fanouts);
    }
  }
}

namespace {

std::string QueryLabel(const QuerySlo& q) {
  std::string out = q.system.empty() ? "(unnamed)" : q.system;
  if (!q.query.empty()) {
    out += "/";
    out += q.query;
  }
  return out;
}

}  // namespace

std::string SloReport::ToText() const {
  std::string out;
  for (const QuerySlo& q : queries) {
    out += StringPrintf("=== %s: %lld windows ===\n", QueryLabel(q).c_str(),
                        static_cast<long long>(q.windows));
    if (q.windows_with_deadline > 0) {
      out += StringPrintf(
          "  deadline    %s s  met %lld/%lld  attainment %s\n",
          FormatDouble(q.deadline_s).c_str(),
          static_cast<long long>(q.deadline_met),
          static_cast<long long>(q.windows_with_deadline),
          FormatDouble(q.Attainment()).c_str());
      out += StringPrintf("  lag         total %s s  max %s s  last %s s\n",
                          FormatDouble(q.total_lag_s).c_str(),
                          FormatDouble(q.max_lag_s).c_str(),
                          FormatDouble(q.last_lag_s).c_str());
    } else {
      out += "  deadline    none configured\n";
    }
    out += StringPrintf("  response    mean %s s  max %s s\n",
                        FormatDouble(q.MeanResponse()).c_str(),
                        FormatDouble(q.max_response_s).c_str());
    out += StringPrintf(
        "  cache       hit rate %s (%lld/%lld, %lld bytes reused)\n",
        FormatDouble(q.CacheHitRate()).c_str(),
        static_cast<long long>(q.cache_hits),
        static_cast<long long>(q.cache_hits + q.cache_misses),
        static_cast<long long>(q.cache_hit_bytes));
    out += StringPrintf(
        "  evictions   %lld (%lld bytes reclaimed by the budget)\n",
        static_cast<long long>(q.cache_evictions),
        static_cast<long long>(q.cache_evicted_bytes));
    out += StringPrintf("  slot wait   %s s\n",
                        FormatDouble(q.slot_wait_s).c_str());
    out += StringPrintf(
        "  stragglers  %lld (%s per window)  failed %lld  speculative "
        "%lld\n",
        static_cast<long long>(q.stragglers),
        FormatDouble(q.StragglerIncidence()).c_str(),
        static_cast<long long>(q.failed_attempts),
        static_cast<long long>(q.speculative_attempts));
  }
  return out;
}

std::string SloReport::ToJson() const {
  std::string out = "{\"queries\": [";
  bool first = true;
  for (const QuerySlo& q : queries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StringPrintf(
        "{\"system\": \"%s\", \"query\": \"%s\", \"windows\": %lld, "
        "\"deadline_s\": %s, \"windows_with_deadline\": %lld, "
        "\"deadline_met\": %lld, \"deadline_missed\": %lld, "
        "\"attainment\": %s, \"response_mean_s\": %s, "
        "\"response_max_s\": %s, \"lag_total_s\": %s, \"lag_max_s\": %s, "
        "\"lag_last_s\": %s, \"cache_hits\": %lld, \"cache_misses\": %lld, "
        "\"cache_hit_rate\": %s, \"cache_hit_bytes\": %lld, "
        "\"cache_evictions\": %lld, \"cache_evicted_bytes\": %lld, "
        "\"slot_wait_s\": %s, \"stragglers\": %lld, "
        "\"straggler_incidence\": %s, \"failed_attempts\": %lld, "
        "\"speculative_attempts\": %lld}",
        q.system.c_str(), q.query.c_str(),
        static_cast<long long>(q.windows),
        FormatDouble(q.deadline_s).c_str(),
        static_cast<long long>(q.windows_with_deadline),
        static_cast<long long>(q.deadline_met),
        static_cast<long long>(q.deadline_missed),
        FormatDouble(q.Attainment()).c_str(),
        FormatDouble(q.MeanResponse()).c_str(),
        FormatDouble(q.max_response_s).c_str(),
        FormatDouble(q.total_lag_s).c_str(),
        FormatDouble(q.max_lag_s).c_str(),
        FormatDouble(q.last_lag_s).c_str(),
        static_cast<long long>(q.cache_hits),
        static_cast<long long>(q.cache_misses),
        FormatDouble(q.CacheHitRate()).c_str(),
        static_cast<long long>(q.cache_hit_bytes),
        static_cast<long long>(q.cache_evictions),
        static_cast<long long>(q.cache_evicted_bytes),
        FormatDouble(q.slot_wait_s).c_str(),
        static_cast<long long>(q.stragglers),
        FormatDouble(q.StragglerIncidence()).c_str(),
        static_cast<long long>(q.failed_attempts),
        static_cast<long long>(q.speculative_attempts));
  }
  out += "\n]}\n";
  return out;
}

std::string FleetToText(const SloReport& report) {
  std::string out;
  for (const QuerySlo& q : report.queries) {
    out += StringPrintf("=== %s: %lld windows ===\n", QueryLabel(q).c_str(),
                        static_cast<long long>(q.windows));
    if (!q.FleetActive()) {
      out += "  not fleet-served (no fleet.* events in the journal)\n";
      continue;
    }
    out += StringPrintf(
        "  admission   %lld admits  wait total %s s (mean %s s)  queued "
        "peak %lld\n",
        static_cast<long long>(q.fleet_admissions),
        FormatDouble(q.fleet_admission_wait_s).c_str(),
        FormatDouble(q.FleetMeanAdmissionWait()).c_str(),
        static_cast<long long>(q.fleet_queued_peak));
    out += StringPrintf("  fair share  weight %s  attained %s weighted s\n",
                        FormatDouble(q.fleet_weight).c_str(),
                        FormatDouble(q.fleet_attained_s).c_str());
    out += StringPrintf(
        "  shared scan hit rate %s (%lld/%lld batches, %lld bytes not "
        "re-read, %lld scanned)\n",
        FormatDouble(q.FleetScanHitRate()).c_str(),
        static_cast<long long>(q.fleet_scan_hits),
        static_cast<long long>(q.fleet_scan_hits + q.fleet_scan_misses),
        static_cast<long long>(q.fleet_scan_hit_bytes),
        static_cast<long long>(q.fleet_scan_scanned_bytes));
    out += StringPrintf(
        "  dedup       %lld panes adopted (%lld bytes shared)  evict "
        "fan-outs %lld\n",
        static_cast<long long>(q.fleet_adoptions),
        static_cast<long long>(q.fleet_adopted_bytes),
        static_cast<long long>(q.fleet_evict_fanouts));
  }
  return out;
}

std::string FleetToJson(const SloReport& report) {
  std::string out = "{\"queries\": [";
  bool first = true;
  for (const QuerySlo& q : report.queries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StringPrintf(
        "{\"system\": \"%s\", \"query\": \"%s\", \"windows\": %lld, "
        "\"fleet_served\": %s, \"admissions\": %lld, "
        "\"admission_wait_s\": %s, \"queued_peak\": %lld, "
        "\"weight\": %s, \"attained_s\": %s, \"scan_hits\": %lld, "
        "\"scan_misses\": %lld, \"scan_hit_rate\": %s, "
        "\"scan_hit_bytes\": %lld, \"scan_scanned_bytes\": %lld, "
        "\"adoptions\": %lld, \"adopted_bytes\": %lld, "
        "\"evict_fanouts\": %lld}",
        q.system.c_str(), q.query.c_str(),
        static_cast<long long>(q.windows),
        q.FleetActive() ? "true" : "false",
        static_cast<long long>(q.fleet_admissions),
        FormatDouble(q.fleet_admission_wait_s).c_str(),
        static_cast<long long>(q.fleet_queued_peak),
        FormatDouble(q.fleet_weight).c_str(),
        FormatDouble(q.fleet_attained_s).c_str(),
        static_cast<long long>(q.fleet_scan_hits),
        static_cast<long long>(q.fleet_scan_misses),
        FormatDouble(q.FleetScanHitRate()).c_str(),
        static_cast<long long>(q.fleet_scan_hit_bytes),
        static_cast<long long>(q.fleet_scan_scanned_bytes),
        static_cast<long long>(q.fleet_adoptions),
        static_cast<long long>(q.fleet_adopted_bytes),
        static_cast<long long>(q.fleet_evict_fanouts));
  }
  out += "\n]}\n";
  return out;
}

bool TopKeyValue(const QuerySlo& q, std::string_view by, double* value) {
  if (by == "cache_bytes") {
    *value = static_cast<double>(q.cache_hit_bytes);
  } else if (by == "slot_wait") {
    *value = q.slot_wait_s;
  } else if (by == "lag") {
    *value = q.total_lag_s;
  } else if (by == "response") {
    *value = q.total_response_s;
  } else {
    return false;
  }
  return true;
}

namespace {

std::vector<const QuerySlo*> RankedQueries(const SloReport& report,
                                           const TopOptions& options) {
  std::vector<const QuerySlo*> ranked;
  for (const QuerySlo& q : report.queries) ranked.push_back(&q);
  std::sort(ranked.begin(), ranked.end(),
            [&](const QuerySlo* a, const QuerySlo* b) {
              double va = 0.0, vb = 0.0;
              TopKeyValue(*a, options.by, &va);
              TopKeyValue(*b, options.by, &vb);
              if (va != vb) return va > vb;
              if (a->system != b->system) return a->system < b->system;
              return a->query < b->query;
            });
  if (ranked.size() > options.limit) ranked.resize(options.limit);
  return ranked;
}

}  // namespace

std::string TopToText(const SloReport& report, const TopOptions& options) {
  std::string out = StringPrintf("top queries by %s\n", options.by.c_str());
  int rank = 1;
  for (const QuerySlo* q : RankedQueries(report, options)) {
    double value = 0.0;
    TopKeyValue(*q, options.by, &value);
    out += StringPrintf(
        "%2d. %-32s %-12s (windows %lld, cache hit rate %s, lag total "
        "%s s)\n",
        rank++, QueryLabel(*q).c_str(), FormatDouble(value).c_str(),
        static_cast<long long>(q->windows),
        FormatDouble(q->CacheHitRate()).c_str(),
        FormatDouble(q->total_lag_s).c_str());
  }
  return out;
}

std::string TopToJson(const SloReport& report, const TopOptions& options) {
  std::string out =
      StringPrintf("{\"by\": \"%s\", \"queries\": [", options.by.c_str());
  bool first = true;
  for (const QuerySlo* q : RankedQueries(report, options)) {
    double value = 0.0;
    TopKeyValue(*q, options.by, &value);
    out += first ? "\n" : ",\n";
    first = false;
    out += StringPrintf(
        "{\"system\": \"%s\", \"query\": \"%s\", \"value\": %s, "
        "\"windows\": %lld, \"cache_hit_rate\": %s, \"slot_wait_s\": %s, "
        "\"lag_total_s\": %s}",
        q->system.c_str(), q->query.c_str(), FormatDouble(value).c_str(),
        static_cast<long long>(q->windows),
        FormatDouble(q->CacheHitRate()).c_str(),
        FormatDouble(q->slot_wait_s).c_str(),
        FormatDouble(q->total_lag_s).c_str());
  }
  out += "\n]}\n";
  return out;
}

}  // namespace slo
}  // namespace obs
}  // namespace redoop
