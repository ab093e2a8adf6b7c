#ifndef REDOOP_OBS_SLO_SLO_TRACKER_H_
#define REDOOP_OBS_SLO_SLO_TRACKER_H_

// Per-query SLO accounting over an analyzed journal: deadline attainment,
// window lag, cache hit ratio, slot-wait, and straggler incidence, per
// (system, query). Everything here derives from journal events alone —
// window.open carries the configured deadline, window.complete the
// response time, task/cache events the rest — so `redoop_inspect` can
// reproduce the driver-exported SLO figures from a journal file with no
// other inputs.
//
// Definitions:
//   attainment = deadline_met / windows_with_deadline (windows whose
//     window.open carried a deadline; -1 when no window did).
//   lag of a window = max(0, response_time - deadline): how far past its
//     deadline the window completed. Windows without a deadline have no
//     lag. A late window delays its successors' triggers, so sustained
//     lag compounds — total_lag_s is the headline backlog signal.
//   straggler incidence = flagged stragglers per completed window.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/analysis/analysis.h"
#include "obs/metric_registry.h"

namespace redoop {
namespace obs {
namespace slo {

/// SLO accounting for one (system, query) group.
struct QuerySlo {
  std::string system;
  std::string query;  ///< "" for unattributed (pre-label) journals.

  int64_t windows = 0;
  double deadline_s = -1.0;  ///< Last configured deadline; -1 = none seen.
  int64_t windows_with_deadline = 0;
  int64_t deadline_met = 0;
  int64_t deadline_missed = 0;

  double total_response_s = 0.0;
  double max_response_s = 0.0;
  double total_lag_s = 0.0;
  double max_lag_s = 0.0;
  double last_lag_s = 0.0;  ///< Lag of the newest window (backlog "now").

  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_hit_bytes = 0;  ///< Logical bytes served from cache.
  /// Budget evictions charged to this query's windows: panes the byte
  /// budget pushed out of the store (each flips back to recompute).
  int64_t cache_evictions = 0;
  int64_t cache_evicted_bytes = 0;

  double slot_wait_s = 0.0;  ///< Map + reduce slot-wait across windows.
  int64_t stragglers = 0;
  int64_t failed_attempts = 0;
  int64_t speculative_attempts = 0;

  /// Fleet serving (DESIGN §17): all zero unless the journal carries
  /// fleet.* events, i.e. the query ran under a MultiQueryCoordinator with
  /// fleet features on. Exported / rendered only when FleetActive().
  int64_t fleet_admissions = 0;
  double fleet_admission_wait_s = 0.0;  ///< Total slot-wait at admission.
  int64_t fleet_queued_peak = 0;
  double fleet_attained_s = 0.0;  ///< Final attained weighted service.
  double fleet_weight = 0.0;      ///< 0 until an admission is seen.
  int64_t fleet_scan_hits = 0;
  int64_t fleet_scan_misses = 0;
  int64_t fleet_scan_hit_bytes = 0;  ///< Bytes shared scans did NOT re-read.
  int64_t fleet_scan_scanned_bytes = 0;
  int64_t fleet_adoptions = 0;       ///< Panes adopted from another query.
  int64_t fleet_adopted_bytes = 0;
  int64_t fleet_evict_fanouts = 0;

  /// met / windows_with_deadline, or -1.0 when no deadline was configured.
  double Attainment() const {
    return windows_with_deadline > 0
               ? static_cast<double>(deadline_met) / windows_with_deadline
               : -1.0;
  }
  double MeanResponse() const {
    return windows > 0 ? total_response_s / windows : 0.0;
  }
  double CacheHitRate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
  double StragglerIncidence() const {
    return windows > 0 ? static_cast<double>(stragglers) / windows : 0.0;
  }
  /// True when the journal recorded any fleet.* activity for the query.
  bool FleetActive() const {
    return fleet_admissions != 0 || fleet_scan_hits != 0 ||
           fleet_scan_misses != 0 || fleet_adoptions != 0 ||
           fleet_evict_fanouts != 0;
  }
  double FleetScanHitRate() const {
    const double total =
        static_cast<double>(fleet_scan_hits + fleet_scan_misses);
    return total > 0.0 ? static_cast<double>(fleet_scan_hits) / total : 0.0;
  }
  double FleetMeanAdmissionWait() const {
    return fleet_admissions > 0 ? fleet_admission_wait_s / fleet_admissions
                                : 0.0;
  }
};

/// Per-query SLO report, sorted by (system, query) for stable rendering.
struct SloReport {
  std::vector<QuerySlo> queries;

  const QuerySlo* Find(std::string_view system,
                       std::string_view query) const;

  /// Deterministic renderers (StringPrintf/FormatDouble).
  std::string ToText() const;
  std::string ToJson() const;
};

/// Builds the report from an analyzed journal. Run the analysis with
/// group_by_query = true to get per-query rows; without it all of a
/// system's queries collapse into one row with query = "".
SloReport ComputeSlo(const analysis::RunAnalysis& analysis);

/// Convenience: LoadFile-style one-shot over a journal.
SloReport ComputeSlo(const EventJournal& journal,
                     const analysis::AnalysisOptions& options);

/// Exports every query's SLO figures into `snapshot` under "slo.*" names
/// labeled with the query dimension (plain names for query = ""), e.g.
/// "slo.attainment{query=wcc}". This is how RunReport::observability and
/// the metrics JSON pick up the tracker output. Attainment is only
/// exported for queries with a configured deadline.
void ExportTo(const SloReport& report, MetricsSnapshot* snapshot);

/// "Top queries by <key>" view over a report.
struct TopOptions {
  /// One of: "cache_bytes", "slot_wait", "lag", "response".
  std::string by = "cache_bytes";
  size_t limit = 10;
};

/// Returns false (and leaves *value untouched) for an unknown key.
bool TopKeyValue(const QuerySlo& q, std::string_view by, double* value);
std::string TopToText(const SloReport& report, const TopOptions& options);
std::string TopToJson(const SloReport& report, const TopOptions& options);

/// Per-tenant fleet view (DESIGN §17): admission wait and attained
/// weighted service, shared-scan savings, and dedup adoptions per query.
/// Queries with no fleet activity are listed as "not fleet-served".
std::string FleetToText(const SloReport& report);
std::string FleetToJson(const SloReport& report);

}  // namespace slo
}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_SLO_SLO_TRACKER_H_
