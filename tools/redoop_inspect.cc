// redoop_inspect — flight-recorder introspection tool.
//
// Reads any journal (live run dump or bounded flight-recorder capture)
// and renders per-query service-level views. Every figure is derived from
// journal events alone, so the tool reproduces the driver-exported SLO
// metrics from a journal file with no other inputs.
//
// Subcommands:
//   redoop_inspect slo JOURNAL.jsonl [--json] [--straggler-k=K]
//       Per-query SLO table: deadline attainment, window lag, response
//       times, cache hit ratio, slot-wait, straggler incidence.
//   redoop_inspect top JOURNAL.jsonl [--by=KEY] [--limit=N] [--json]
//                      [--straggler-k=K]
//       Queries ranked by KEY: cache_bytes (default), slot_wait, lag, or
//       response.
//   redoop_inspect trace JOURNAL.jsonl [--window=N] [--json]
//       Causal span view reconstructed from the journal: the default
//       summary counts spans, follows-from edges, and the critical path;
//       --window=N renders that recurrence's span tree with cross-window
//       follows-from annotations.
//   redoop_inspect lineage JOURNAL.jsonl SOURCE:PANE [--json]
//       Cross-window lineage of one pane: the window that built it and
//       every later window whose cache hit consumed it.
//   redoop_inspect fleet JOURNAL.jsonl [--json]
//       Per-tenant fleet-serving view (DESIGN §17): admission wait and
//       attained weighted service, shared-scan savings, dedup adoptions,
//       and eviction fan-outs per query.
//
// Truncated journals (flight-recorder captures that evicted old events)
// are disclosed in both renderings: the text header and the "journal"
// object of the JSON report carry the dropped-event/byte counters parsed
// from the journal's truncation marker.
//
// Exit codes: 0 success, 2 usage error, 3 input could not be loaded.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "common/string_utils.h"
#include "obs/analysis/analysis.h"
#include "obs/event_journal.h"
#include "obs/slo/slo_tracker.h"
#include "obs/trace/span_builder.h"

namespace redoop {
namespace {

using obs::analysis::AnalysisOptions;
using obs::slo::SloReport;
using obs::slo::TopOptions;

void PrintUsage() {
  std::printf(
      "redoop_inspect — flight-recorder introspection tool\n\n"
      "  redoop_inspect slo JOURNAL.jsonl [--json] [--straggler-k=K]\n"
      "  redoop_inspect top JOURNAL.jsonl [--by=KEY] [--limit=N] [--json]\n"
      "                     [--straggler-k=K]\n"
      "  redoop_inspect trace JOURNAL.jsonl [--window=N] [--json]\n"
      "  redoop_inspect lineage JOURNAL.jsonl SOURCE:PANE [--json]\n"
      "  redoop_inspect fleet JOURNAL.jsonl [--json]\n\n"
      "  --json            emit the report as JSON instead of text\n"
      "  --by=KEY          ranking key for top: cache_bytes (default),\n"
      "                    slot_wait, lag, response\n"
      "  --limit=N         rows in the top view (default 10)\n"
      "  --window=N        trace: render recurrence N's span tree instead\n"
      "                    of the whole-run summary\n"
      "  --straggler-k=K   flag tasks slower than K x wave median "
      "(default 3)\n\n"
      "Reports group by the journal's query labels; journals from runs\n"
      "predating per-query attribution collapse into one row with an\n"
      "empty query name. Truncated flight-recorder journals disclose\n"
      "their dropped-event counters in the report header.\n");
}

struct InspectArgs {
  std::string command;
  std::vector<std::string> paths;
  bool json = false;
  int64_t window = -1;  // trace: recurrence to render; -1 = summary.
  AnalysisOptions analysis;
  TopOptions top;
};

bool ParseArgs(int argc, char** argv, InspectArgs* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  if (args->command == "--help" || args->command == "-h") {
    PrintUsage();
    std::exit(0);
  }
  args->analysis.group_by_query = true;  // The tool's whole point.
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--json") {
      args->json = true;
    } else if (arg.rfind("--by=", 0) == 0) {
      args->top.by = arg.substr(5);
    } else if (ParseFlag(arg, "limit", &value)) {
      if (!ParseIntFlag("limit", value, 1, &args->top.limit)) return false;
    } else if (ParseFlag(arg, "window", &value)) {
      if (!ParseIntFlag("window", value, 0, &args->window)) return false;
    } else if (ParseFlag(arg, "straggler-k", &value)) {
      if (!ParseDoubleFlag("straggler-k", value, 0.0,
                           &args->analysis.straggler_k, /*exclusive=*/true)) {
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return false;
    } else {
      args->paths.push_back(arg);
    }
  }
  return true;
}

/// "journal: N events" plus the truncation disclosure when events were
/// evicted by the flight-recorder budget.
std::string JournalHeaderText(const obs::EventJournal& journal) {
  std::string out = StringPrintf(
      "journal: %lld events", static_cast<long long>(journal.size()));
  if (journal.dropped_events() > 0) {
    out += StringPrintf(
        " (truncated: %lld events, %lld bytes dropped)",
        static_cast<long long>(journal.dropped_events()),
        static_cast<long long>(journal.dropped_bytes()));
  }
  out += "\n";
  return out;
}

std::string JournalHeaderJson(const obs::EventJournal& journal) {
  return StringPrintf(
      "\"journal\": {\"events\": %lld, \"dropped_events\": %lld, "
      "\"dropped_bytes\": %lld}",
      static_cast<long long>(journal.size()),
      static_cast<long long>(journal.dropped_events()),
      static_cast<long long>(journal.dropped_bytes()));
}

/// Parses "SOURCE:PANE" (two non-negative integers) for lineage.
bool ParsePaneRef(const std::string& ref, int64_t* source, int64_t* pane) {
  const size_t colon = ref.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= ref.size()) {
    return false;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (i == colon) continue;
    if (ref[i] < '0' || ref[i] > '9') return false;
  }
  *source = std::atol(ref.substr(0, colon).c_str());
  *pane = std::atol(ref.substr(colon + 1).c_str());
  return true;
}

/// Wraps a report document (ending in "}\n") as the value of `key` in an
/// object that also carries the journal header.
std::string WrapJson(const obs::EventJournal& journal, const char* key,
                     std::string report_json) {
  while (!report_json.empty() && report_json.back() == '\n') {
    report_json.pop_back();
  }
  return StringPrintf("{%s,\n\"%s\": %s}\n", JournalHeaderJson(journal).c_str(),
                      key, report_json.c_str());
}

int Main(int argc, char** argv) {
  InspectArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (args.command != "slo" && args.command != "top" &&
      args.command != "trace" && args.command != "lineage" &&
      args.command != "fleet") {
    std::fprintf(stderr, "unknown command: %s\n\n", args.command.c_str());
    PrintUsage();
    return 2;
  }
  int64_t lineage_source = -1;
  int64_t lineage_pane = -1;
  if (args.command == "lineage") {
    if (args.paths.size() != 2 ||
        !ParsePaneRef(args.paths[1], &lineage_source, &lineage_pane)) {
      std::fprintf(stderr,
                   "lineage takes a journal path and a SOURCE:PANE pane "
                   "reference (e.g. 0:3)\n");
      return 2;
    }
  } else if (args.paths.size() != 1) {
    std::fprintf(stderr, "%s takes exactly one journal path\n",
                 args.command.c_str());
    return 2;
  }
  {
    double ignored = 0.0;
    obs::slo::QuerySlo probe;
    if (args.command == "top" &&
        !obs::slo::TopKeyValue(probe, args.top.by, &ignored)) {
      std::fprintf(stderr,
                   "unknown --by key: %s (want cache_bytes, slot_wait, "
                   "lag, or response)\n",
                   args.top.by.c_str());
      return 2;
    }
  }

  obs::EventJournal journal;
  const Status status = obs::EventJournal::LoadFile(args.paths[0], &journal);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.paths[0].c_str(),
                 status.ToString().c_str());
    return 3;
  }
  std::string out;
  if (args.command == "trace" || args.command == "lineage") {
    obs::trace::Trace trace;
    const Status built = obs::trace::BuildTrace(journal, &trace);
    if (!built.ok()) {
      std::fprintf(stderr, "cannot build trace: %s\n",
                   built.ToString().c_str());
      return 3;
    }
    if (args.command == "lineage") {
      out = args.json
                ? WrapJson(journal, "lineage",
                           obs::trace::PaneLineageJson(trace, lineage_source,
                                                       lineage_pane))
                : JournalHeaderText(journal) +
                      obs::trace::PaneLineageText(trace, lineage_source,
                                                  lineage_pane);
    } else if (args.window >= 0) {
      out = args.json
                ? WrapJson(journal, "trace",
                           obs::trace::WindowTreeJson(trace, args.window))
                : JournalHeaderText(journal) +
                      obs::trace::WindowTreeText(trace, args.window);
    } else {
      out = args.json
                ? WrapJson(journal, "trace",
                           obs::trace::TraceSummaryJson(trace, journal))
                : JournalHeaderText(journal) +
                      obs::trace::TraceSummaryText(trace, journal);
    }
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }

  const SloReport report = obs::slo::ComputeSlo(journal, args.analysis);
  if (args.command == "slo") {
    out = args.json ? WrapJson(journal, "slo", report.ToJson())
                    : JournalHeaderText(journal) + report.ToText();
  } else if (args.command == "fleet") {
    out = args.json ? WrapJson(journal, "fleet", FleetToJson(report))
                    : JournalHeaderText(journal) + FleetToText(report);
  } else {
    out = args.json ? WrapJson(journal, "top", TopToJson(report, args.top))
                    : JournalHeaderText(journal) + TopToText(report, args.top);
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

}  // namespace
}  // namespace redoop

int main(int argc, char** argv) { return redoop::Main(argc, argv); }
