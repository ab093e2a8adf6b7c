// redoop_analyze — journal analysis and run-diff regression tool.
//
// Subcommands:
//   redoop_analyze breakdown JOURNAL.jsonl [--json] [--per-query]
//                            [--straggler-k=K]
//       Per-window phase breakdowns (map/reduce read, shuffle, sort,
//       compute, write, slot-wait) and cache-efficiency attribution.
//       --per-query splits the report by the journal's query labels.
//   redoop_analyze critical-path JOURNAL.jsonl [--json] [--straggler-k=K]
//       Longest chain through each window's task DAG, with per-hop
//       slot-wait and straggler flags.
//   redoop_analyze diff BASELINE.json CANDIDATE.json [--json]
//                       [--tolerance=F]
//       Structured regression report between two runs' metric documents
//       (BENCH JSON, metric snapshots, or analyze --json reports).
//
// --tolerance is a plain fraction (0.10, not "10%") and --straggler-k a
// number > 0; a malformed value is a usage error naming the flag.
//
// Exit codes: 0 success (diff: no regressions), 1 diff found regressions,
// 2 usage error, 3 input could not be loaded.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/run_diff.h"
#include "obs/event_journal.h"

namespace redoop {
namespace {

using obs::analysis::AnalysisOptions;
using obs::analysis::DiffOptions;
using obs::analysis::DiffReport;
using obs::analysis::RunAnalysis;

void PrintUsage() {
  std::printf(
      "redoop_analyze — journal analysis and run-diff regression tool\n\n"
      "  redoop_analyze breakdown JOURNAL.jsonl [--json] [--per-query]\n"
      "                          [--straggler-k=K]\n"
      "  redoop_analyze critical-path JOURNAL.jsonl [--json] "
      "[--straggler-k=K]\n"
      "  redoop_analyze diff BASELINE.json CANDIDATE.json [--json] "
      "[--tolerance=F]\n\n"
      "  --json            emit the report as JSON instead of text\n"
      "  --per-query       group windows by the journal's query labels\n"
      "                    (one report section per (system, query))\n"
      "  --straggler-k=K   flag tasks slower than K x wave median "
      "(default 3)\n"
      "  --tolerance=F     relative band treated as noise (default 0.10)\n\n"
      "diff exits 1 when any lower-is-better metric grew (or higher-is-\n"
      "better shrank) by more than the tolerance; informational metrics\n"
      "are reported but never fail the diff.\n");
}

struct AnalyzeArgs {
  std::string command;
  std::vector<std::string> paths;
  bool json = false;
  AnalysisOptions analysis;
  DiffOptions diff;
};

bool ParseArgs(int argc, char** argv, AnalyzeArgs* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  if (args->command == "--help" || args->command == "-h") {
    PrintUsage();
    std::exit(0);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--json") {
      args->json = true;
    } else if (arg == "--per-query") {
      args->analysis.group_by_query = true;
    } else if (ParseFlag(arg, "straggler-k", &value)) {
      if (!ParseDoubleFlag("straggler-k", value, 0.0,
                           &args->analysis.straggler_k, /*exclusive=*/true)) {
        return false;
      }
    } else if (ParseFlag(arg, "tolerance", &value)) {
      if (!ParseDoubleFlag("tolerance", value, 0.0, &args->diff.tolerance)) {
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

int RunJournalCommand(const AnalyzeArgs& args) {
  if (args.paths.size() != 1) {
    std::fprintf(stderr, "%s takes exactly one journal path\n",
                 args.command.c_str());
    return 2;
  }
  obs::EventJournal journal;
  Status status = obs::EventJournal::LoadFile(args.paths[0], &journal);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.paths[0].c_str(),
                 status.ToString().c_str());
    return 3;
  }
  RunAnalysis analysis;
  status = AnalyzeJournal(journal, args.analysis, &analysis);
  if (!status.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n", status.ToString().c_str());
    return 3;
  }
  std::string report;
  if (args.command == "breakdown") {
    report = args.json ? BreakdownToJson(analysis) : BreakdownToText(analysis);
  } else {
    report = args.json ? CriticalPathToJson(analysis)
                       : CriticalPathToText(analysis);
  }
  std::fwrite(report.data(), 1, report.size(), stdout);
  return 0;
}

int RunDiffCommand(const AnalyzeArgs& args) {
  if (args.paths.size() != 2) {
    std::fprintf(stderr, "diff takes BASELINE.json CANDIDATE.json\n");
    return 2;
  }
  DiffReport report;
  const Status status =
      DiffFiles(args.paths[0], args.paths[1], args.diff, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "diff failed: %s\n", status.ToString().c_str());
    return 3;
  }
  const std::string text = args.json ? report.ToJson() : report.ToText();
  std::fwrite(text.data(), 1, text.size(), stdout);
  return report.HasRegressions() ? 1 : 0;
}

int Main(int argc, char** argv) {
  AnalyzeArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (args.command == "breakdown" || args.command == "critical-path") {
    return RunJournalCommand(args);
  }
  if (args.command == "diff") return RunDiffCommand(args);
  std::fprintf(stderr, "unknown command: %s\n\n", args.command.c_str());
  PrintUsage();
  return 2;
}

}  // namespace
}  // namespace redoop

int main(int argc, char** argv) { return redoop::Main(argc, argv); }
