#include "cli/command.h"

#include <cstdint>
#include <limits>
#include <sstream>

#include "cli/commands.h"
#include "cli/eiotrace.h"

namespace eio::cli {

namespace {

// ---------------------------------------------------------------------------
// The option tables. Shared groups (filter, parallelism, output) are
// composed into each command's group list by the registry below.

constexpr OptionSpec kFilterSpecs[] = {
    {"op", OptKind::kOp, "any", "event filter"},
    {"phase", OptKind::kDouble, "", "keep only this phase label"},
    {"min-bytes", OptKind::kDouble, "0", "minimum transfer size (bytes)"},
    {"max-bytes", OptKind::kDouble, "", "maximum transfer size (bytes)"},
    {"t-lo", OptKind::kDouble, "", "window start (wall-clock seconds)"},
    {"t-hi", OptKind::kDouble, "", "window end (wall-clock seconds)"},
};

constexpr OptionSpec kJobsSpecs[] = {
    {"jobs", OptKind::kSize, "0",
     "worker threads (0 = EIO_JOBS env, else hardware concurrency)"},
};

/// The machine-readable output contract: one flag, one schema (fixed
/// key order, %.9g floats, schema_version) shared with the campaign
/// store's records.
constexpr OptionSpec kOutputSpecs[] = {
    {"json", OptKind::kFlag, "",
     "machine-readable JSON output (schema_version, fixed key order, "
     "%.9g floats)"},
};

constexpr OptionSpec kHistogramSpecs[] = {
    {"log", OptKind::kFlag, "", "log10 duration axis (and log counts)"},
    {"bins", OptKind::kSize, "40", "histogram bins", 2},
};

constexpr OptionSpec kModesSpecs[] = {
    {"log", OptKind::kFlag, "", "run the KDE on a log10 axis"},
    {"bandwidth", OptKind::kDouble, "0.5", "KDE bandwidth scale", 0, kNoMax,
     true},
};

constexpr OptionSpec kRatesSpecs[] = {
    {"bins", OptKind::kSize, "100", "time-axis bins", 1},
};

constexpr OptionSpec kAnalyzeSpecs[] = {
    {"log", OptKind::kFlag, "", "log10 duration axis for the histogram"},
    {"bins", OptKind::kSize, "40", "histogram bins", 2},
    {"rate-bins", OptKind::kSize, "100", "rate time-axis bins", 1},
    {"monitor", OptKind::kFlag, "",
     "fold the online health monitor into the fused pass"},
};

/// Largest --ost-count: far past any real file system, and small enough
/// that the per-class scratch each evaluation sizes stays small.
constexpr std::uint64_t kMaxOstCount = 65536;
/// Flags the simulator narrows to 32 bits.
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

constexpr OptionSpec kMonitorSpecs[] = {
    {"ost-count", OptKind::kSize, "48",
     "OSTs of the source machine for per-OST attribution (0 = skip)", 0,
     kMaxOstCount},
    {"window", OptKind::kSize, "2048",
     "sliding-window capacity (admitted bulk events)", 1},
    {"stride", OptKind::kSize, "1024",
     "admitted events between detector evaluations", 1},
    {"drift-d", OptKind::kDouble, "0",
     "KS D threshold for the distribution-drift detector (0 = off; "
     "phase-structured workloads legitimately drift)"},
    {"incidents", OptKind::kOutFile, "",
     "write the incident log as JSONL to this path"},
};

constexpr OptionSpec kDiagramSpecs[] = {
    {"rows", OptKind::kSize, "24", "raster rows (ranks collapse to fit)", 1},
    {"cols", OptKind::kSize, "72", "raster columns", 1},
};

constexpr OptionSpec kDiagnoseSpecs[] = {
    {"fair-share-mibs", OptKind::kDouble, "0",
     "per-task fair share (MiB/s) for the sub-fair-share detector (0 = skip)",
     0},
    {"ost-count", OptKind::kSize, "0",
     "OSTs of the source machine for the degraded-OST detector (0 = skip)", 0,
     kMaxOstCount},
};

constexpr OptionSpec kConvertSpecs[] = {
    {"format", OptKind::kString, "v3",
     "output format: tsv|v3 (v3 = columnar, compressed, indexed)"},
    {"tsv", OptKind::kFlag, "", "alias for --format=tsv"},
};

constexpr OptionSpec kSimulateSpecs[] = {
    {"scenario", OptKind::kString, "",
     "scenario JSON file: machine + workload + ensemble + fault plan"},
    {"machine", OptKind::kString, "franklin",
     "machine preset: franklin|franklin-patched|jaguar"},
    {"tasks", OptKind::kSize, "256", "IOR tasks", 0, kMaxU32},
    {"block-mib", OptKind::kDouble, "64", "IOR block per task per segment"},
    {"segments", OptKind::kSize, "2", "IOR barrier-separated segments", 0,
     kMaxU32},
    {"runs", OptKind::kSize, "4",
     "ensemble size (scenario files set their own)", 1},
    {"seed", OptKind::kSize, "", "override the machine seed"},
    {"save-dir", OptKind::kOutDir, "",
     "write each run's trace as DIR/runN.* (DIR must exist)"},
    {"format", OptKind::kString, "tsv",
     "trace format for --save-dir files: tsv|v3"},
    {"monitor", OptKind::kFlag, "",
     "attach the online health monitor to every run's event stream"},
};

constexpr OptionSpec kCampaignSpecs[] = {
    {"out", OptKind::kString, "campaign-out",
     "artifact directory: runs.jsonl, worker stores, campaign.jsonl, "
     "report.json"},
    {"workers", OptKind::kSize, "1", "worker processes to shard runs across"},
    {"run-jobs", OptKind::kSize, "1", "ensemble threads inside each worker"},
    {"run-timeout", OptKind::kDouble, "0",
     "seconds a worker may hold one run before it is killed and the run "
     "retried (0 = off)"},
    {"plan-only", OptKind::kFlag, "",
     "expand and validate the manifest, write runs.jsonl, don't execute"},
    {"worker-exe", OptKind::kString, "",
     "worker executable (default: this binary via /proc/self/exe)"},
    {"inject-crash-run", OptKind::kSize, "",
     "failure injection: the first worker handling this run crashes "
     "mid-append (retry-path CI hook)"},
    {"inject-hang-run", OptKind::kSize, "",
     "failure injection: the first worker handling this run hangs "
     "(timeout-path CI hook)"},
};

constexpr OptionSpec kCampaignWorkerSpecs[] = {
    {"plans", OptKind::kString, "", "the campaign's runs.jsonl"},
    {"store", OptKind::kString, "", "this worker's append-only store file"},
    {"run-jobs", OptKind::kSize, "1", "ensemble threads per run"},
};

}  // namespace

const std::vector<Command>& commands() {
  static const std::vector<Command> table{
      {"report", "<trace>", "IPM job banner (per-call profile, imbalance)",
       {}, true, cmd_report},
      {"summary", "<trace>", "quantile table per op",
       {{"filter", kFilterSpecs},
        {"parallelism", kJobsSpecs},
        {"output", kOutputSpecs}},
       true, cmd_summary},
      {"analyze", "<trace>",
       "fused one-pass bundle: summary + phases + histogram + rates",
       {{"analyze", kAnalyzeSpecs},
        {"monitor", kMonitorSpecs},
        {"filter", kFilterSpecs},
        {"parallelism", kJobsSpecs},
        {"output", kOutputSpecs}},
       true, cmd_analyze},
      {"monitor", "<trace>",
       "online health monitoring: incidents + deterministic JSONL log",
       {{"monitor", kMonitorSpecs},
        {"parallelism", kJobsSpecs},
        {"output", kOutputSpecs}},
       true, cmd_monitor},
      {"histogram", "<trace>", "duration histogram",
       {{"histogram", kHistogramSpecs},
        {"filter", kFilterSpecs},
        {"parallelism", kJobsSpecs}},
       true, cmd_histogram},
      {"modes", "<trace>", "KDE mode detection + harmonic signature",
       {{"modes", kModesSpecs},
        {"filter", kFilterSpecs},
        {"parallelism", kJobsSpecs}},
       true, cmd_modes},
      {"rates", "<trace>", "aggregate rate chart",
       {{"rates", kRatesSpecs},
        {"filter", kFilterSpecs},
        {"parallelism", kJobsSpecs}},
       true, cmd_rates},
      {"diagram", "<trace>", "per-rank trace raster",
       {{"diagram", kDiagramSpecs}}, true, cmd_diagram},
      {"diagnose", "<trace>", "automatic bottleneck findings",
       {{"diagnose", kDiagnoseSpecs},
        {"parallelism", kJobsSpecs},
        {"output", kOutputSpecs}},
       true, cmd_diagnose},
      {"patterns", "<trace>", "access-pattern detection + fs hints",
       {{"parallelism", kJobsSpecs}}, true, cmd_patterns},
      {"phases", "<trace>", "per-phase duration table",
       {{"filter", kFilterSpecs}, {"parallelism", kJobsSpecs}},
       true, cmd_phases},
      {"compare", "<traceA> <traceB>", "A vs B medians + KS distance",
       {{"filter", kFilterSpecs}, {"parallelism", kJobsSpecs}}, true,
       cmd_compare},
      {"convert", "<trace> <out>",
       "rewrite as --format=tsv|v3 (default v3; same format = "
       "checked copy)",
       {{"convert", kConvertSpecs}}, true, cmd_convert},
      {"simulate", "",
       "generate an ensemble from flags or a --scenario file",
       {{"simulate", kSimulateSpecs},
        {"monitor", kMonitorSpecs},
        {"parallelism", kJobsSpecs}},
       false, cmd_simulate},
      {"campaign", "<manifest>",
       "sweep scenarios across worker processes into a merged store + "
       "fleet report",
       {{"campaign", kCampaignSpecs}}, false, cmd_campaign},
      {"campaign-worker", "",
       "(internal) campaign worker process; speaks the dispatcher "
       "protocol on stdin/stdout",
       {{"campaign-worker", kCampaignWorkerSpecs}}, false,
       cmd_campaign_worker},
  };
  return table;
}

const Command* find_command(const std::string& name) {
  for (const Command& c : commands()) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

std::string usage_for(const std::string& command) {
  const Command* cmd = find_command(command);
  if (cmd == nullptr) return usage_text();
  std::ostringstream os;
  os << "usage: eiotrace " << cmd->name;
  if (cmd->operands[0] != '\0') os << " " << cmd->operands;
  os << " [flags]\n  " << cmd->summary << "\n";
  for (const OptionGroup& g : cmd->groups) {
    os << g.title << " flags:\n";
    for (const OptionSpec& s : g.options) {
      std::string left = std::string("--") + s.name;
      switch (s.kind) {
        case OptKind::kFlag: break;
        case OptKind::kString: left += "=S"; break;
        case OptKind::kDouble: left += "=X"; break;
        case OptKind::kSize: left += "=N"; break;
        case OptKind::kOutFile: left += "=FILE"; break;
        case OptKind::kOutDir: left += "=DIR"; break;
        case OptKind::kOp:
          left += '=';
          left += op_choices();
          break;
      }
      os << "  " << left;
      if (left.size() >= 20) os << ' ';
      for (std::size_t pad = left.size(); pad < 20; ++pad) os << ' ';
      os << s.help;
      if (s.fallback[0] != '\0') os << " (default " << s.fallback << ")";
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace eio::cli

namespace eio::cli {

std::string usage_text() {
  std::ostringstream os;
  os << "usage: eiotrace <command> [operands] [flags]\n"
     << "commands:\n";
  for (const Command& c : commands()) {
    std::string left = c.name;
    if (c.operands[0] != '\0') left += std::string(" ") + c.operands;
    os << "  " << left;
    for (std::size_t pad = left.size(); pad < 26; ++pad) os << ' ';
    os << c.summary << "\n";
  }
  os << "  version                   build provenance (git SHA, compiler, "
        "flags)\n"
     << "  help [command]            this text, or one command's full flag "
        "table\n"
     << "simulate reads either flags (an IOR ensemble) or a declarative\n"
     << "scenario JSON file (--scenario FILE: machine, workload, ensemble\n"
     << "size, fault plan; see examples/scenarios/).\n"
     << "campaign expands a manifest (scenario files, sweep specs, or a\n"
     << "directory of either) into a run list, shards it across --workers\n"
     << "processes, and merges per-worker stores into campaign.jsonl +\n"
     << "report.json (byte-identical for any --workers value).\n"
     << "self-observability (any command): --chrome-trace OUT.json "
        "--metrics OUT.json|.tsv\n"
     << "             --obs-summary --obs   (instrument this invocation "
        "itself)\n"
     << "common filter flags: --op=write|read --phase=P --min-bytes=N "
        "--max-bytes=N\n"
     << "                     --t-lo=S --t-hi=S (wall-clock window, "
        "seconds)\n"
     << "machine-readable output: summary/analyze/diagnose/monitor take "
        "--json\n"
     << "parallelism: summary/analyze/histogram/modes/rates/phases/"
        "diagnose/patterns/compare/simulate\n"
     << "             take --jobs=N\n"
     << "             (default: hardware concurrency; TSV and v3 traces "
        "scan chunk-parallel)\n";
  return os.str();
}

}  // namespace eio::cli
