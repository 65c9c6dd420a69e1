// `simulate` generates runs via the parallel ensemble runner instead
// of loading a trace from disk. Capture stays in profile mode: per-run
// statistics come from a streaming SummarySink attached to each run's
// monitor, and --save-dir adds an ipm::TraceFileSink that writes the
// run's trace file while the run executes. No trace is ever
// materialized, so an ensemble's memory does not grow with its event
// count whether or not it is saved.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cli/commands.h"
#include "cli/helpers.h"
#include "cli/options.h"
#include "common/units.h"
#include "core/ks.h"
#include "core/samples.h"
#include "core/streaming.h"
#include "ipm/sink.h"
#include "ipm/trace_file.h"
#include "monitor/health.h"
#include "workloads/ensemble.h"
#include "workloads/scenario.h"

namespace eio::cli {

namespace {

/// Workload flags that conflict with --scenario (the file is the
/// single source of truth for the experiment it names).
constexpr const char* kScenarioConflicts[] = {"machine", "tasks", "block-mib",
                                              "segments"};

}  // namespace

int cmd_simulate(CommandContext& ctx) {
  const Parsed& args = ctx.args;
  std::ostream& out = ctx.os();
  std::ostream& err = ctx.es();
  workloads::ScenarioBuilder scenario;
  if (args.has("scenario")) {
    for (const char* flag : kScenarioConflicts) {
      if (args.has(flag)) {
        err << "eiotrace: --" << flag << " conflicts with --scenario (the "
            << "file names the experiment)\n";
        return 1;
      }
    }
    try {
      scenario = workloads::load_scenario(args.get("scenario", ""));
    } catch (const std::exception& e) {
      err << "eiotrace: " << e.what() << "\n";
      return 1;
    }
  } else {
    try {
      scenario.machine(args.get("machine", "franklin"));
    } catch (const std::invalid_argument& e) {
      err << "eiotrace: " << e.what() << "\n";
      return 1;
    }
    workloads::IorConfig cfg;
    cfg.tasks = static_cast<std::uint32_t>(args.get_size("tasks", 256));
    cfg.block_size = static_cast<Bytes>(args.get_double("block-mib", 64.0) *
                                        static_cast<double>(MiB));
    cfg.segments = static_cast<std::uint32_t>(args.get_size("segments", 2));
    scenario.ior(cfg);
    scenario.runs(4);
  }
  if (args.has("seed")) scenario.seed(args.get_size("seed", 0));
  std::size_t runs = args.get_size("runs", scenario.run_count());
  std::string save_fmt = args.get("format", "tsv");
  if (save_fmt != "tsv" && save_fmt != "v3") {
    err << "eiotrace: unknown --format '" << save_fmt << "' (tsv|v3)\n";
    return 1;
  }
  // Every target is checked before any run starts, so an unwritable
  // one fails in milliseconds instead of after the whole ensemble.
  std::vector<std::string> targets;
  if (args.has("save-dir")) {
    const std::string dir = args.get("save-dir", ".");
    for (std::size_t i = 0; i < runs; ++i) {
      std::string path = dir + "/run";
      path += std::to_string(i);
      path += save_fmt == "v3" ? ".v3" : ".tsv";
      if (std::string why = unwritable_reason(path, false); !why.empty()) {
        err << "eiotrace: cannot write '" << path << "': " << why << "\n";
        return 1;
      }
      targets.push_back(std::move(path));
    }
  }
  const ipm::TraceFormat format = save_fmt == "v3"
                                      ? ipm::TraceFormat::kBinaryV3
                                      : ipm::TraceFormat::kTsv;

  workloads::JobSpec job = scenario.job();
  job.capture = ipm::Mode::kProfile;
  analysis::EventFilter write_filter{.op = posix::OpType::kWrite,
                                     .min_bytes = MiB};
  const bool monitored = args.has("monitor");
  monitor::HealthOptions mopt = monitor_options_from(args);
  if (!args.has("ost-count")) {
    mopt.ost_count = scenario.machine_config().ost_count;
  }
  mopt.stripe_size = scenario.machine_config().stripe_size;
  std::vector<std::shared_ptr<analysis::SummarySink>> sinks(runs);
  std::vector<std::shared_ptr<monitor::HealthKernel>> monitors(runs);
  // Uncommitted files remove themselves when these handles go, so a
  // failed run (or any early return) leaves no partial trace behind.
  std::vector<std::shared_ptr<ipm::TraceFileSink>> files(targets.size());
  job.sink_factory = [&sinks, &monitors, &files, &targets, write_filter,
                      monitored, mopt, format, experiment = job.name,
                      ranks = static_cast<std::uint32_t>(job.programs.size())](
                         std::size_t run_index)
      -> std::shared_ptr<ipm::EventSink> {
    auto sink = std::make_shared<analysis::SummarySink>(write_filter);
    sinks[run_index] = sink;
    std::vector<std::shared_ptr<ipm::EventSink>> chain{sink};
    if (monitored) {
      monitors[run_index] = std::make_shared<monitor::HealthKernel>(mopt);
      chain.push_back(monitors[run_index]);
    }
    if (!targets.empty()) {
      files[run_index] = std::make_shared<ipm::TraceFileSink>(
          targets[run_index], format, experiment, ranks);
      chain.push_back(files[run_index]);
    }
    if (chain.size() == 1) return sink;
    return std::make_shared<ipm::FanoutSink>(std::move(chain));
  };

  const char* kind_label = "IOR";
  std::ostringstream shape;
  switch (scenario.kind()) {
    case workloads::WorkloadKind::kIor: {
      const workloads::IorConfig& c = scenario.ior_config();
      shape << c.tasks << " tasks, " << to_mib(c.block_size) << " MiB blocks, "
            << c.segments << " segments";
      break;
    }
    case workloads::WorkloadKind::kMadbench: {
      kind_label = "MADbench";
      const workloads::MadbenchConfig& c = scenario.madbench_config();
      shape << c.tasks << " tasks, " << c.matrices << " matrices";
      break;
    }
    case workloads::WorkloadKind::kGcrm: {
      kind_label = "GCRM";
      const workloads::GcrmConfig& c = scenario.gcrm_config();
      shape << c.tasks << " tasks, "
            << (c.collective_buffering ? c.io_tasks : c.tasks) << " writers";
      break;
    }
  }

  workloads::ParallelEnsembleRunner runner({.jobs = args.get_size("jobs", 0)});
  out << "simulating " << runs << " " << kind_label << " runs (" << shape.str()
      << ") on " << scenario.machine_config().name << " with "
      << runner.jobs() << " worker(s)\n";
  if (scenario.fault_plan().enabled()) {
    out << "fault plan: "
        << fault::plan_to_json(scenario.fault_plan()) << "\n";
  }
  auto results = runner.run_ensemble(job, runs);

  out << "  run          job(s)    events    median(s)      p95(s)\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const stats::StreamingSummary& s = sinks[i]->summary();
    char line[160];
    std::snprintf(line, sizeof line, "  %-8zu %10.1f %9llu %12.4f %11.4f\n", i,
                  results[i].job_time,
                  static_cast<unsigned long long>(results[i].profile.total()),
                  s.empty() ? 0.0 : s.median(),
                  s.empty() ? 0.0 : s.quantile(0.95));
    out << line;
  }

  if (scenario.fault_plan().enabled()) {
    out << "fault injections:\n"
        << "  run   ost-windows    stalls   retried ops   straggler-stalls"
           "   injected(s)\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const fault::Counts& c = results[i].fault_counts;
      char line[160];
      std::snprintf(line, sizeof line,
                    "  %-5zu %11llu %9llu %13llu %18llu %13.3f\n", i,
                    static_cast<unsigned long long>(c.ost_degradations),
                    static_cast<unsigned long long>(c.stalls),
                    static_cast<unsigned long long>(c.ops_retried),
                    static_cast<unsigned long long>(c.straggler_stalls),
                    c.stall_seconds + c.retry_seconds + c.straggler_seconds);
      out << line;
    }
  }

  if (monitored) {
    out << "health monitor:\n"
        << "  run    windows    opened   cleared   open-at-end\n";
    std::vector<monitor::Incident> incidents;
    std::vector<std::uint64_t> incident_runs;
    for (std::size_t i = 0; i < results.size(); ++i) {
      monitor::HealthKernel& k = *monitors[i];
      k.finish();
      const monitor::Counts& c = k.counts();
      char line[160];
      std::snprintf(line, sizeof line, "  %-5zu %9llu %9llu %9llu %13llu\n", i,
                    static_cast<unsigned long long>(c.windows_evaluated),
                    static_cast<unsigned long long>(c.incidents_opened),
                    static_cast<unsigned long long>(c.incidents_cleared),
                    static_cast<unsigned long long>(c.open_at_finish()));
      out << line;
      for (const monitor::Incident& inc : k.incidents()) {
        incidents.push_back(inc);
        incident_runs.push_back(i);
      }
    }
    if (!incidents.empty()) monitor::print_incident_table(out, incidents);
    int rc = write_incident_log(args, incidents, incident_runs, out, err);
    if (rc != 0) return rc;
  }

  out << "pairwise KS distances (write durations):\n";
  // Each run's sample is sorted once, not once per pair (a lone run
  // has no pair and keeps no copy).
  std::vector<std::vector<double>> sorted(sinks.size());
  for (std::size_t i = 0; sinks.size() > 1 && i < sinks.size(); ++i) {
    const auto& samples = sinks[i]->summary().reservoir().samples();
    sorted[i].assign(samples.begin(), samples.end());
    std::sort(sorted[i].begin(), sorted[i].end());
  }
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    for (std::size_t j = i + 1; j < sinks.size(); ++j) {
      stats::KsResult ks = stats::ks_two_sample_sorted(sorted[i], sorted[j]);
      char line[120];
      std::snprintf(line, sizeof line, "  %zu vs %zu: D = %.4f (p = %.3f)\n",
                    i, j, ks.statistic, ks.p_value);
      out << line;
    }
  }

  // Commit only once every file is known good: a failed write leaves
  // no trace files at all rather than some of them.
  for (const auto& file : files) {
    if (!file->good()) {
      throw std::runtime_error("write failed: " + file->path());
    }
  }
  for (const auto& file : files) {
    file->commit();
    out << "wrote " << file->path() << "\n";
  }
  return 0;
}

}  // namespace eio::cli
