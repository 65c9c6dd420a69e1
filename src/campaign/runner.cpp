#include "campaign/runner.h"

#include <memory>
#include <sstream>
#include <vector>

#include "campaign/json_out.h"
#include "common/units.h"
#include "core/samples.h"
#include "monitor/health.h"
#include "workloads/ensemble.h"
#include "workloads/scenario.h"

namespace eio::campaign {

std::string run_record(const workloads::RunPlan& plan,
                       const RunnerOptions& options) {
  workloads::ScenarioBuilder scenario =
      workloads::scenario_from_json(plan.scenario);
  workloads::JobSpec job = scenario.job();
  // Profile capture only: a campaign keeps statistics, never traces.
  job.capture = ipm::Mode::kProfile;

  // Per-run attachments: the bulk-write summary (the paper's headline
  // distribution) and the online health monitor, exactly the
  // `simulate --monitor` wiring.
  analysis::EventFilter write_filter{.op = posix::OpType::kWrite,
                                     .min_bytes = MiB};
  monitor::HealthOptions mopt;
  mopt.ost_count = scenario.machine_config().ost_count;
  mopt.stripe_size = scenario.machine_config().stripe_size;
  std::size_t runs = scenario.run_count();
  std::vector<std::shared_ptr<analysis::SummarySink>> sinks(runs);
  std::vector<std::shared_ptr<monitor::HealthKernel>> monitors(runs);
  job.sink_factory = [&sinks, &monitors, write_filter,
                      mopt](std::size_t run_index)
      -> std::shared_ptr<ipm::EventSink> {
    auto sink = std::make_shared<analysis::SummarySink>(write_filter);
    auto health = std::make_shared<monitor::HealthKernel>(mopt);
    sinks[run_index] = sink;
    monitors[run_index] = health;
    return std::make_shared<ipm::FanoutSink>(
        std::vector<std::shared_ptr<ipm::EventSink>>{sink, health});
  };

  workloads::ParallelEnsembleRunner runner({.jobs = options.jobs});
  std::vector<workloads::RunResult> results = runner.run_ensemble(job, runs);

  // Roll the ensemble up: job-time and rate distributions across runs,
  // write durations merged across runs (in run order, the merge
  // contract), fault and health counters summed, incidents collected
  // with their run ids.
  stats::StreamingSummary job_times;
  stats::StreamingSummary rates;
  stats::StreamingSummary writes;
  std::uint64_t events = 0;
  fault::Counts faults;
  monitor::Counts health_counts;
  std::vector<monitor::Incident> incidents;
  std::vector<std::uint64_t> incident_runs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const workloads::RunResult& r = results[i];
    job_times.add(r.job_time);
    rates.add(r.reported_rate());
    writes.merge(sinks[i]->summary());
    events += r.profile.total();
    const fault::Counts& fc = r.fault_counts;
    faults.ost_degradations += fc.ost_degradations;
    faults.ost_restorations += fc.ost_restorations;
    faults.stalls += fc.stalls;
    faults.stall_seconds += fc.stall_seconds;
    faults.failed_attempts += fc.failed_attempts;
    faults.ops_retried += fc.ops_retried;
    faults.retry_seconds += fc.retry_seconds;
    faults.straggler_stalls += fc.straggler_stalls;
    faults.straggler_seconds += fc.straggler_seconds;
    monitor::HealthKernel& k = *monitors[i];
    k.finish();
    const monitor::Counts& mc = k.counts();
    health_counts.windows_evaluated += mc.windows_evaluated;
    health_counts.phases_evaluated += mc.phases_evaluated;
    health_counts.incidents_opened += mc.incidents_opened;
    health_counts.incidents_cleared += mc.incidents_cleared;
    health_counts.degraded_ost += mc.degraded_ost;
    health_counts.straggler_rank += mc.straggler_rank;
    health_counts.drift += mc.drift;
    health_counts.injected += mc.injected;
    for (const monitor::Incident& inc : k.incidents()) {
      incidents.push_back(inc);
      incident_runs.push_back(i);
    }
  }

  std::ostringstream out;
  json::Writer w(out);
  w.begin_object()
      .kv("run", plan.index)
      .kv("schema_version", kOutputSchemaVersion)
      .kv("source", plan.source)
      .kv("label", plan.label)
      .kv("scenario", scenario.scenario_name())
      .kv("machine", scenario.machine_config().name)
      .kv("runs", runs)
      .kv("events", events);
  w.key("job_time");
  write_summary(w, job_times);
  w.key("rate");
  write_summary(w, rates);
  w.key("write");
  write_summary(w, writes);
  w.key("faults");
  write_fault_counts(w, faults);
  w.key("health");
  w.begin_object().key("counts");
  write_monitor_counts(w, health_counts);
  w.key("incidents");
  write_incidents(w, incidents, incident_runs);
  w.end_object();
  w.end_object();
  return out.str();
}

}  // namespace eio::campaign
