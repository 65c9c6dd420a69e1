// campaign_sweep: `campaign <manifest dir> --workers=3` over 280 small
// runs from three sources — a MADbench read sweep on franklin and
// franklin-patched (the read-ahead path), IOR with read-back under a
// slow-OST fault at k=1 and k=4 (monitor and incidents), and small
// collective and optimized GCRM runs. The same sim and lustre layers
// as gcrm_sim, used differently: runs are small, so fluid churn is
// negligible and per-run set-up, dispatch and IPC, store merge and the
// report dominate, and reads run beside writes. A change that speeds
// up large runs or writes at the cost of small runs or reads shows here.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "common/json.h"
#include "harness.h"
#include "obs/registry.h"
#include "workloads.h"
#include "workloads/sweep.h"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kPlans = 160 + 80 + 40;

/// `count` seeds derived from the benchmark seed, as a JSON list.
std::string seeds(std::uint64_t seed, int count) {
  std::string s = "[";
  for (int i = 0; i < count; ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(seed * 1000 + static_cast<std::uint64_t>(i));
  }
  return s + "]";
}

void write_manifest(const fs::path& dir, std::uint64_t seed) {
  fs::create_directories(dir);
  std::ofstream(dir / "madbench_read.json")
      << "{\"schema_version\": 1, \"name\": \"madbench-read\", \"base\": "
         "{\"schema_version\": 1, \"name\": \"madbench-read-base\", "
         "\"machine\": \"franklin\", \"runs\": 1, \"workload\": {\"kind\": "
         "\"madbench\", \"tasks\": 16, \"matrix_mib\": 16, \"matrices\": 4}}, "
         "\"sweep\": {\"mode\": \"grid\", \"axes\": {\"machine\": "
         "[\"franklin\", \"franklin-patched\"], \"seed\": "
      << seeds(seed, 40) << ", \"workload.tasks\": [16, 32]}}}\n";
  std::ofstream(dir / "ior_slow_ost.json")
      << "{\"schema_version\": 1, \"name\": \"ior-slow-ost\", \"base\": "
         "{\"schema_version\": 1, \"name\": \"ior-slow-ost-base\", "
         "\"machine\": \"franklin\", \"runs\": 1, \"workload\": {\"kind\": "
         "\"ior\", \"tasks\": 32, \"block_mib\": 8, \"segments\": 2, "
         "\"read_back\": true, \"file_per_process\": true, "
         "\"fpp_stripe_count\": 1}, \"faults\": {\"slow_osts\": [{\"ost\": "
      << seed % 48
      << ", \"factor\": 0.2}]}}, \"sweep\": {\"mode\": \"grid\", \"axes\": "
         "{\"workload.calls_per_block\": [1, 4], \"seed\": "
      << seeds(seed, 40) << "}}}\n";
  std::ofstream(dir / "gcrm_small.json")
      << "{\"schema_version\": 1, \"name\": \"gcrm-small\", \"base\": "
         "{\"schema_version\": 1, \"name\": \"gcrm-small-base\", \"machine\": "
         "\"franklin\", \"runs\": 1, \"workload\": {\"kind\": \"gcrm\", "
         "\"preset\": \"collective\", \"tasks\": 160, \"io_tasks\": 8}}, "
         "\"sweep\": {\"mode\": \"grid\", \"axes\": {\"workload.preset\": "
         "[\"collective\", \"optimized\"], \"seed\": "
      << seeds(seed, 20) << "}}}\n";
}

std::vector<std::string> worker_files(const fs::path& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("worker-", 0) == 0) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

class CampaignSweep {
 public:
  CampaignSweep(const Options& opt, Checks& checks)
      : opt_(opt), checks_(checks) {}

  /// Write the manifest and run it once; the warm-up's store and
  /// report are the byte-exact reference for every timed iteration.
  void setup() {
    write_manifest(manifest_, opt_.seed);
    fs::remove_all(warm_);
    checks_.expect(campaign(warm_) == 0, "warm-up campaign exits 0");
    check_store(warm_);
    reference_store_ = slurp(warm_ / "campaign.jsonl");
    reference_report_ = slurp(warm_ / "report.json");
    eio::json::Value report = eio::json::parse(reference_report_);
    events_ = report.at("events").as_number();
  }

  void iterate() { rc_ = campaign(out_); }

  void check() {
    checks_.expect(rc_ == 0, "campaign exits 0");
    check_store(out_);
    checks_.expect(slurp(out_ / "campaign.jsonl") == reference_store_,
                   "campaign.jsonl byte-identical across repetitions");
    checks_.expect(slurp(out_ / "report.json") == reference_report_,
                   "report.json byte-identical across repetitions");
    fs::remove_all(out_);
  }

  /// Layer probes over the warm-up campaign's inputs and store files.
  void probe_layers(std::vector<double>& record_walls) {
    std::vector<eio::workloads::RunPlan> plans;
    {
      OBS_SPAN("bench.workloads.expand");
      plans = eio::workloads::expand_manifest(manifest_.string());
    }
    checks_.expect(plans.size() == kPlans, "manifest expands to every plan");
    for (const eio::workloads::RunPlan& plan : plans) {
      OBS_SPAN("bench.campaign.record");
      double t0 = now_s();
      (void)eio::campaign::run_record(plan);
      record_walls.push_back(now_s() - t0);
    }
    std::map<std::uint64_t, std::string> records;
    {
      OBS_SPAN("bench.campaign.merge");
      records = eio::campaign::merge_store_files(worker_files(warm_));
      std::ofstream f(opt_.work / "probe_campaign.jsonl", std::ios::binary);
      eio::campaign::write_merged(f, records);
    }
    {
      OBS_SPAN("bench.campaign.report");
      eio::campaign::FleetReport report = eio::campaign::build_report(records);
      std::ofstream f(opt_.work / "probe_report.json", std::ios::binary);
      eio::campaign::write_report_json(f, report);
    }
  }

  [[nodiscard]] double events() const { return events_; }

 private:
  int campaign(const fs::path& out) {
    eio::campaign::CampaignOptions copt;
    copt.manifest = manifest_.string();
    copt.out_dir = out.string();
    copt.workers = kWorkers;
    std::ostringstream os;
    std::ostringstream es;
    int rc = eio::campaign::run_campaign(copt, os, es);
    log_ = os.str();
    if (rc != 0) std::cerr << "perfbench: campaign rc " << rc << "\n" << es.str();
    return rc;
  }

  /// Every planned run has exactly one record, in run order; nothing
  /// was discarded; the report counts every record.
  void check_store(const fs::path& out) {
    std::ifstream plans(out / "runs.jsonl");
    std::size_t planned = 0;
    for (std::string line; std::getline(plans, line);) ++planned;
    checks_.expect(planned == kPlans, "campaign plans every run");
    std::ifstream store(out / "campaign.jsonl");
    std::size_t records = 0;
    bool ordered = true;
    for (std::string line; std::getline(store, line); ++records) {
      eio::json::Value v = eio::json::parse(line);
      ordered = ordered && static_cast<std::size_t>(v.at("run").as_number()) == records;
    }
    checks_.expect(records == planned && ordered,
                   "one record per planned run, in run order");
    std::ostringstream merged;
    merged << "merged " << planned << " records (0 discarded, 0 duplicates)";
    checks_.expect(log_.find(merged.str()) != std::string::npos,
                   "store merge discards nothing");
    eio::json::Value report = eio::json::parse(slurp(out / "report.json"));
    checks_.expect(static_cast<std::size_t>(report.at("records").as_number()) ==
                       planned,
                   "report record count = plan count");
  }

  const Options& opt_;
  Checks& checks_;
  fs::path manifest_ = opt_.work / "manifest";
  fs::path warm_ = opt_.work / "warm";
  fs::path out_ = opt_.work / "out";
  std::string reference_store_, reference_report_, log_;
  double events_ = 0.0;
  int rc_ = 0;
};

}  // namespace

void run_campaign_sweep(const Options& opt, Checks& checks, Result& result) {
  CampaignSweep w(opt, checks);
  auto& m = result.metrics;
  auto iterate = [&] { w.iterate(); };
  auto check = [&] { w.check(); };
  const auto plans = static_cast<double>(kPlans);

  if (!opt.trace) {
    // The host probe runs on as many threads as there are workers.
    m["setup_s"] = timed_setup(3, kWorkers, [&] { w.setup(); });
    const Samples samples = time_loop(opt.seconds, 3, kWorkers, iterate, check);
    const std::vector<double> walls = samples.ref();
    const double wall = median(walls);
    m["wall_s"] = wall;
    m["wall_tail_s"] = tail(walls);
    m["calls_per_s"] = w.events() / wall;
    m["events_per_s"] = w.events() / wall;
    m["events_per_s_par"] = w.events() / wall;
    m["runs_per_s"] = plans / wall;
    m["peak_rss_mib"] = std::max(samples.peak_mib, children_peak_rss_mib());
    return;
  }

  w.setup();
  std::vector<double> record_walls;
  TracedRounds rounds = traced_rounds(opt.seconds, iterate, check,
                                      [&] { w.probe_layers(record_walls); });
  // Only the in-process probes feed the simulator counters: the
  // campaign's own runs execute in its worker processes.
  auto counter = [](const char* name) {
    return static_cast<double>(obs_counter(name));
  };
  const double untraced = median(rounds.untraced);
  const auto n = static_cast<double>(rounds.probes);
  const double events = counter("sim.events_run");
  m["sim.events"] = events / n;
  m["sim.reaped_per_event"] = counter("sim.calendar_entries_reaped") / events;
  m["sim.calendar_compactions"] = counter("sim.calendar_compactions") / n;
  m["ipm.calls"] = counter("ipm.calls_intercepted") / n;
  m["lustre.writes"] = counter("fs.writes") / n;
  m["lustre.small_ops"] = counter("fs.small_ops") / n;
  m["lustre.bytes_written"] = counter("fs.bytes_written") / n;
  std::map<std::string, double> spans = end_trace(opt);

  m["workloads.expand_s"] = spans["bench.workloads.expand"] / n;
  m["campaign.record_s_p50"] = median(record_walls);
  m["campaign.record_s_sum"] = spans["bench.campaign.record"] / n;
  m["campaign.dispatch_share"] =
      1.0 - m["campaign.record_s_sum"] / (static_cast<double>(kWorkers) * untraced);
  m["campaign.merge_s"] = spans["bench.campaign.merge"] / n;
  m["campaign.report_s"] = spans["bench.campaign.report"] / n;
  m["obs.overhead_ratio"] = median(rounds.traced) / untraced;
  checks.expect(m["ipm.calls"] == w.events(),
                "in-process records intercept the report's event total");
}

}  // namespace perfbench
