// The monitored analyze bundle under per-member merge lanes: on the
// slow-OST scenario trace, written with small chunks so the scan has
// many partials to merge, `analyze --monitor --json` and its
// --incidents JSONL must come out byte-identical for every jobs value
// and merge window; the incident log also matches a serial pass over a
// TSV copy of the same trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/json_out.h"
#include "cli/eiotrace.h"
#include "common/json.h"
#include "core/parallel_analysis.h"
#include "ipm/parallel_scan.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"
#include "monitor/health.h"
#include "support/temp_path.h"
#include "workloads/ensemble.h"
#include "workloads/scenario.h"

namespace eio::monitor {
namespace {

/// Small enough that the 1,155-event trace spans 73 chunks.
constexpr std::size_t kChunkEvents = 16;

const ipm::Trace& slow_ost_trace() {
  static const ipm::Trace trace = [] {
    workloads::ScenarioBuilder scenario = workloads::load_scenario(
        std::string(EIO_SOURCE_DIR) + "/examples/scenarios/slow_ost.json");
    workloads::JobSpec job = scenario.job();
    job.capture = ipm::Mode::kBoth;
    return workloads::ParallelEnsembleRunner({.jobs = 1})
        .run_ensemble(job, 1)
        .front()
        .trace;
  }();
  return trace;
}

std::string write_v3_copy() {
  const ipm::Trace& t = slow_ost_trace();
  std::string path = test::temp_path("slow_ost.v3");
  std::ofstream out(path, std::ios::binary);
  ipm::TraceWriterV3 w(out, t.experiment(), t.ranks(),
                       {.chunk_events = kChunkEvents});
  for (const ipm::TraceEvent& e : t.events()) w.add(e);
  w.finish();
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// `analyze --monitor --json` through the CLI: {stdout, incidents JSONL}.
std::pair<std::string, std::string> analyze_cli(
    const std::string& trace, std::size_t jobs,
    const std::vector<std::string>& extra) {
  const std::string log = test::temp_path("incidents.jsonl");
  std::vector<std::string> args = {"analyze", trace, "--monitor", "--json",
                                   "--jobs=" + std::to_string(jobs),
                                   "--incidents=" + log};
  args.insert(args.end(), extra.begin(), extra.end());
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_eiotrace(args, out, err), 0) << err.str();
  std::string incidents = slurp(log);
  std::remove(log.c_str());
  return {out.str(), incidents};
}

/// The same bundle `analyze --monitor` fuses, scanned with explicit
/// ScanOptions (the merge window is not a CLI knob) and serialized
/// with the same emitters.
std::string analyze_bundle(const std::string& trace, ipm::ScanOptions scan,
                           const HealthOptions& mopt) {
  ipm::ParallelTraceScanner scanner(trace, scan);
  const double span = scanner.time_span();
  analysis::EventFilter base, wf, rf;
  wf.op = posix::OpType::kWrite;
  rf.op = posix::OpType::kRead;
  auto merged = scanner.scan_kernels([&](std::size_t chunk) {
    return analysis::KernelSet(
        analysis::SummarySink(wf), analysis::SummarySink(rf),
        analysis::PhaseSummarySink(base),
        analysis::HistogramKernel(base, {.bins = 40}),
        analysis::RateKernel(base, span, 100), HealthKernel(mopt, chunk));
  });
  auto& health = merged.get<5>();
  health.finish();
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.key("write");
  campaign::write_summary(w, merged.get<0>().summary());
  w.key("read");
  campaign::write_summary(w, merged.get<1>().summary());
  w.key("phases");
  campaign::write_phase_summaries(w, merged.get<2>().by_phase());
  const auto hist = merged.get<3>().histogram().materialize();
  EXPECT_TRUE(hist.has_value());
  if (hist) {
    w.key("histogram");
    campaign::write_histogram(w, *hist);
  }
  w.key("rates");
  campaign::write_rates(w, merged.get<4>().series());
  w.key("counts");
  campaign::write_monitor_counts(w, health.counts());
  w.end_object();
  os << "\n";
  write_incidents_jsonl(os, health.incidents());
  return os.str();
}

TEST(MonitorLanesTest, AnalyzeMonitorIsByteIdenticalAcrossJobsAndFormats) {
  const std::string v3 = write_v3_copy();
  const std::string tsv = test::temp_path("slow_ost.tsv");
  slow_ost_trace().save(tsv);
  // Default detector cadence, then one fine enough that evaluations
  // and incidents fall inside the segments of non-root partials.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{},
        std::vector<std::string>{"--stride=32", "--window=128"}}) {
    const auto reference = analyze_cli(v3, 1, extra);
    EXPECT_NE(reference.first.find("\"monitor\""), std::string::npos);
    EXPECT_NE(reference.second.find("\"subject\":5"), std::string::npos);
    for (std::size_t jobs : {2u, 3u, 4u, 8u}) {
      const auto got = analyze_cli(v3, jobs, extra);
      EXPECT_EQ(got.first, reference.first) << "jobs=" << jobs;
      EXPECT_EQ(got.second, reference.second) << "jobs=" << jobs;
    }
    // The TSV scan merges 4,096-row chunk partials, not the v3 copy's
    // 73: the incident log must still match byte for byte.
    EXPECT_EQ(analyze_cli(tsv, 1, extra).second, reference.second);
  }
  std::remove(v3.c_str());
  std::remove(tsv.c_str());
}

TEST(MonitorLanesTest, BundleIsByteIdenticalAcrossJobsAndMergeWindows) {
  const std::string v3 = write_v3_copy();
  HealthOptions fine;
  fine.ost_count = 48;
  fine.stride = 32;
  fine.window = 128;
  HealthOptions coarse;
  coarse.ost_count = 48;
  for (const HealthOptions& mopt : {coarse, fine}) {
    const std::string reference = analyze_bundle(v3, {.jobs = 1}, mopt);
    EXPECT_NE(reference.find("\"subject\":5"), std::string::npos);
    for (std::size_t jobs : {1u, 2u, 3u, 4u, 8u}) {
      for (std::size_t window : {1u, 2u, 0u}) {
        EXPECT_EQ(
            analyze_bundle(v3, {.jobs = jobs, .merge_window = window}, mopt),
            reference)
            << "jobs=" << jobs << " window=" << window
            << " stride=" << mopt.stride;
      }
    }
  }
  std::remove(v3.c_str());
}

}  // namespace
}  // namespace eio::monitor
