// Batch-boundary invariance of every capture sink: the Monitor hands
// on kDefaultBatchEvents rows at a time, a v3 scan one chunk, a TSV
// replay its own runs — so a sink's state must be a function of the
// event stream alone, never of where the stream was cut. Each sink is
// fed one seed trace in batches of 1, 7, 4096 and whole, and its
// finished state (or file bytes) must be identical across all four.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/samples.h"
#include "ipm/columns.h"
#include "ipm/report.h"
#include "ipm/sink.h"
#include "ipm/trace_file.h"
#include "ipm/trace_v3.h"
#include "monitor/health.h"
#include "support/temp_path.h"
#include "workloads/ensemble.h"
#include "workloads/scenario.h"

namespace eio::ipm {
namespace {

/// A slow-OST IOR run long enough for several 4096-row batches and
/// for the health monitor to open incidents.
const Trace& seed_trace() {
  static const Trace trace = [] {
    workloads::ScenarioBuilder scenario = workloads::scenario_from_json(
        json::parse(R"({"schema_version": 1, "name": "batch-invariance",
          "machine": "franklin", "runs": 1,
          "workload": {"kind": "ior", "tasks": 96, "block_mib": 16,
                       "segments": 48, "file_per_process": true,
                       "fpp_stripe_count": 1},
          "faults": {"slow_osts": [{"ost": 5, "factor": 0.2}]}})"));
    workloads::JobSpec job = scenario.job();
    job.capture = Mode::kTrace;
    return workloads::ParallelEnsembleRunner({.jobs = 1})
        .run_ensemble(job, 1)
        .front()
        .trace;
  }();
  return trace;
}

std::string hex(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Every bit of a summary a report can read.
std::string summary_state(const stats::StreamingSummary& s) {
  std::ostringstream out;
  const stats::Moments m = s.moments();
  out << s.count() << ' ' << hex(m.mean) << ' ' << hex(m.variance) << ' '
      << hex(m.skewness) << ' ' << hex(m.kurtosis_excess);
  if (!s.empty()) {
    out << ' ' << hex(s.min()) << ' ' << hex(s.max()) << ' '
        << hex(s.median());
  }
  for (double x : s.reservoir().samples()) out << ' ' << hex(x);
  return out.str();
}

/// Feed the seed trace to every capture sink in batches of
/// `batch_events` rows and return each sink's finished state by name.
std::map<std::string, std::string> states_after(std::size_t batch_events) {
  const Trace& t = seed_trace();
  const std::string dir = test::temp_path("batch_" + std::to_string(batch_events));
  std::filesystem::create_directories(dir);

  // Small reservoirs, so sampling past capacity is part of the state.
  const stats::SummaryOptions small{.reservoir_capacity = 64};
  monitor::HealthOptions health_options;
  health_options.ost_count = 48;

  Trace captured(t.experiment(), t.ranks());
  Profile profile;
  auto summary = std::make_shared<analysis::SummarySink>(
      analysis::EventFilter{.op = posix::OpType::kWrite}, small);
  auto phases = std::make_shared<analysis::PhaseSummarySink>(
      analysis::EventFilter{}, small);
  auto health = std::make_shared<monitor::HealthKernel>(health_options);
  auto report = std::make_shared<JobReportAccumulator>(t.experiment(), t.ranks());
  auto tsv = std::make_shared<TraceFileSink>(dir + "/run.tsv", TraceFormat::kTsv,
                                             t.experiment(), t.ranks());
  auto v3 = std::make_shared<TraceFileSink>(
      dir + "/run.v3", TraceFormat::kBinaryV3, t.experiment(), t.ranks());
  std::ostringstream small_chunks(std::ios::binary);
  auto v3_64 = std::make_shared<TraceWriterV3>(
      small_chunks, t.experiment(), t.ranks(),
      TraceWriterV3::Options{.chunk_events = 64});
  FanoutSink chain({std::make_shared<TraceSink>(captured),
                    std::make_shared<ProfileSink>(profile), summary, phases,
                    health, report, tsv, v3, v3_64});

  ColumnScratch scratch;
  const std::span<const TraceEvent> rows(t.events());
  for (std::size_t i = 0; i < rows.size(); i += batch_events) {
    const std::size_t n = std::min(batch_events, rows.size() - i);
    chain.add_batch(shred(rows.subspan(i, n), scratch));
  }
  chain.finish();
  tsv->commit();
  v3->commit();

  std::map<std::string, std::string> state;
  std::ostringstream trace_bytes;
  captured.write(trace_bytes);
  state["TraceSink"] = trace_bytes.str();

  std::ostringstream cells;
  cells << profile.total();
  for (const auto& [key, bins] : profile.cells()) {
    cells << " | " << static_cast<int>(key.op) << ':' << key.size_bucket;
    for (std::uint64_t c : bins) cells << ' ' << c;
  }
  state["ProfileSink"] = cells.str();

  state["SummarySink"] = summary_state(summary->summary());

  std::string by_phase;
  for (const auto& [phase, s] : phases->by_phase()) {
    by_phase += std::to_string(phase) + ": " + summary_state(s) + "\n";
  }
  state["PhaseSummarySink"] = by_phase;

  std::ostringstream incidents;
  const monitor::Counts& c = health->counts();
  incidents << health->events_consumed() << ' ' << c.windows_evaluated << ' '
            << c.phases_evaluated << ' ' << c.incidents_opened << ' '
            << c.incidents_cleared << '\n';
  monitor::write_incidents_jsonl(incidents, health->incidents());
  state["HealthKernel"] = incidents.str();
  EXPECT_FALSE(health->incidents().empty()) << "seed trace opens no incident";

  std::ostringstream banner;
  print_report(banner, report->report());
  state["JobReportAccumulator"] = banner.str();

  state["TraceFileSink tsv"] = read_file(dir + "/run.tsv");
  state["TraceFileSink v3"] = read_file(dir + "/run.v3");
  state["TraceWriterV3 64-event chunks"] = small_chunks.str();
  std::filesystem::remove_all(dir);
  return state;
}

TEST(BatchInvarianceTest, EveryCaptureSinkIgnoresBatchBoundaries) {
  const std::size_t events = seed_trace().size();
  ASSERT_GT(events, 2 * TraceSource::kDefaultBatchEvents);
  const auto whole = states_after(events);
  for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                            TraceSource::kDefaultBatchEvents}) {
    const auto cut = states_after(batch);
    ASSERT_EQ(cut.size(), whole.size());
    for (const auto& [sink, state] : whole) {
      EXPECT_FALSE(state.empty()) << sink;
      EXPECT_TRUE(cut.at(sink) == state)
          << sink << " differs when fed " << batch << "-row batches";
    }
  }
}

TEST(BatchInvarianceTest, FilesEqualTheMaterializedSave) {
  // The streamed files are the ones Trace::save* writes, whatever the
  // batch size (the v3 chunks stay at 4096 events).
  const Trace& t = seed_trace();
  std::ostringstream tsv;
  t.write(tsv);
  std::ostringstream v3(std::ios::binary);
  t.write_binary_v3(v3);
  const auto state = states_after(7);
  EXPECT_TRUE(state.at("TraceFileSink tsv") == tsv.str());
  EXPECT_TRUE(state.at("TraceFileSink v3") == v3.str());
  EXPECT_TRUE(state.at("TraceSink") == tsv.str());
}

}  // namespace
}  // namespace eio::ipm
