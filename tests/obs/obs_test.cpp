// Tests for the self-observability layer: registry semantics, Chrome
// trace structural validity, and the counter determinism contract
// (counters depend only on the work done, never on --jobs).
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cli/eiotrace.h"
#include "common/rng.h"
#include "obs/export.h"
#include "support/temp_path.h"

namespace eio::obs {
namespace {

/// One parsed Chrome trace event (duration-begin/end or metadata).
struct TraceEvent {
  std::string ph;
  std::uint32_t tid = 0;
  double ts = 0.0;
  std::string name;
};

/// Minimal field extraction for the line-oriented JSON the exporter
/// writes (one event object per line). Not a general JSON parser; the
/// CI smoke job runs `python3 -m json.tool` for full syntax checks.
std::string string_field(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  pos += needle.size();
  auto end = line.find('"', pos);
  return line.substr(pos, end - pos);
}

double number_field(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

std::vector<TraceEvent> parse_chrome_trace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":") == std::string::npos) continue;
    TraceEvent e;
    e.ph = string_field(line, "ph");
    e.tid = static_cast<std::uint32_t>(number_field(line, "tid"));
    e.ts = number_field(line, "ts");
    e.name = string_field(line, "name");
    events.push_back(e);
  }
  return events;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The counters object of a metrics report, verbatim. Counter values
/// are contractually independent of --jobs, so two reports from the
/// same work must carry byte-identical counters sections.
std::string counters_section(const std::string& json) {
  auto begin = json.find("\"counters\"");
  auto end = json.find("\"gauges\"");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return json.substr(begin, end - begin);
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::temp_dir();
  }

  void TearDown() override {
    // run_eiotrace toggles the global registry; leave it quiescent for
    // whatever test runs next in this process.
    set_enabled(false);
    Registry::instance().reset();
  }

  /// Run a command line in-process; returns {exit code, stdout, stderr}.
  std::tuple<int, std::string, std::string> run(std::vector<std::string> args) {
    std::ostringstream out, err;
    int rc = cli::run_eiotrace(args, out, err);
    return {rc, out.str(), err.str()};
  }

  /// Simulate a tiny ensemble and convert run 0 to indexed binary v3,
  /// so summary exercises the chunk-parallel scanner.
  std::string make_v3_trace() {
    auto [rc, out, err] = run({"simulate", "--runs=2", "--tasks=16",
                               "--block-mib=4", "--save-dir=" + dir_});
    EXPECT_EQ(rc, 0) << err;
    std::string v3 = dir_ + "/run0.v3";
    auto [rc2, out2, err2] = run({"convert", dir_ + "/run0.tsv", v3});
    EXPECT_EQ(rc2, 0) << err2;
    return v3;
  }

  std::string dir_;
};

TEST_F(ObsTest, RegistryCountsAndTimesAcrossSnapshots) {
  Registry::instance().reset();
  set_enabled(true);
  OBS_COUNTER_ADD("test.widgets", 3);
  OBS_COUNTER_ADD("test.widgets", 4);
  OBS_GAUGE_SET("test.level", 42);
  {
    OBS_SPAN("test.outer");
    OBS_SPAN("test.inner");
  }
  set_enabled(false);
  // Disabled adds must not land anywhere.
  OBS_COUNTER_ADD("test.widgets", 100);

  Snapshot snap = Registry::instance().snapshot();
  std::map<std::string, std::uint64_t> counters;
  for (const CounterValue& c : snap.counters) counters[c.name] = c.value;
  EXPECT_EQ(counters["test.widgets"], 7u);
  std::map<std::string, std::int64_t> gauges;
  for (const GaugeValue& g : snap.gauges) gauges[g.name] = g.value;
  EXPECT_EQ(gauges["test.level"], 42);

  EXPECT_EQ(snap.spans_recorded, 2u);
  std::set<std::string> span_names;
  for (const LatencySummary& s : snap.latency) {
    span_names.insert(s.name);
    EXPECT_EQ(s.moments.count, 1u);
    EXPECT_GE(s.max_s, 0.0);
  }
  EXPECT_EQ(span_names, (std::set<std::string>{"test.inner", "test.outer"}));

  // The inner span nests inside the outer one.
  std::vector<NamedSpan> spans = Registry::instance().spans();
  ASSERT_EQ(spans.size(), 2u);
  const NamedSpan& inner = spans[0].name == "test.inner" ? spans[0] : spans[1];
  const NamedSpan& outer = spans[0].name == "test.inner" ? spans[1] : spans[0];
  EXPECT_EQ(outer.depth + 1, inner.depth);
  EXPECT_LE(outer.t_begin, inner.t_begin);
  EXPECT_GE(outer.t_end, inner.t_end);
}

TEST_F(ObsTest, ChromeTraceIsBalancedAndMonotonicPerThread) {
  std::string trace = dir_ + "/sim_trace.json";
  auto [rc, out, err] =
      run({"simulate", "--runs=2", "--tasks=16", "--block-mib=4",
           "--jobs=2", "--chrome-trace", trace});
  ASSERT_EQ(rc, 0) << err;

  std::vector<TraceEvent> events = parse_chrome_trace(trace);
  ASSERT_FALSE(events.empty());

  std::set<std::string> names;
  std::map<std::uint32_t, std::vector<std::string>> stacks;
  std::map<std::uint32_t, double> last_ts;
  for (const TraceEvent& e : events) {
    if (e.ph == "M") continue;  // process_name metadata
    ASSERT_TRUE(e.ph == "B" || e.ph == "E") << "unexpected phase " << e.ph;
    // Timestamps never go backwards within a thread lane.
    auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second);
    }
    last_ts[e.tid] = e.ts;
    auto& stack = stacks[e.tid];
    if (e.ph == "B") {
      names.insert(e.name);
      stack.push_back(e.name);
    } else {
      ASSERT_FALSE(stack.empty()) << "E without matching B on tid " << e.tid;
      EXPECT_EQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  // The simulation side alone contributes several distinct span names.
  EXPECT_GE(names.size(), 4u) << "simulate trace lacks span variety";
  EXPECT_TRUE(names.count("sim.run"));
  EXPECT_TRUE(names.count("ensemble.run"));
}

TEST_F(ObsTest, ScannerPhasesAppearInChromeTrace) {
  std::string v3 = make_v3_trace();
  std::string trace = dir_ + "/scan_trace.json";
  auto [rc, out, err] =
      run({"summary", v3, "--jobs=2", "--chrome-trace", trace});
  ASSERT_EQ(rc, 0) << err;

  std::set<std::string> names;
  for (const TraceEvent& e : parse_chrome_trace(trace)) {
    if (e.ph == "B") names.insert(e.name);
  }
  EXPECT_TRUE(names.count("scan.scan"));
  EXPECT_TRUE(names.count("scan.fold_chunk"));
  EXPECT_TRUE(names.count("v3.decode_chunk"));
}

TEST_F(ObsTest, MetricsCountersAreIdenticalAcrossJobs) {
  std::string v3 = make_v3_trace();
  std::vector<std::string> sections;
  for (const char* jobs : {"--jobs=1", "--jobs=2", "--jobs=4"}) {
    std::string metrics = dir_ + "/metrics_" + (jobs + 7) + ".json";
    auto [rc, out, err] = run({"summary", v3, jobs, "--metrics", metrics});
    ASSERT_EQ(rc, 0) << err;
    std::string json = read_file(metrics);
    EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
    sections.push_back(counters_section(json));
  }
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[0], sections[1]) << "counters differ between jobs 1 and 2";
  EXPECT_EQ(sections[0], sections[2]) << "counters differ between jobs 1 and 4";
  // The scanner counters must actually be present, not vacuously equal.
  EXPECT_NE(sections[0].find("scan.chunks_scanned"), std::string::npos);
  EXPECT_NE(sections[0].find("v3.events_decoded"), std::string::npos);

  // Simulation counters, flushed once per run from plain members, are
  // just as independent of how runs are spread over threads -- and so
  // are the trace-file counters, flushed once per saved file by the
  // file sink on whichever worker ran it.
  std::vector<std::string> sim_sections;
  for (const char* jobs : {"--jobs=1", "--jobs=2", "--jobs=4"}) {
    std::string metrics = dir_ + "/sim_metrics_" + (jobs + 7) + ".json";
    std::string save = dir_ + "/saved_" + (jobs + 7);
    std::filesystem::create_directory(save);
    auto [rc, out, err] =
        run({"simulate", "--runs=4", "--tasks=16", "--block-mib=4", jobs,
             "--metrics", metrics, "--save-dir", save, "--format=v3"});
    ASSERT_EQ(rc, 0) << err;
    sim_sections.push_back(counters_section(read_file(metrics)));
  }
  EXPECT_EQ(sim_sections[0], sim_sections[1]) << "sim counters differ, jobs 1 vs 2";
  EXPECT_EQ(sim_sections[0], sim_sections[2]) << "sim counters differ, jobs 1 vs 4";
  for (const char* name : {"\"fluid.refreshes\"", "\"fluid.reschedules\"",
                           "\"fluid.recomputes\"", "\"fluid.full_scans\"",
                           "\"sim.calendar_cancels\"", "\"sim.events_run\"",
                           "\"ipm.trace_bytes_written\"",
                           "\"ipm.trace_chunks_written\""}) {
    EXPECT_NE(sim_sections[0].find(name), std::string::npos) << name;
  }
}

TEST_F(ObsTest, SpanQuantilesLieWithinMinAndMax) {
  // Bin-center quantile estimates must never leave the exact sample
  // range: min <= p50 <= p95 <= p99 <= max for every span, whatever
  // its sample count. Durations span under- and overflow of the fixed
  // 1 ns .. 1000 s binning, and include single-sample spans.
  Registry& reg = Registry::instance();
  reg.reset();
  rng::Stream r(2024);
  for (int i = 0; i < 64; ++i) {
    std::string name = "test.quantile_";
    name += std::to_string(i);
    MetricId id = reg.span_id(name);
    const std::size_t samples = i < 16 ? 1 : 1 + r.index(200);
    for (std::size_t k = 0; k < samples; ++k) {
      reg.span_end(id, 0.0, std::pow(10.0, r.uniform(-10.5, 3.5)), 0);
    }
  }
  // The reported case: one 1.06 s sample sits in a bin centred at 1.33 s.
  reg.span_end(reg.span_id("test.quantile_single"), 0.0, 1.06, 0);

  Snapshot snap = reg.snapshot();
  std::size_t checked = 0;
  for (const LatencySummary& s : snap.latency) {
    if (s.name.rfind("test.quantile_", 0) != 0) continue;
    ++checked;
    EXPECT_LE(s.min_s, s.p50_s) << s.name;
    EXPECT_LE(s.p50_s, s.p95_s) << s.name;
    EXPECT_LE(s.p95_s, s.p99_s) << s.name;
    EXPECT_LE(s.p99_s, s.max_s) << s.name;
    if (s.moments.count == 1) {
      EXPECT_EQ(s.p50_s, s.max_s) << s.name;
      EXPECT_EQ(s.p99_s, s.min_s) << s.name;
    }
  }
  EXPECT_EQ(checked, 65u);
}

TEST_F(ObsTest, MetricsTsvAndVersionCommand) {
  std::string tsv = dir_ + "/metrics.tsv";
  auto [rc, out, err] = run({"simulate", "--runs=1", "--tasks=8",
                             "--block-mib=4", "--metrics", tsv});
  ASSERT_EQ(rc, 0) << err;
  std::string table = read_file(tsv);
  EXPECT_NE(table.find("kind\tname\tcount"), std::string::npos);
  EXPECT_NE(table.find("counter\tsim.events_run"), std::string::npos);
  EXPECT_NE(table.find("span\tsim.run"), std::string::npos);

  auto [vrc, vout, verr] = run({"version"});
  EXPECT_EQ(vrc, 0);
  EXPECT_NE(vout.find("git_sha"), std::string::npos);
  EXPECT_NE(vout.find("compiler"), std::string::npos);
}

}  // namespace
}  // namespace eio::obs
