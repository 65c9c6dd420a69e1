// `simulate --save-dir` streams each run's trace file from the sink
// chain while the run executes. Whatever the format, worker count or
// monitor setting, every file must equal what Trace::save /
// save_binary_v3 write for a fully materialized (kBoth) run of the
// same job, and no temporary may outlive the command.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/eiotrace.h"
#include "ipm/trace.h"
#include "workloads/ensemble.h"
#include "workloads/scenario.h"
#include "support/temp_path.h"

namespace eio::cli {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Sorted file names in `dir`.
std::vector<std::string> listing(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

struct ScenarioCase {
  const char* label;
  const char* file;  ///< under examples/scenarios/
  /// Text spliced after the workload's "kind" member (shrinks a
  /// production-sized scenario to test size), or empty.
  const char* workload_extra;
};

/// Print a case by label, so registered test names stay stable.
void PrintTo(const ScenarioCase& c, std::ostream* os) { *os << c.label; }

/// The checked-in scenario, optionally shrunk, written to a scratch path.
std::string scenario_path(const ScenarioCase& c) {
  const std::string source =
      std::string(EIO_SOURCE_DIR) + "/examples/scenarios/" + c.file;
  if (c.workload_extra[0] == '\0') return source;
  std::string json = read_file(source);
  const std::string kind = "\"kind\": \"gcrm\",";
  const auto at = json.find(kind);
  EXPECT_NE(at, std::string::npos) << c.file;
  json.insert(at + kind.size(), c.workload_extra);
  const std::string path = test::temp_path(std::string(c.label) + ".json");
  std::ofstream(path) << json;
  return path;
}

class SaveDirTest : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(SaveDirTest, StreamedFilesEqualTheMaterializedTraces) {
  constexpr std::size_t kRuns = 2;
  const std::string scenario = scenario_path(GetParam());

  // The reference: the same job captured in full, saved after the fact.
  workloads::JobSpec job = workloads::load_scenario(scenario).job();
  job.capture = ipm::Mode::kBoth;
  const auto results = workloads::run_ensemble(job, kRuns, 1);
  std::vector<std::string> expected_tsv, expected_v3;
  for (const auto& r : results) {
    std::ostringstream tsv, v3;
    r.trace.write(tsv);
    r.trace.write_binary_v3(v3);
    expected_tsv.push_back(tsv.str());
    expected_v3.push_back(v3.str());
  }

  for (const char* format : {"tsv", "v3"}) {
    for (const char* jobs : {"--jobs=1", "--jobs=3"}) {
      for (bool monitored : {false, true}) {
        std::string tag = std::string(format) + (jobs + 7) +
                          (monitored ? "_monitor" : "");
        const std::string dir = test::temp_path(tag);
        fs::create_directory(dir);
        std::vector<std::string> args = {
            "simulate", "--scenario=" + scenario, "--runs=2", jobs,
            "--save-dir=" + dir, std::string("--format=") + format};
        if (monitored) args.emplace_back("--monitor");
        std::ostringstream out, err;
        ASSERT_EQ(run_eiotrace(args, out, err), 0) << tag << ": " << err.str();

        std::vector<std::string> names;
        std::string wrote;
        for (std::size_t i = 0; i < kRuns; ++i) {
          std::string name = "run" + std::to_string(i) + "." + format;
          const auto& expected =
              std::string(format) == "tsv" ? expected_tsv : expected_v3;
          EXPECT_TRUE(read_file(dir + "/" + name) == expected[i])
              << tag << ": " << name << " differs from the materialized save";
          wrote += "wrote " + dir + "/" + name + "\n";
          names.push_back(std::move(name));
        }
        // Exactly the committed files: no temporary survives.
        EXPECT_EQ(listing(dir), names) << tag;
        const std::string stdout_text = out.str();
        ASSERT_GE(stdout_text.size(), wrote.size());
        EXPECT_EQ(stdout_text.substr(stdout_text.size() - wrote.size()), wrote)
            << tag;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SaveDirTest,
    ::testing::Values(
        ScenarioCase{"ior", "ensemble_stability.json", ""},
        ScenarioCase{"gcrm", "fig6_gcrm_baseline.json", " \"tasks\": 320,"},
        ScenarioCase{"slow_ost", "slow_ost.json", ""}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(SaveDirFailureTest, FailedRunLeavesNoTraceFiles) {
  // run1's temporary cannot be created, so run 1 fails after run 0 has
  // streamed (and, at --jobs=3, run 2 is streaming) its own file.
  for (const char* jobs : {"--jobs=1", "--jobs=3"}) {
    const std::string dir = test::temp_path(std::string("failed") + (jobs + 7));
    fs::create_directories(dir + "/run1.v3.tmp");
    std::ostringstream out, err;
    int rc = run_eiotrace({"simulate", "--runs=3", "--tasks=16",
                           "--segments=2", "--block-mib=1", jobs,
                           "--save-dir=" + dir, "--format=v3"},
                          out, err);
    EXPECT_EQ(rc, 2) << jobs;
    EXPECT_NE(err.str().find("cannot open for writing: " + dir +
                             "/run1.v3.tmp"),
              std::string::npos)
        << err.str();
    EXPECT_EQ(out.str().find("wrote"), std::string::npos) << out.str();
    // Only the obstruction itself is left.
    EXPECT_EQ(listing(dir), std::vector<std::string>{"run1.v3.tmp"}) << jobs;
  }
}

}  // namespace
}  // namespace eio::cli
