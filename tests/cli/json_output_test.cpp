// The machine-readable output contract: `--json` on summary, analyze,
// diagnose, and monitor emits one compact document with a pinned
// schema — schema_version, fixed key order, %.9g floats. Golden files
// under tests/cli/golden/ hold the exact expected bytes; any change to
// the emitters shows up as a byte diff here and must be deliberate
// (regenerate with EIO_UPDATE_GOLDEN=1 and review the diff).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/command.h"
#include "cli/eiotrace.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/units.h"
#include "ipm/trace.h"
#include "support/temp_path.h"

namespace eio::cli {
namespace {

using posix::OpType;

class JsonOutputTest : public ::testing::Test {
 protected:
  /// Same deterministic shape as the EiotraceTest fixture: 8 ranks, 48
  /// strided reads (phases 0-5), 32 aligned writes (phases 10-13).
  static ipm::Trace fixture_trace() {
    ipm::Trace t("cli-test", 8);
    rng::Stream r(1);
    Bytes stride = 65 * MiB;
    for (RankId rank = 0; rank < 8; ++rank) {
      for (int i = 0; i < 6; ++i) {
        ipm::TraceEvent e;
        e.start = i * 10.0;
        e.duration = 2.0 * r.noise(0.2);
        e.op = OpType::kRead;
        e.rank = rank;
        e.file = 1;
        e.offset = rank * 600 * MiB + static_cast<Bytes>(i) * stride;
        e.bytes = 8 * MiB;
        e.phase = i;
        t.add(e);
      }
      for (int i = 0; i < 4; ++i) {
        ipm::TraceEvent e;
        e.start = 60.0 + i * 5.0;
        e.duration = 1.0 * r.noise(0.2);
        e.op = OpType::kWrite;
        e.rank = rank;
        e.file = 1;
        e.offset = (static_cast<Bytes>(i) * 8 + rank) * 16 * MiB;
        e.bytes = 16 * MiB;
        e.phase = 10 + i;
        t.add(e);
      }
    }
    return t;
  }

  void SetUp() override {
    path_ = test::temp_path("json_output_test.tsv");
    fixture_trace().save(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::tuple<int, std::string, std::string> run(std::vector<std::string> args) {
    std::ostringstream out, err;
    int rc = run_eiotrace(args, out, err);
    return {rc, out.str(), err.str()};
  }

  static std::string golden_path(const std::string& name) {
    return std::string(EIO_SOURCE_DIR "/tests/cli/golden/") + name;
  }

  /// Compare against the golden file; EIO_UPDATE_GOLDEN=1 regenerates.
  static void expect_golden(const std::string& name,
                            const std::string& actual) {
    const std::string path = golden_path(name);
    if (std::getenv("EIO_UPDATE_GOLDEN") != nullptr) {
      std::ofstream(path, std::ios::binary) << actual;
      return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with EIO_UPDATE_GOLDEN=1 to create)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(actual, want.str()) << "golden mismatch: " << name;
  }

  std::string path_;
};

TEST_F(JsonOutputTest, SummaryJsonMatchesGolden) {
  auto [rc, out, err] = run({"summary", path_, "--json"});
  ASSERT_EQ(rc, 0) << err;
  expect_golden("summary.json", out);
}

TEST_F(JsonOutputTest, AnalyzeJsonMatchesGolden) {
  auto [rc, out, err] =
      run({"analyze", path_, "--json", "--bins", "10", "--rate-bins", "8"});
  ASSERT_EQ(rc, 0) << err;
  expect_golden("analyze.json", out);
}

TEST_F(JsonOutputTest, AnalyzeMonitorJsonMatchesGolden) {
  auto [rc, out, err] = run({"analyze", path_, "--json", "--monitor",
                             "--bins", "10", "--rate-bins", "8"});
  ASSERT_EQ(rc, 0) << err;
  expect_golden("analyze_monitor.json", out);
}

TEST_F(JsonOutputTest, DiagnoseJsonMatchesGolden) {
  auto [rc, out, err] = run({"diagnose", path_, "--json"});
  ASSERT_EQ(rc, 0) << err;
  expect_golden("diagnose.json", out);
}

TEST_F(JsonOutputTest, MonitorJsonMatchesGolden) {
  auto [rc, out, err] = run({"monitor", path_, "--json"});
  ASSERT_EQ(rc, 0) << err;
  expect_golden("monitor.json", out);
}

// --- contract properties beyond the exact bytes --------------------

TEST_F(JsonOutputTest, JsonOutputsParseAndCarrySchemaVersion) {
  for (auto args : std::vector<std::vector<std::string>>{
           {"summary", path_, "--json"},
           {"analyze", path_, "--json"},
           {"diagnose", path_, "--json"},
           {"monitor", path_, "--json"}}) {
    auto [rc, out, err] = run(args);
    ASSERT_EQ(rc, 0) << err;
    json::Value doc = json::parse(out);
    ASSERT_TRUE(doc.is_object()) << args[0];
    EXPECT_EQ(doc.as_object().at("schema_version").as_number(), 1) << args[0];
    EXPECT_EQ(doc.as_object().at("command").as_string(), args[0]);
    // One document, one line: stdout is parseable JSON + "\n" only.
    EXPECT_EQ(out.back(), '\n') << args[0];
    EXPECT_EQ(out.find('\n'), out.size() - 1) << args[0];
  }
}

TEST_F(JsonOutputTest, JsonIsDeterministicAcrossInvocations) {
  auto [rc1, out1, err1] = run({"analyze", path_, "--json"});
  auto [rc2, out2, err2] = run({"analyze", path_, "--json"});
  ASSERT_EQ(rc1, 0);
  ASSERT_EQ(rc2, 0);
  EXPECT_EQ(out1, out2);
}

TEST_F(JsonOutputTest, CommandsOutsideTheContractRejectJson) {
  auto [rc, out, err] = run({"histogram", path_, "--json"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("unknown flag '--json'"), std::string::npos);
}

TEST_F(JsonOutputTest, AnalyzeJsonKeepsNoMatchExit) {
  auto [rc, out, err] =
      run({"analyze", path_, "--json", "--min-bytes", "999999999999"});
  EXPECT_EQ(rc, 2);
  EXPECT_EQ(out, "");
  EXPECT_NE(err.find("no events match"), std::string::npos);
}

// --- registry-driven usage covers the campaign commands ------------

TEST(CampaignRegistryTest, UsageListsCampaignCommands) {
  std::string usage = usage_text();
  EXPECT_NE(usage.find("campaign <manifest>"), std::string::npos);
  EXPECT_NE(usage.find("campaign-worker"), std::string::npos);
  std::string campaign = usage_for("campaign");
  EXPECT_NE(campaign.find("--workers=N"), std::string::npos);
  EXPECT_NE(campaign.find("--plan-only"), std::string::npos);
  EXPECT_NE(campaign.find("--inject-crash-run=N"), std::string::npos);
}

TEST(CampaignRegistryTest, JsonFlagListedExactlyOnTheContractCommands) {
  for (const char* cmd : {"summary", "analyze", "diagnose", "monitor"}) {
    EXPECT_NE(usage_for(cmd).find("--json"), std::string::npos) << cmd;
  }
  for (const char* cmd : {"histogram", "modes", "rates", "phases", "compare",
                          "convert", "report", "diagram", "patterns"}) {
    EXPECT_EQ(usage_for(cmd).find("--json"), std::string::npos) << cmd;
  }
}

TEST(CampaignRegistryTest, CampaignNeedsAManifest) {
  std::ostringstream out, err;
  int rc = run_eiotrace({"campaign"}, out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("manifest"), std::string::npos);
}

TEST(CampaignRegistryTest, CampaignWorkerNeedsPlansAndStore) {
  std::ostringstream out, err;
  int rc = run_eiotrace({"campaign-worker"}, out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("--plans"), std::string::npos);
}

}  // namespace
}  // namespace eio::cli
