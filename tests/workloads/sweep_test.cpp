// Sweep expansion: the campaign's determinism starts here. The run
// list must be a pure function of manifest CONTENT — the same bytes
// for repeated expansions, for any file-discovery order, and for any
// worker count downstream — and malformed specs must fail with
// precise, located messages rather than expanding garbage.
#include "workloads/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/json_writer.h"
#include "support/temp_path.h"

namespace eio::workloads {
namespace {

namespace fs = std::filesystem;

std::string minimal_scenario(int tasks = 4) {
  return "{\"schema_version\":1,\"name\":\"mini\",\"machine\":\"franklin\","
         "\"runs\":1,\"workload\":{\"kind\":\"ior\",\"tasks\":" +
         std::to_string(tasks) + ",\"block_mib\":4,\"segments\":1}}";
}

json::Value sweep_doc(const std::string& axes,
                      const std::string& mode = "\"grid\"",
                      const std::string& extra = "") {
  std::string text = "{\"schema_version\":1,\"name\":\"sw\",\"base\":" +
                     minimal_scenario() + ",\"sweep\":{\"mode\":" + mode +
                     extra + ",\"axes\":" + axes + "}}";
  return json::parse(text);
}

class SweepDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::temp_dir();
  }

  std::string write(const std::string& name, const std::string& content) {
    std::string path = (dir_ / name).string();
    std::ofstream(path) << content;
    return path;
  }

  fs::path dir_;
};

TEST(SweepTest, GridExpandsSortedAxesLastFastest) {
  auto doc = sweep_doc(
      "{\"seed\":[1,2],\"workload.tasks\":[8,16],\"runs\":[1]}");
  auto plans = expand_document(doc, "sw", "");
  ASSERT_EQ(plans.size(), 4u);
  // Sorted axis order: runs, seed, workload.tasks — tasks varies
  // fastest, then seed.
  EXPECT_EQ(plans[0].label, "runs=1 seed=1 workload.tasks=8");
  EXPECT_EQ(plans[1].label, "runs=1 seed=1 workload.tasks=16");
  EXPECT_EQ(plans[2].label, "runs=1 seed=2 workload.tasks=8");
  EXPECT_EQ(plans[3].label, "runs=1 seed=2 workload.tasks=16");
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].index, i);
    EXPECT_EQ(plans[i].source, "sw");
  }
  // The patch landed in the scenario document.
  EXPECT_EQ(plans[1].scenario.as_object().at("workload")
                .as_object().at("tasks").as_number(), 16);
  EXPECT_EQ(plans[2].scenario.as_object().at("seed").as_number(), 2);
}

TEST(SweepTest, RepeatedExpansionIsByteIdentical) {
  auto doc = sweep_doc("{\"seed\":[3,1,2],\"runs\":[2,1]}");
  auto a = expand_document(doc, "sw", "");
  auto b = expand_document(doc, "sw", "");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(plan_to_jsonl(a[i]), plan_to_jsonl(b[i]));
  }
}

TEST(SweepTest, GridPreservesAxisValueOrderWithinAnAxis) {
  // Axis NAMES sort; axis VALUES apply in the order written (the axis
  // list is the experimenter's chosen ordering, not a set).
  auto doc = sweep_doc("{\"seed\":[5,3,9]}");
  auto plans = expand_document(doc, "sw", "");
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_EQ(plans[0].label, "seed=5");
  EXPECT_EQ(plans[1].label, "seed=3");
  EXPECT_EQ(plans[2].label, "seed=9");
}

TEST(SweepTest, RandomModeIsDeterministicForFixedSeed) {
  const char* axes = "{\"seed\":[1,2,3,4],\"workload.tasks\":[8,16,32]}";
  auto doc = sweep_doc(axes, "\"random\"", ",\"samples\":16,\"seed\":7");
  auto a = expand_document(doc, "sw", "");
  auto b = expand_document(doc, "sw", "");
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(b.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(plan_to_jsonl(a[i]), plan_to_jsonl(b[i]));
  }
  // A different seed draws a different sequence (overwhelmingly).
  auto doc2 = sweep_doc(axes, "\"random\"", ",\"samples\":16,\"seed\":8");
  auto c = expand_document(doc2, "sw", "");
  bool any_differ = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i].label != a[i].label) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(SweepTest, NullAxisValueDeletesTheKey) {
  auto doc = sweep_doc("{\"faults\":[null]}");
  auto plans = expand_document(doc, "sw", "");
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_FALSE(plans[0].scenario.as_object().count("faults"));
  EXPECT_EQ(plans[0].label, "faults=null");
}

TEST(SweepTest, PlainScenarioDocumentIsOneRun) {
  auto doc = json::parse(minimal_scenario());
  auto plans = expand_document(doc, "mini", "");
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].label, "");
  EXPECT_EQ(plans[0].source, "mini");
}

TEST(SweepTest, JsonlRoundTrip) {
  auto doc = sweep_doc("{\"seed\":[1,2]}");
  auto plans = expand_document(doc, "sw", "");
  for (const RunPlan& p : plans) {
    std::string line = plan_to_jsonl(p);
    RunPlan back = plan_from_jsonl(line);
    EXPECT_EQ(back.index, p.index);
    EXPECT_EQ(back.source, p.source);
    EXPECT_EQ(back.label, p.label);
    EXPECT_EQ(plan_to_jsonl(back), line);
  }
}

// --- malformed specs: each failure names the problem precisely -----

void expect_throw_containing(const json::Value& doc, const std::string& what) {
  try {
    auto plans = expand_document(doc, "sw", "");
    FAIL() << "expected throw mentioning '" << what << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "actual: " << e.what();
  }
}

TEST(SweepTest, AxisValueListMustBeAnArray) {
  expect_throw_containing(sweep_doc("{\"seed\":3}"), "seed");
}

TEST(SweepTest, AxisValueListMustNotBeEmpty) {
  expect_throw_containing(sweep_doc("{\"seed\":[]}"), "seed");
}

TEST(SweepTest, AxisPathThroughNonObjectIsRejected) {
  expect_throw_containing(sweep_doc("{\"runs.deep\":[1]}"), "runs.deep");
}

TEST(SweepTest, UnknownSweepKeyIsRejected) {
  auto doc = json::parse(
      "{\"schema_version\":1,\"base\":" + minimal_scenario() +
      ",\"sweep\":{\"mode\":\"grid\",\"axes\":{\"seed\":[1]},"
      "\"typo_key\":true}}");
  expect_throw_containing(doc, "typo_key");
}

TEST(SweepTest, GridRejectsRandomOnlyKeys) {
  expect_throw_containing(sweep_doc("{\"seed\":[1]}", "\"grid\"",
                                    ",\"samples\":4"),
                          "samples");
}

TEST(SweepTest, RandomRequiresPositiveSamples) {
  expect_throw_containing(sweep_doc("{\"seed\":[1]}", "\"random\""),
                          "samples");
  expect_throw_containing(
      sweep_doc("{\"seed\":[1]}", "\"random\"", ",\"samples\":0"), "samples");
}

TEST(SweepTest, UnknownModeIsRejected) {
  expect_throw_containing(sweep_doc("{\"seed\":[1]}", "\"fancy\""), "fancy");
}

TEST(SweepTest, InvalidPatchedScenarioNamesTheRunLabel) {
  // kind="bogus" passes expansion mechanics but fails scenario
  // validation; the error must carry the run's label so the bad grid
  // point is findable without bisecting the sweep.
  expect_throw_containing(
      sweep_doc("{\"workload.kind\":[\"ior\",\"bogus\"]}"),
      "workload.kind=\"bogus\"");
}

TEST(SweepTest, ZeroRunsGridPointIsRejectedWithItsLabel) {
  expect_throw_containing(sweep_doc("{\"runs\":[1,0]}"), "runs=0");
}

TEST_F(SweepDirTest, FileOrderDoesNotAffectTheRunList) {
  std::string a = write("b_second.json", minimal_scenario(8));
  std::string b = write("a_first.json", minimal_scenario(16));
  auto forward = expand_files({a, b});
  auto backward = expand_files({b, a});
  ASSERT_EQ(forward.size(), 2u);
  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(plan_to_jsonl(forward[i]), plan_to_jsonl(backward[i]));
  }
  // Sorted by stem: a_first before b_second.
  EXPECT_EQ(forward[0].source, "a_first");
  EXPECT_EQ(forward[1].source, "b_second");
}

TEST_F(SweepDirTest, DirectoryManifestExpandsEveryJsonSorted) {
  write("z.json", minimal_scenario());
  write("a.json", minimal_scenario());
  write("ignored.txt", "not json");
  auto plans = expand_manifest(dir_.string());
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].source, "a");
  EXPECT_EQ(plans[1].source, "z");
  EXPECT_EQ(plans[0].index, 0u);
  EXPECT_EQ(plans[1].index, 1u);
}

TEST_F(SweepDirTest, SweepSpecResolvesBaseRelativeToSpecFile) {
  write("base.json", minimal_scenario());
  std::string spec = write(
      "spec.json",
      "{\"schema_version\":1,\"base\":\"base.json\","
      "\"sweep\":{\"mode\":\"grid\",\"axes\":{\"seed\":[1,2]}}}");
  auto plans = expand_manifest(spec);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].source, "spec");
}

TEST_F(SweepDirTest, ManifestErrorNamesTheFile) {
  std::string bad = write("bad.json", "{\"schema_version\":1,\"base\":" +
                                          minimal_scenario() +
                                          ",\"sweep\":{\"mode\":\"grid\","
                                          "\"axes\":{\"seed\":[]}}}");
  try {
    auto plans = expand_manifest(bad);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad"), std::string::npos)
        << "actual: " << e.what();
  }
}

}  // namespace
}  // namespace eio::workloads
