// Campaign service tests: store-merge rules as unit tests, the worker
// protocol in-process, and the full fork/exec pipeline end-to-end —
// byte-identical consolidated output for any --workers value, and
// crash/hang injections surviving via retry.
//
// This binary is its own campaign worker: main() (bottom of file)
// routes argv[1] == "campaign-worker" into the CLI library before
// gtest ever initializes, exactly like the installed eiotrace binary.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/store.h"
#include "campaign/worker.h"
#include "cli/eiotrace.h"
#include "support/temp_path.h"
#include "workloads/sweep.h"

namespace eio::campaign {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::temp_dir();
  }

  std::string write(const std::string& name, const std::string& content) {
    std::string path = (dir_ / name).string();
    std::ofstream(path, std::ios::binary) << content;
    return path;
  }

  /// A small grid manifest: `points` runs over a tiny inline IOR base.
  std::string write_manifest(int seeds) {
    std::ostringstream m;
    m << "{\"schema_version\":1,\"name\":\"t\",\"base\":"
      << "{\"schema_version\":1,\"name\":\"tiny\",\"machine\":\"franklin\","
      << "\"runs\":1,\"workload\":{\"kind\":\"ior\",\"tasks\":4,"
      << "\"block_mib\":4,\"segments\":1}},"
      << "\"sweep\":{\"mode\":\"grid\",\"axes\":{\"seed\":[";
    for (int s = 1; s <= seeds; ++s) m << (s > 1 ? "," : "") << s;
    m << "],\"runs\":[1,2]}}}";
    return write("sweep.json", m.str());
  }

  int campaign(const std::string& manifest, const std::string& out_dir,
               CampaignOptions opt = {}) {
    opt.manifest = manifest;
    opt.out_dir = (dir_ / out_dir).string();
    std::ostringstream log;
    int rc = run_campaign(opt, log, log);
    last_log_ = log.str();
    return rc;
  }

  std::string artifact(const std::string& out_dir, const std::string& name) {
    return slurp((dir_ / out_dir / name).string());
  }

  fs::path dir_;
  std::string last_log_;
};

// --- store merge rules (pure unit tests) ---------------------------

TEST_F(CampaignTest, MergeOrdersByRunIndexAcrossFiles) {
  std::string a = write("a.jsonl", "{\"run\":2,\"x\":1}\n{\"run\":0,\"x\":2}\n");
  std::string b = write("b.jsonl", "{\"run\":1,\"x\":3}\n");
  MergeStats stats;
  auto records = merge_store_files({a, b}, &stats);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(stats.complete_lines, 3u);
  EXPECT_EQ(stats.discarded, 0u);
  std::ostringstream out;
  write_merged(out, records);
  EXPECT_EQ(out.str(),
            "{\"run\":0,\"x\":2}\n{\"run\":1,\"x\":3}\n{\"run\":2,\"x\":1}\n");
}

TEST_F(CampaignTest, MergeKeepsSmallestDuplicateLine) {
  // A crash-then-retry can leave the same run in two stores; the merge
  // must pick one deterministically regardless of file order.
  std::string a = write("a.jsonl", "{\"run\":0,\"x\":\"bbb\"}\n");
  std::string b = write("b.jsonl", "{\"run\":0,\"x\":\"aaa\"}\n");
  MergeStats fwd_stats, rev_stats;
  auto fwd = merge_store_files({a, b}, &fwd_stats);
  auto rev = merge_store_files({b, a}, &rev_stats);
  ASSERT_EQ(fwd.size(), 1u);
  EXPECT_EQ(fwd.at(0), "{\"run\":0,\"x\":\"aaa\"}");
  EXPECT_EQ(rev.at(0), "{\"run\":0,\"x\":\"aaa\"}");
  EXPECT_EQ(fwd_stats.duplicates, 1u);
  EXPECT_EQ(rev_stats.duplicates, 1u);
}

TEST_F(CampaignTest, MergeDiscardsTornAndGarbageLines) {
  std::string a = write("a.jsonl",
                        "{\"run\":0,\"x\":1}\n"
                        "not json at all\n"
                        "{\"x\":\"no run key\"}\n"
                        "{\"run\":1,\"torn\":");  // no newline: torn tail
  MergeStats stats;
  auto records = merge_store_files({a}, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.at(0), "{\"run\":0,\"x\":1}");
  // Two complete-but-invalid lines plus the torn tail.
  EXPECT_EQ(stats.discarded, 3u);
}

TEST_F(CampaignTest, MergeSkipsMissingFiles) {
  std::string a = write("a.jsonl", "{\"run\":0}\n");
  auto records = merge_store_files({a, (dir_ / "absent.jsonl").string()});
  EXPECT_EQ(records.size(), 1u);
}

// --- the worker protocol, in-process -------------------------------

TEST_F(CampaignTest, WorkerExecutesRunsAndAcksAfterDurableAppend) {
  std::string manifest = write_manifest(1);  // 2 runs
  auto plans = workloads::expand_manifest(manifest);
  std::ostringstream plans_text;
  for (const auto& p : plans) plans_text << workloads::plan_to_jsonl(p) << "\n";
  std::string plans_path = write("runs.jsonl", plans_text.str());
  std::string store_path = (dir_ / "store.jsonl").string();

  std::istringstream in("run 0\nrun 1\nexit\n");
  std::ostringstream out, err;
  int rc = run_worker({plans_path, store_path, 1}, in, out, err);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out.str(), "ok 0\nok 1\n");
  auto records = merge_store_files({store_path});
  EXPECT_EQ(records.size(), 2u);
}

TEST_F(CampaignTest, WorkerRepliesFailForUnknownRunIndex) {
  std::string manifest = write_manifest(1);
  auto plans = workloads::expand_manifest(manifest);
  std::ostringstream plans_text;
  for (const auto& p : plans) plans_text << workloads::plan_to_jsonl(p) << "\n";
  std::string plans_path = write("runs.jsonl", plans_text.str());

  std::istringstream in("run 99\nexit\n");
  std::ostringstream out, err;
  int rc = run_worker({plans_path, (dir_ / "s.jsonl").string(), 1}, in, out,
                      err);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out.str().rfind("fail 99 ", 0), 0u) << out.str();
}

TEST_F(CampaignTest, WorkerFailsSetupOnMissingPlans) {
  std::istringstream in("exit\n");
  std::ostringstream out, err;
  int rc = run_worker({(dir_ / "absent.jsonl").string(),
                       (dir_ / "s.jsonl").string(), 1},
                      in, out, err);
  EXPECT_EQ(rc, 1);
}

// --- end-to-end: fork/exec sharding --------------------------------

TEST_F(CampaignTest, ConsolidatedOutputByteIdenticalForAnyWorkerCount) {
  std::string manifest = write_manifest(4);  // 8 runs
  for (std::size_t workers : {1u, 2u, 4u}) {
    CampaignOptions opt;
    opt.workers = workers;
    std::string out_dir = "w";
    out_dir += std::to_string(workers);
    ASSERT_EQ(campaign(manifest, out_dir, opt), 0) << last_log_;
  }
  std::string runs1 = artifact("w1", "runs.jsonl");
  std::string store1 = artifact("w1", "campaign.jsonl");
  std::string report1 = artifact("w1", "report.json");
  ASSERT_FALSE(store1.empty());
  for (const char* w : {"w2", "w4"}) {
    EXPECT_EQ(artifact(w, "runs.jsonl"), runs1) << w;
    EXPECT_EQ(artifact(w, "campaign.jsonl"), store1) << w;
    EXPECT_EQ(artifact(w, "report.json"), report1) << w;
  }
}

TEST_F(CampaignTest, InjectedCrashIsRetriedAndOutputUnchanged) {
  std::string manifest = write_manifest(2);  // 4 runs
  CampaignOptions base;
  base.workers = 2;
  ASSERT_EQ(campaign(manifest, "clean", base), 0) << last_log_;

  CampaignOptions crash;
  crash.workers = 2;
  crash.inject_crash_run = 1;
  ASSERT_EQ(campaign(manifest, "crashed", crash), 0) << last_log_;
  EXPECT_EQ(artifact("crashed", "campaign.jsonl"),
            artifact("clean", "campaign.jsonl"));
  EXPECT_EQ(artifact("crashed", "report.json"),
            artifact("clean", "report.json"));
  // The crash forced a respawn: more store files than the base fleet.
  std::size_t stores = 0;
  for (const auto& e : fs::directory_iterator(dir_ / "crashed")) {
    if (e.path().filename().string().rfind("worker-", 0) == 0) ++stores;
  }
  EXPECT_GT(stores, 2u);
}

TEST_F(CampaignTest, InjectedHangIsKilledByTimeoutAndRetried) {
  std::string manifest = write_manifest(2);  // 4 runs
  CampaignOptions base;
  base.workers = 2;
  ASSERT_EQ(campaign(manifest, "clean", base), 0) << last_log_;

  CampaignOptions hang;
  hang.workers = 2;
  hang.inject_hang_run = 2;
  hang.run_timeout = 5.0;  // generous: tiny runs finish in milliseconds
  ASSERT_EQ(campaign(manifest, "hung", hang), 0) << last_log_;
  EXPECT_EQ(artifact("hung", "campaign.jsonl"),
            artifact("clean", "campaign.jsonl"));
  EXPECT_NE(last_log_.find("timeout"), std::string::npos) << last_log_;
}

TEST_F(CampaignTest, PlanOnlyWritesRunListAndStops) {
  std::string manifest = write_manifest(2);
  CampaignOptions opt;
  opt.plan_only = true;
  ASSERT_EQ(campaign(manifest, "plan", opt), 0) << last_log_;
  EXPECT_FALSE(artifact("plan", "runs.jsonl").empty());
  EXPECT_FALSE(fs::exists(dir_ / "plan" / "campaign.jsonl"));
}

TEST_F(CampaignTest, BadManifestFailsUpFront) {
  std::string bad = write("bad.json", "{\"schema_version\":1,\"sweep\":{}}");
  CampaignOptions opt;
  EXPECT_EQ(campaign(bad, "bad-out", opt), 1);
}

TEST_F(CampaignTest, RecordsArePureFunctionsOfThePlan) {
  // Two fresh campaigns over the same manifest: identical bytes, even
  // though workers, PIDs, and wall-clock all differ.
  std::string manifest = write_manifest(1);
  CampaignOptions opt;
  opt.workers = 2;
  ASSERT_EQ(campaign(manifest, "r1", opt), 0) << last_log_;
  ASSERT_EQ(campaign(manifest, "r2", opt), 0) << last_log_;
  EXPECT_EQ(artifact("r1", "campaign.jsonl"), artifact("r2", "campaign.jsonl"));
}

}  // namespace
}  // namespace eio::campaign

/// Worker-mode shim + gtest main. The dispatcher execs this binary
/// with argv[1] = "campaign-worker"; everything else is a normal test
/// run.
int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "campaign-worker") {
    std::vector<std::string> args(argv + 1, argv + argc);
    return eio::cli::run_eiotrace(args, std::cout, std::cerr);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
