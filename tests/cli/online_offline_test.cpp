// The live monitor and the offline one run the same kernel over the
// same batches: for each fault scenario, the incident log `simulate
// --monitor` writes while the run executes must equal, byte for byte,
// the log `monitor` writes from the saved v3 trace at any --jobs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/eiotrace.h"
#include "support/temp_path.h"

namespace eio::cli {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(OnlineOfflineTest, LiveIncidentsEqualTheSavedTraceReplay) {
  for (const std::string name : {"slow_ost", "straggler", "transient_retries"}) {
    const std::string dir = test::temp_path("online_" + name);
    std::filesystem::create_directories(dir);
    const std::string live = dir + "/live.jsonl";
    std::ostringstream out, err;
    ASSERT_EQ(run_eiotrace({"simulate",
                            "--scenario=" + std::string(EIO_SOURCE_DIR) +
                                "/examples/scenarios/" + name + ".json",
                            "--runs=1", "--monitor", "--incidents=" + live,
                            "--save-dir=" + dir, "--format=v3"},
                           out, err),
              0)
        << name << ": " << err.str();
    const std::string online = read_file(live);
    EXPECT_FALSE(online.empty()) << name << " opened no incident";

    for (const char* jobs : {"--jobs=1", "--jobs=3"}) {
      const std::string replay = dir + "/replay" + (jobs + 7) + ".jsonl";
      std::ostringstream mout, merr;
      ASSERT_EQ(run_eiotrace({"monitor", dir + "/run0.v3", jobs,
                              "--incidents=" + replay},
                             mout, merr),
                0)
          << name << " " << jobs << ": " << merr.str();
      EXPECT_TRUE(read_file(replay) == online)
          << name << " " << jobs << ": offline incidents differ";
    }
  }
}

}  // namespace
}  // namespace eio::cli
