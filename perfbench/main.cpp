// perfbench — the ensemble benchmark.
//
//   perfbench --workload <gcrm_sim|trace_analyze|campaign_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench compare <parent-results-dir> <change-results-dir>
//
// The binary is also its own campaign worker: the campaign dispatcher
// execs /proc/self/exe with argv[1] = "campaign-worker", which is
// routed straight into the CLI library, as the eiotrace binary does.
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/eiotrace.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload <gcrm_sim|trace_analyze|"
               "campaign_sweep> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench compare <parent-dir> <change-dir>\n";
  return 1;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "campaign-worker") == 0) {
    std::vector<std::string> args(argv + 1, argv + argc);
    return eio::cli::run_eiotrace(args, std::cout, std::cerr);
  }
  if (argc == 4 && std::strcmp(argv[1], "compare") == 0) {
    return run_compare(argv[2], argv[3]);
  }

  Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string flag = argv[i];
      std::string value = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        opt.trace = value == "1";
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || opt.seconds <= 0.0) return usage();

  void (*run)(const Options&, Checks&, Result&) = nullptr;
  if (opt.workload == "gcrm_sim") run = run_gcrm_sim;
  if (opt.workload == "trace_analyze") run = run_trace_analyze;
  if (opt.workload == "campaign_sweep") run = run_campaign_sweep;
  if (run == nullptr) return usage();

  // Scratch and artifacts live beside the binary, inside the build tree.
  const fs::path home = fs::canonical("/proc/self/exe").parent_path();
  ScratchDir scratch(home / ("run-" + std::to_string(getpid())));
  opt.work = scratch.path;
  opt.out = home / "traces";

  Checks checks;
  Result result;
  try {
    run(opt, checks, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 2;
  }
  return report(opt, checks, result);
}
