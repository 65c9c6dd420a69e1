// The benchmark's workloads and its comparison mode. Each workload
// builds its inputs from opt.seed, measures for opt.seconds, checks
// every output into `checks`, and fills `result` with the end-to-end
// metrics (opt.trace == false) or the per-layer metrics (true).
#pragma once

#include <string>

#include "harness.h"

namespace perfbench {

void run_gcrm_sim(const Options& opt, Checks& checks, Result& result);
void run_trace_analyze(const Options& opt, Checks& checks, Result& result);
void run_campaign_sweep(const Options& opt, Checks& checks, Result& result);

/// Compare two result sets (directories of <workload>.jsonl result
/// lines): medians, quartiles, ratio and verdict per workload and
/// metric, ranked by metric / baseline. Returns the exit code.
int run_compare(const fs::path& parent, const fs::path& change);

}  // namespace perfbench
