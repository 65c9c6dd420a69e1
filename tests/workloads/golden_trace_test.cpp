// Golden-trace byte-identity guard for the simulator hot path.
//
// Each case runs a seed scenario (IOR, MADbench, GCRM, and two faulted
// variants) for two ensemble runs and hashes the exact TSV bytes of
// every trace. The expected values were recorded from the
// pre-slab-calendar engine (std::function actions + unordered_map live
// table + hash-map flow store) *after* its recompute iteration order
// was pinned to the canonical (creation-order / ascending-node) order
// — so any refactor of the calendar or the fluid network that changes
// a single event time, an RNG draw sequence, a FIFO tie-break, or a
// settle point shows up here as a hash mismatch.
//
// If one of these values ever changes, that is a *semantic* change to
// the simulator, not a refactor; it must be intentional, explained,
// and re-recorded in the same commit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "workloads/scenario.h"

namespace eio::workloads {
namespace {

/// FNV-1a 64-bit over the serialized TSV trace. Not adversarial —
/// just a compact fingerprint for regression equality.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_hash(const ipm::Trace& trace) {
  std::ostringstream os;
  trace.write(os);
  return fnv1a(os.str());
}

std::string scenario_path(const char* name) {
  return std::string(EIO_SOURCE_DIR "/examples/scenarios/") + name;
}

struct GoldenCase {
  const char* label;
  const char* scenario;     ///< examples/scenarios file, or nullptr
  std::uint64_t run0_hash;
  std::uint64_t run1_hash;
};

// GoldenCase has no gtest printer, so gtest prints each parameter as
// its raw bytes and gtest_discover_tests folds that dump into the
// case's ctest name, led by the low byte of `label`'s address. The
// labels therefore live at fixed offsets in one 256-byte-aligned pool:
// those leading bytes, and with them the registered test names, stay
// put when an unrelated change moves the rest of .rodata. The offsets
// reproduce the names the cases were first registered under.
struct LabelPool {
  char bytes[256] = {};
  constexpr void put(std::size_t at, std::string_view label) {
    for (char c : label) bytes[at++] = c;
  }
};

constexpr std::size_t kIorAt = 0x3e;
constexpr std::size_t kMadbenchAt = 0x50;
constexpr std::size_t kSlowOstAt = 0x60;
constexpr std::size_t kStragglerAt = 0x80;
constexpr std::size_t kGcrmAt = 0xb0;

constexpr LabelPool make_label_pool() {
  LabelPool pool;
  pool.put(kIorAt, "ior");
  pool.put(kMadbenchAt, "madbench");
  pool.put(kSlowOstAt, "slow_ost_faulted");
  pool.put(kStragglerAt, "straggler_faulted");
  pool.put(kGcrmAt, "gcrm");
  return pool;
}

alignas(256) constexpr LabelPool kLabels = make_label_pool();

// Recorded from the canonical-order pre-refactor engine; see file
// comment. Regenerate by running with --gtest_also_run_disabled_tests
// and copying the printed values (PrintActualHashes below).
constexpr GoldenCase kCases[] = {
    {kLabels.bytes + kIorAt, "fig1_ior_modes.json", 0x5f7b1f20dd30972bULL, 0x3ace713fa9f419d1ULL},
    {kLabels.bytes + kMadbenchAt, "fig4_madbench_franklin.json", 0xdf2c3577c3095828ULL, 0x9e22cc99743572c1ULL},
    {kLabels.bytes + kSlowOstAt, "slow_ost.json", 0xa15a46220e9f7edeULL, 0xaba2b076da3362c4ULL},
    {kLabels.bytes + kStragglerAt, "straggler.json", 0x7b0159b512da500eULL, 0x7ff378bfee1b4846ULL},
    {kLabels.bytes + kGcrmAt, nullptr, 0xd8b4743706bd18b3ULL, 0xdaf598a71b50f6d6ULL},
};

/// GCRM at the integration-test scale (the full fig6 scenario takes a
/// minute per run); still drives collective buffering, H5 metadata,
/// and the MDS serial server through the same hot paths.
JobSpec gcrm_job() {
  GcrmConfig cfg;
  cfg.tasks = 1280;
  cfg.io_tasks = 20;
  return ScenarioBuilder().machine("franklin").gcrm(cfg).job();
}

JobSpec job_for(const GoldenCase& c) {
  if (c.scenario == nullptr) return gcrm_job();
  ScenarioBuilder scenario = load_scenario(scenario_path(c.scenario));
  return scenario.job();
}

class GoldenTraceTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTraceTest, TraceBytesMatchPreRefactorEngine) {
  const GoldenCase& c = GetParam();
  JobSpec job = job_for(c);
  job.capture = ipm::Mode::kBoth;
  auto runs = run_ensemble(job, 2, /*jobs=*/1);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(trace_hash(runs[0].trace), c.run0_hash) << c.label << " run 0";
  EXPECT_EQ(trace_hash(runs[1].trace), c.run1_hash) << c.label << " run 1";
}

INSTANTIATE_TEST_SUITE_P(SeedScenarios, GoldenTraceTest,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

/// Regeneration helper: prints the current hashes in kCases format.
TEST(GoldenTraceTest, DISABLED_PrintActualHashes) {
  for (const GoldenCase& c : kCases) {
    JobSpec job = job_for(c);
    job.capture = ipm::Mode::kBoth;
    auto runs = run_ensemble(job, 2, /*jobs=*/1);
    std::printf("    {\"%s\", %s%s%s, 0x%llxULL, 0x%llxULL},\n", c.label,
                c.scenario ? "\"" : "", c.scenario ? c.scenario : "nullptr",
                c.scenario ? "\"" : "",
                static_cast<unsigned long long>(trace_hash(runs[0].trace)),
                static_cast<unsigned long long>(trace_hash(runs[1].trace)));
  }
}

}  // namespace
}  // namespace eio::workloads
