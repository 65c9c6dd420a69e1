// Scenario API tests: JSON validation, the checked-in example files,
// and the determinism contract — a scenario runs byte-identically to
// the equivalent fluent-API job, for any worker count, faults and all.
#include "workloads/scenario.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "workloads/ensemble.h"

namespace eio::workloads {
namespace {

std::string serialized(const ipm::Trace& trace) {
  std::ostringstream os;
  trace.write(os);
  return os.str();
}

TEST(ScenarioJsonTest, MinimalScenarioParses) {
  auto b = scenario_from_json(json::parse(
      R"({"schema_version": 1, "workload": {"kind": "ior"}})"));
  EXPECT_EQ(b.kind(), WorkloadKind::kIor);
  EXPECT_EQ(b.machine_config().name, "franklin");
  EXPECT_EQ(b.run_count(), 1u);
  EXPECT_FALSE(b.fault_plan().enabled());
}

TEST(ScenarioJsonTest, FullScenarioParses) {
  auto b = scenario_from_json(json::parse(R"({
    "schema_version": 1,
    "name": "my-exp",
    "machine": "jaguar",
    "seed": 42,
    "runs": 8,
    "background": {"intensity": 0.3},
    "workload": {"kind": "madbench", "tasks": 64, "matrices": 4},
    "faults": {"stragglers": {"count": 1, "slowdown": 3.0}}
  })"));
  EXPECT_EQ(b.scenario_name(), "my-exp");
  EXPECT_EQ(b.kind(), WorkloadKind::kMadbench);
  EXPECT_EQ(b.machine_config().name, "jaguar");
  EXPECT_EQ(b.machine_config().seed, 42u);
  EXPECT_EQ(b.run_count(), 8u);
  EXPECT_TRUE(b.machine_config().background.enabled);
  EXPECT_DOUBLE_EQ(b.machine_config().background.intensity, 0.3);
  EXPECT_EQ(b.madbench_config().tasks, 64u);
  EXPECT_EQ(b.madbench_config().matrices, 4u);
  EXPECT_TRUE(b.fault_plan().enabled());
  EXPECT_EQ(b.job().faults.stragglers.count, 1u);
}

TEST(ScenarioJsonTest, RejectsFewerThanOneRun) {
  for (const char* runs : {"0", "-1", "0.5"}) {
    try {
      (void)scenario_from_json(json::parse(
          std::string(R"({"schema_version": 1, "runs": )") + runs +
          R"(, "workload": {"kind": "ior"}})"));
      FAIL() << "runs " << runs << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("runs must be at least 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioJsonTest, RejectsFaultTargetsOutsideTheJob) {
  struct Case {
    const char* faults;
    const char* message;
  };
  for (const Case& c :
       {Case{R"({"slow_osts": [{"ost": 99}]})",
             "faults.slow_osts[0].ost = 99 is out of range (allowed: 0 <= ost < 48 on franklin)"},
        Case{R"({"slow_osts": [{"ost": 3}, {"ost": -1}]})",
             "faults.slow_osts[1].ost = -1 is out of range"},
        Case{R"({"stragglers": {"ranks": [2, 100]}})",
             "faults.stragglers.ranks[1] = 100 is out of range (allowed: 0 <= rank < 8, "
             "the workload's tasks)"},
        Case{R"({"stragglers": {"ranks": [8]}})",
             "faults.stragglers.ranks[0] = 8 is out of range"}}) {
    try {
      (void)scenario_from_json(json::parse(
          std::string(R"({"schema_version": 1, "machine": "franklin",
                          "workload": {"kind": "ior", "tasks": 8}, "faults": )") +
          c.faults + "}"));
      FAIL() << c.faults << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
  // The last OST and the last rank are in range; a straggler count
  // above the task count stays the injector's to clamp.
  auto b = scenario_from_json(json::parse(R"({"schema_version": 1,
      "workload": {"kind": "gcrm", "tasks": 64},
      "faults": {"slow_osts": [{"ost": 47}],
                 "stragglers": {"ranks": [0, 63], "count": 500}}})"));
  EXPECT_EQ(b.fault_plan().slow_osts[0].ost, 47u);
  EXPECT_EQ(b.fault_plan().stragglers.ranks.back(), 63u);
  // The OST bound follows the machine: jaguar has 144 OSTs.
  EXPECT_NO_THROW((void)scenario_from_json(json::parse(R"({"schema_version": 1,
      "machine": "jaguar", "workload": {"kind": "madbench", "tasks": 16},
      "faults": {"slow_osts": [{"ost": 143}]}})")));
}

TEST(ScenarioJsonTest, RejectsUnknownTopLevelKey) {
  EXPECT_THROW(scenario_from_json(json::parse(
                   R"({"schema_version": 1, "wrkload": {"kind": "ior"}})")),
               std::runtime_error);
}

TEST(ScenarioJsonTest, RejectsUnknownWorkloadKey) {
  EXPECT_THROW(
      scenario_from_json(json::parse(
          R"({"schema_version": 1, "workload": {"kind": "ior", "task": 4}})")),
      std::runtime_error);
}

TEST(ScenarioJsonTest, RejectsWrongSchemaVersion) {
  EXPECT_THROW(scenario_from_json(json::parse(
                   R"({"schema_version": 2, "workload": {"kind": "ior"}})")),
               std::runtime_error);
}

TEST(ScenarioJsonTest, RejectsMissingSchemaVersion) {
  EXPECT_THROW(scenario_from_json(json::parse(R"({"workload": {"kind": "ior"}})")),
               std::runtime_error);
}

TEST(ScenarioJsonTest, RejectsUnknownMachineAndKindAndPreset) {
  EXPECT_THROW(scenario_from_json(json::parse(
                   R"({"schema_version": 1, "machine": "bluegene",
                       "workload": {"kind": "ior"}})")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_json(json::parse(
                   R"({"schema_version": 1, "workload": {"kind": "vpic"}})")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_json(json::parse(
                   R"({"schema_version": 1,
                       "workload": {"kind": "gcrm", "preset": "turbo"}})")),
               std::runtime_error);
}

TEST(ScenarioJsonTest, MachinePresetNamesMatchTheBuilders) {
  EXPECT_EQ(machine_preset("franklin").name, "franklin");
  EXPECT_EQ(machine_preset("franklin-patched").name, "franklin-patched");
  EXPECT_EQ(machine_preset("jaguar").name, "jaguar");
  EXPECT_THROW(machine_preset("bluegene"), std::invalid_argument);
}

TEST(ScenarioFilesTest, EveryCheckedInScenarioLoads) {
  const char* files[] = {
      "fig1_ior_modes.json",      "fig2_lln_k8.json",
      "fig4_madbench_franklin.json", "fig4_madbench_jaguar.json",
      "fig5_madbench_patched.json",  "fig6_gcrm_baseline.json",
      "fig6_gcrm_collective.json",   "fig6_gcrm_aligned.json",
      "fig6_gcrm_optimized.json",    "ensemble_stability.json",
      "slow_ost.json",               "straggler.json",
      "interference.json",           "transient_retries.json",
  };
  for (const char* name : files) {
    SCOPED_TRACE(name);
    std::string path =
        std::string(EIO_SOURCE_DIR) + "/examples/scenarios/" + name;
    ScenarioBuilder b = load_scenario(path);
    EXPECT_FALSE(b.scenario_name().empty());
    // Every scenario must assemble into a runnable job.
    JobSpec spec = b.job();
    EXPECT_FALSE(spec.name.empty());
  }
}

TEST(ScenarioFilesTest, SlowOstScenarioNamesAFaultedOst) {
  ScenarioBuilder b = load_scenario(std::string(EIO_SOURCE_DIR) +
                                    "/examples/scenarios/slow_ost.json");
  ASSERT_EQ(b.fault_plan().slow_osts.size(), 1u);
  EXPECT_EQ(b.fault_plan().slow_osts[0].ost, 5u);
  EXPECT_LT(b.fault_plan().slow_osts[0].factor, 1.0);
  EXPECT_TRUE(b.ior_config().file_per_process);
}

TEST(ScenarioDeterminismTest, JsonAndFluentJobsRunByteIdentically) {
  auto from_json = scenario_from_json(json::parse(R"({
    "schema_version": 1,
    "machine": "franklin",
    "workload": {"kind": "ior", "tasks": 8, "block_mib": 4, "segments": 2}
  })"));

  IorConfig cfg;
  cfg.tasks = 8;
  cfg.block_size = 4 * MiB;
  cfg.segments = 2;
  ScenarioBuilder fluent;
  fluent.machine("franklin").ior(cfg);

  RunResult a = run_job(from_json.job());
  RunResult b = run_job(fluent.job());
  EXPECT_EQ(serialized(a.trace), serialized(b.trace));
}

TEST(ScenarioDeterminismTest, FaultedEnsembleIsByteIdenticalAcrossJobs) {
  auto b = scenario_from_json(json::parse(R"({
    "schema_version": 1,
    "name": "determinism",
    "machine": "franklin",
    "runs": 3,
    "workload": {"kind": "ior", "tasks": 8, "block_mib": 4, "segments": 2,
                 "file_per_process": true},
    "faults": {
      "slow_osts": [{"ost": 2, "factor": 0.25}],
      "jitter": {"probability": 0.2, "mean_stall": 0.01},
      "transient": {"probability": 0.1},
      "stragglers": {"count": 1, "slowdown": 3.0}
    }
  })"));
  JobSpec spec = b.job();

  std::vector<std::vector<std::string>> traces;
  std::vector<std::vector<fault::Counts>> counts;
  for (std::size_t jobs : {1u, 2u, 4u}) {
    ParallelEnsembleRunner runner({.jobs = jobs});
    auto results = runner.run_ensemble(spec, b.run_count());
    ASSERT_EQ(results.size(), 3u);
    std::vector<std::string> t;
    std::vector<fault::Counts> c;
    for (const auto& r : results) {
      t.push_back(serialized(r.trace));
      c.push_back(r.fault_counts);
      EXPECT_GT(r.fault_counts.total_injections(), 0u);
    }
    traces.push_back(std::move(t));
    counts.push_back(std::move(c));
  }
  for (std::size_t j = 1; j < traces.size(); ++j) {
    for (std::size_t r = 0; r < traces[0].size(); ++r) {
      EXPECT_EQ(traces[0][r], traces[j][r]) << "run " << r << " differs";
      EXPECT_EQ(counts[0][r].total_injections(),
                counts[j][r].total_injections());
      EXPECT_DOUBLE_EQ(counts[0][r].stall_seconds, counts[j][r].stall_seconds);
      EXPECT_DOUBLE_EQ(counts[0][r].retry_seconds, counts[j][r].retry_seconds);
      EXPECT_DOUBLE_EQ(counts[0][r].straggler_seconds,
                       counts[j][r].straggler_seconds);
    }
  }
  // Different runs of the ensemble are genuinely different runs.
  EXPECT_NE(traces[0][0], traces[0][1]);
}

TEST(ScenarioDeterminismTest, EmptyFaultPlanMatchesNoFaultPlanByteForByte) {
  // The zero-draw contract: attaching an empty plan must not shift any
  // RNG stream — the trace is identical to a run with no plan at all.
  IorConfig cfg;
  cfg.tasks = 8;
  cfg.block_size = 4 * MiB;
  cfg.segments = 2;
  ScenarioBuilder plain;
  plain.machine("franklin").ior(cfg);
  ScenarioBuilder with_empty = plain;
  with_empty.faults(fault::Plan{});

  RunResult a = run_job(plain.job());
  RunResult b = run_job(with_empty.job());
  EXPECT_EQ(serialized(a.trace), serialized(b.trace));
  EXPECT_EQ(b.fault_counts.total_injections(), 0u);
}

}  // namespace
}  // namespace eio::workloads
