// Declarative scenarios: one document = machine + workload + ensemble
// + fault plan.
//
// A scenario names everything a simulation needs — the machine preset,
// the workload and its parameters, the ensemble size, and the fault
// plan — so an experiment is a checked-in, schema-versioned JSON file
// (`eiotrace simulate --scenario file.json`, examples/scenarios/)
// instead of a command line remembered in a shell history. The same
// ScenarioBuilder is the single place JobSpecs are assembled: the CLI,
// the figure benches, and the tests all construct jobs through it, so
// "the bench's job" and "the scenario file's job" cannot drift apart.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"
#include "fault/plan.h"
#include "workloads/experiment.h"
#include "workloads/gcrm.h"
#include "workloads/ior.h"
#include "workloads/madbench.h"

namespace eio::workloads {

/// Version of the scenario JSON schema (the "schema_version" key).
inline constexpr int kScenarioSchemaVersion = 1;

/// The workloads a scenario can name.
enum class WorkloadKind : std::uint8_t { kIor, kMadbench, kGcrm };

/// Machine preset by name. Throws std::invalid_argument naming the
/// valid presets on an unknown name (the CLI turns that into its
/// uniform bad-value error).
[[nodiscard]] lustre::MachineConfig machine_preset(const std::string& name);

/// Fluent assembly of one experiment. Defaults: IOR with IorConfig
/// defaults on franklin, 1 run, no background load, empty fault plan.
class ScenarioBuilder {
 public:
  ScenarioBuilder() : machine_(lustre::MachineConfig::franklin()) {}

  /// Scenario name; also becomes JobSpec::name (otherwise the
  /// workload builder's generated name stands).
  ScenarioBuilder& name(std::string n) {
    name_ = std::move(n);
    return *this;
  }
  /// Machine by preset name (throws on unknown) or explicit config.
  ScenarioBuilder& machine(const std::string& preset) {
    machine_ = machine_preset(preset);
    return *this;
  }
  ScenarioBuilder& machine(lustre::MachineConfig m) {
    machine_ = std::move(m);
    return *this;
  }
  /// Override the machine seed (ensembles derive per-run seeds from it).
  ScenarioBuilder& seed(std::uint64_t s) {
    machine_.seed = s;
    return *this;
  }
  /// Background ("other jobs") load at `intensity` of aggregate
  /// bandwidth; 0 disables.
  ScenarioBuilder& background(double intensity) {
    machine_.background.enabled = intensity > 0.0;
    machine_.background.intensity = intensity;
    return *this;
  }
  ScenarioBuilder& ior(IorConfig cfg) {
    kind_ = WorkloadKind::kIor;
    ior_ = cfg;
    return *this;
  }
  ScenarioBuilder& madbench(MadbenchConfig cfg) {
    kind_ = WorkloadKind::kMadbench;
    madbench_ = std::move(cfg);
    return *this;
  }
  ScenarioBuilder& gcrm(GcrmConfig cfg) {
    kind_ = WorkloadKind::kGcrm;
    gcrm_ = std::move(cfg);
    return *this;
  }
  ScenarioBuilder& faults(fault::Plan plan) {
    faults_ = std::move(plan);
    return *this;
  }
  /// Ensemble size the scenario asks for (callers may override).
  ScenarioBuilder& runs(std::size_t n) {
    runs_ = n;
    return *this;
  }

  [[nodiscard]] const std::string& scenario_name() const noexcept { return name_; }
  [[nodiscard]] const lustre::MachineConfig& machine_config() const noexcept {
    return machine_;
  }
  [[nodiscard]] WorkloadKind kind() const noexcept { return kind_; }
  [[nodiscard]] const IorConfig& ior_config() const noexcept { return ior_; }
  [[nodiscard]] const MadbenchConfig& madbench_config() const noexcept {
    return madbench_;
  }
  [[nodiscard]] const GcrmConfig& gcrm_config() const noexcept { return gcrm_; }
  [[nodiscard]] const fault::Plan& fault_plan() const noexcept { return faults_; }
  [[nodiscard]] std::size_t run_count() const noexcept { return runs_; }

  /// Assemble the runnable experiment: workload builder + machine +
  /// fault plan (+ the scenario name, when set).
  [[nodiscard]] JobSpec job() const;

 private:
  std::string name_;
  lustre::MachineConfig machine_;
  WorkloadKind kind_ = WorkloadKind::kIor;
  IorConfig ior_;
  MadbenchConfig madbench_;
  GcrmConfig gcrm_;
  fault::Plan faults_;
  std::size_t runs_ = 1;
};

/// Build a scenario from a parsed JSON document. Strict: unknown keys
/// anywhere, a missing/unsupported "schema_version", or an unknown
/// workload kind / machine preset all throw (std::runtime_error with
/// the offending key, so a typo'd scenario points at itself).
[[nodiscard]] ScenarioBuilder scenario_from_json(const json::Value& v);

/// Read and parse a scenario file. Throws on I/O or validation errors.
[[nodiscard]] ScenarioBuilder load_scenario(const std::string& path);

}  // namespace eio::workloads
