#include "workloads/scenario.h"

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

namespace eio::workloads {

namespace {

void reject_unknown_keys(const json::Object& o,
                         std::initializer_list<const char*> known,
                         const char* where) {
  for (const auto& [key, value] : o) {
    (void)value;
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw std::runtime_error(std::string("scenario: unknown key '") + key +
                               "' in " + where);
    }
  }
}

[[nodiscard]] IorConfig ior_from_json(const json::Value& w) {
  reject_unknown_keys(w.as_object(),
                      {"kind", "tasks", "block_mib", "segments",
                       "calls_per_block", "stripe_count", "read_back",
                       "random_offsets", "file_per_process",
                       "fpp_stripe_count", "file_name"},
                      "workload (ior)");
  IorConfig cfg;
  cfg.tasks = static_cast<std::uint32_t>(
      w.number_or("tasks", static_cast<double>(cfg.tasks)));
  cfg.block_size = static_cast<Bytes>(
      w.number_or("block_mib", to_mib(cfg.block_size)) *
      static_cast<double>(MiB));
  cfg.segments = static_cast<std::uint32_t>(
      w.number_or("segments", static_cast<double>(cfg.segments)));
  cfg.calls_per_block = static_cast<std::uint32_t>(
      w.number_or("calls_per_block", static_cast<double>(cfg.calls_per_block)));
  cfg.stripe_count = static_cast<std::uint32_t>(
      w.number_or("stripe_count", static_cast<double>(cfg.stripe_count)));
  cfg.read_back = w.bool_or("read_back", cfg.read_back);
  cfg.random_offsets = w.bool_or("random_offsets", cfg.random_offsets);
  cfg.file_per_process = w.bool_or("file_per_process", cfg.file_per_process);
  cfg.fpp_stripe_count = static_cast<std::uint32_t>(w.number_or(
      "fpp_stripe_count", static_cast<double>(cfg.fpp_stripe_count)));
  cfg.file_name = w.string_or("file_name", cfg.file_name);
  return cfg;
}

[[nodiscard]] MadbenchConfig madbench_from_json(const json::Value& w) {
  reject_unknown_keys(w.as_object(),
                      {"kind", "tasks", "matrix_mib", "matrices",
                       "alignment_mib", "stripe_count", "collective_io",
                       "cb_nodes", "file_name"},
                      "workload (madbench)");
  MadbenchConfig cfg;
  cfg.tasks = static_cast<std::uint32_t>(
      w.number_or("tasks", static_cast<double>(cfg.tasks)));
  if (w.has("matrix_mib")) {
    cfg.matrix_bytes = static_cast<Bytes>(w.at("matrix_mib").as_number() *
                                          static_cast<double>(MiB));
  }
  cfg.matrices = static_cast<std::uint32_t>(
      w.number_or("matrices", static_cast<double>(cfg.matrices)));
  if (w.has("alignment_mib")) {
    cfg.alignment = static_cast<Bytes>(w.at("alignment_mib").as_number() *
                                       static_cast<double>(MiB));
  }
  cfg.stripe_count = static_cast<std::uint32_t>(
      w.number_or("stripe_count", static_cast<double>(cfg.stripe_count)));
  cfg.collective_io = w.bool_or("collective_io", cfg.collective_io);
  cfg.cb_nodes = static_cast<std::uint32_t>(
      w.number_or("cb_nodes", static_cast<double>(cfg.cb_nodes)));
  cfg.file_name = w.string_or("file_name", cfg.file_name);
  return cfg;
}

[[nodiscard]] GcrmConfig gcrm_from_json(const json::Value& w) {
  reject_unknown_keys(
      w.as_object(),
      {"kind", "preset", "tasks", "io_tasks", "stripe_count", "file_name"},
      "workload (gcrm)");
  std::string preset = w.string_or("preset", "baseline");
  GcrmConfig cfg;
  if (preset == "baseline") {
    cfg = GcrmConfig::baseline();
  } else if (preset == "collective") {
    cfg = GcrmConfig::with_collective_buffering();
  } else if (preset == "aligned") {
    cfg = GcrmConfig::with_alignment();
  } else if (preset == "optimized") {
    cfg = GcrmConfig::fully_optimized();
  } else {
    throw std::runtime_error(
        "scenario: unknown gcrm preset '" + preset +
        "' (baseline|collective|aligned|optimized)");
  }
  cfg.tasks = static_cast<std::uint32_t>(
      w.number_or("tasks", static_cast<double>(cfg.tasks)));
  cfg.io_tasks = static_cast<std::uint32_t>(
      w.number_or("io_tasks", static_cast<double>(cfg.io_tasks)));
  cfg.stripe_count = static_cast<std::uint32_t>(
      w.number_or("stripe_count", static_cast<double>(cfg.stripe_count)));
  cfg.file_name = w.string_or("file_name", cfg.file_name);
  return cfg;
}

/// Reject fault targets the job does not have: a slow OST past the
/// machine's OST count or a straggler rank past the workload's tasks
/// would otherwise parse, print a fault plan and inject nothing. Reads
/// the raw JSON numbers, so a negative target is named as written.
void check_fault_targets(const json::Value& faults,
                         const lustre::MachineConfig& machine,
                         std::uint32_t tasks) {
  auto out_of_range = [](const std::string& path, double value,
                         const std::string& allowed) {
    std::ostringstream msg;
    msg << "scenario: " << path << " = " << value
        << " is out of range (allowed: " << allowed << ")";
    throw std::runtime_error(msg.str());
  };
  if (faults.has("slow_osts")) {
    const json::Array& slow = faults.at("slow_osts").as_array();
    for (std::size_t i = 0; i < slow.size(); ++i) {
      double ost = slow[i].number_or("ost", 0.0);
      if (!(ost >= 0.0 && ost < static_cast<double>(machine.ost_count))) {
        out_of_range("faults.slow_osts[" + std::to_string(i) + "].ost", ost,
                     "0 <= ost < " + std::to_string(machine.ost_count) +
                         " on " + machine.name);
      }
    }
  }
  if (faults.has("stragglers") && faults.at("stragglers").has("ranks")) {
    const json::Array& ranks = faults.at("stragglers").at("ranks").as_array();
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      double rank = ranks[i].as_number();
      if (!(rank >= 0.0 && rank < static_cast<double>(tasks))) {
        out_of_range("faults.stragglers.ranks[" + std::to_string(i) + "]", rank,
                     "0 <= rank < " + std::to_string(tasks) +
                         ", the workload's tasks");
      }
    }
  }
}

}  // namespace

lustre::MachineConfig machine_preset(const std::string& name) {
  if (name == "franklin") return lustre::MachineConfig::franklin();
  if (name == "franklin-patched") return lustre::MachineConfig::franklin_patched();
  if (name == "jaguar") return lustre::MachineConfig::jaguar();
  throw std::invalid_argument("unknown machine '" + name +
                              "' (franklin|franklin-patched|jaguar)");
}

JobSpec ScenarioBuilder::job() const {
  JobSpec spec;
  switch (kind_) {
    case WorkloadKind::kIor: spec = make_ior_job(machine_, ior_); break;
    case WorkloadKind::kMadbench:
      spec = make_madbench_job(machine_, madbench_);
      break;
    case WorkloadKind::kGcrm: spec = make_gcrm_job(machine_, gcrm_); break;
  }
  if (!name_.empty()) spec.name = name_;
  spec.faults = faults_;
  return spec;
}

ScenarioBuilder scenario_from_json(const json::Value& v) {
  reject_unknown_keys(v.as_object(),
                      {"schema_version", "name", "machine", "seed", "runs",
                       "background", "workload", "faults"},
                      "scenario");
  auto version = static_cast<int>(v.at("schema_version").as_number());
  if (version != kScenarioSchemaVersion) {
    throw std::runtime_error(
        "scenario: unsupported schema_version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kScenarioSchemaVersion) + ")");
  }

  ScenarioBuilder b;
  b.name(v.string_or("name", ""));
  try {
    b.machine(v.string_or("machine", "franklin"));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("scenario: ") + e.what());
  }
  if (v.has("seed")) {
    b.seed(static_cast<std::uint64_t>(v.at("seed").as_number()));
  }
  double runs = v.number_or("runs", 1.0);
  if (!(runs >= 1.0)) {
    std::ostringstream msg;
    msg << "scenario: runs must be at least 1 (got " << runs << ")";
    throw std::runtime_error(msg.str());
  }
  b.runs(static_cast<std::size_t>(runs));

  if (v.has("background")) {
    const json::Value& bg = v.at("background");
    reject_unknown_keys(bg.as_object(), {"intensity"}, "background");
    b.background(bg.number_or("intensity", 0.2));
  }

  const json::Value& w = v.at("workload");
  std::string kind = w.at("kind").as_string();
  if (kind == "ior") {
    b.ior(ior_from_json(w));
  } else if (kind == "madbench") {
    b.madbench(madbench_from_json(w));
  } else if (kind == "gcrm") {
    b.gcrm(gcrm_from_json(w));
  } else {
    throw std::runtime_error("scenario: unknown workload kind '" + kind +
                             "' (ior|madbench|gcrm)");
  }

  if (v.has("faults")) {
    const json::Value& faults = v.at("faults");
    b.faults(fault::plan_from_json(faults));
    std::uint32_t tasks = 0;
    switch (b.kind()) {
      case WorkloadKind::kIor: tasks = b.ior_config().tasks; break;
      case WorkloadKind::kMadbench: tasks = b.madbench_config().tasks; break;
      case WorkloadKind::kGcrm: tasks = b.gcrm_config().tasks; break;
    }
    check_fault_targets(faults, b.machine_config(), tasks);
  }
  return b;
}

ScenarioBuilder load_scenario(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) {
    throw std::runtime_error("cannot open scenario file: " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return scenario_from_json(json::parse(text.str()));
}

}  // namespace eio::workloads
