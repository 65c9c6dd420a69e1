#include "workloads/scenario.h"

#include <cmath>
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

[[noreturn]] void out_of_range(const std::string& path, double value,
                               const std::string& allowed) {
  std::ostringstream msg;
  msg << "scenario: " << path << " = " << value
      << " is out of range (allowed: " << allowed << ")";
  throw std::runtime_error(msg.str());
}

/// The count `key` of workload `w`, or `fallback` when absent. A count
/// is an integer from `min` (the bound the workload itself asserts) to
/// 2^32 - 1, so the narrowing below is exact.
[[nodiscard]] std::uint32_t count_or(const json::Value& w, const char* key,
                                     std::uint32_t fallback,
                                     std::uint32_t min) {
  if (!w.has(key)) return fallback;
  const double v = w.at(key).as_number();
  constexpr double kMax = 4294967295.0;
  if (!(v >= min && v <= kMax && v == std::floor(v))) {
    out_of_range(std::string("workload.") + key, v,
                 "an integer from " + std::to_string(min) + " to 4294967295");
  }
  return static_cast<std::uint32_t>(v);
}

/// The size in MiB `key` of workload `w` as bytes, or `fallback` when
/// absent: finite, greater than 0, and a whole byte count that fits.
[[nodiscard]] Bytes mib_or(const json::Value& w, const char* key,
                           Bytes fallback) {
  if (!w.has(key)) return fallback;
  const double v = w.at(key).as_number();
  const double bytes = v * static_cast<double>(MiB);
  if (!(bytes >= 1.0 && bytes < 18446744073709551616.0)) {
    out_of_range(std::string("workload.") + key, v,
                 "a size in MiB above 0: at least 1 byte, below 2^64 bytes");
  }
  return static_cast<Bytes>(bytes);
}

[[nodiscard]] IorConfig ior_from_json(const json::Value& w) {
  reject_unknown_keys(w.as_object(),
                      {"kind", "tasks", "block_mib", "segments",
                       "calls_per_block", "stripe_count", "read_back",
                       "random_offsets", "file_per_process",
                       "fpp_stripe_count", "file_name"},
                      "workload (ior)");
  IorConfig cfg;
  cfg.tasks = count_or(w, "tasks", cfg.tasks, 1);
  cfg.block_size = mib_or(w, "block_mib", cfg.block_size);
  cfg.segments = count_or(w, "segments", cfg.segments, 1);
  cfg.calls_per_block = count_or(w, "calls_per_block", cfg.calls_per_block, 1);
  if (cfg.block_size % cfg.calls_per_block != 0) {
    throw std::runtime_error(
        "scenario: workload.block_mib (" + std::to_string(cfg.block_size) +
        " bytes) does not divide into calls_per_block = " +
        std::to_string(cfg.calls_per_block) + " equal calls");
  }
  cfg.stripe_count = count_or(w, "stripe_count", cfg.stripe_count, 0);
  cfg.read_back = w.bool_or("read_back", cfg.read_back);
  cfg.random_offsets = w.bool_or("random_offsets", cfg.random_offsets);
  cfg.file_per_process = w.bool_or("file_per_process", cfg.file_per_process);
  cfg.fpp_stripe_count =
      count_or(w, "fpp_stripe_count", cfg.fpp_stripe_count, 0);
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
  cfg.tasks = count_or(w, "tasks", cfg.tasks, 1);
  cfg.matrix_bytes = mib_or(w, "matrix_mib", cfg.matrix_bytes);
  cfg.matrices = count_or(w, "matrices", cfg.matrices, 1);
  cfg.alignment = mib_or(w, "alignment_mib", cfg.alignment);
  cfg.stripe_count = count_or(w, "stripe_count", cfg.stripe_count, 0);
  cfg.collective_io = w.bool_or("collective_io", cfg.collective_io);
  cfg.cb_nodes = count_or(w, "cb_nodes", cfg.cb_nodes, 0);
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
  cfg.tasks = count_or(w, "tasks", cfg.tasks, 1);
  // Only a collective preset uses io_tasks; there it must divide tasks.
  cfg.io_tasks =
      count_or(w, "io_tasks", cfg.io_tasks, cfg.collective_buffering ? 1 : 0);
  if (cfg.collective_buffering && cfg.tasks % cfg.io_tasks != 0) {
    throw std::runtime_error("scenario: workload.io_tasks = " +
                             std::to_string(cfg.io_tasks) +
                             " does not divide workload.tasks = " +
                             std::to_string(cfg.tasks));
  }
  cfg.stripe_count = count_or(w, "stripe_count", cfg.stripe_count, 0);
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
