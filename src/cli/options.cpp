#include "cli/options.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <system_error>

#include "posix/hooks.h"

namespace eio::cli {

const OptionSpec* find_spec(std::span<const OptionGroup> groups,
                            std::string_view name) {
  for (const OptionGroup& g : groups) {
    for (const OptionSpec& s : g.options) {
      if (name == s.name) return &s;
    }
  }
  return nullptr;
}

std::string op_choices() { return "any|" + posix::op_names(); }

std::string value_error(OptKind kind, const std::string& value) {
  char* end = nullptr;
  switch (kind) {
    case OptKind::kFlag:
    case OptKind::kString:
    case OptKind::kOutFile:
    case OptKind::kOutDir:
      return value.empty() ? "expects a value" : "";
    case OptKind::kDouble:
      if (!value.empty()) std::strtod(value.c_str(), &end);
      return end != nullptr && *end == '\0' ? "" : "expects a number";
    case OptKind::kSize:
      if (!value.empty() && value[0] != '-') {
        std::strtoull(value.c_str(), &end, 10);
      }
      return end != nullptr && *end == '\0'
                 ? ""
                 : "expects a non-negative integer";
    case OptKind::kOp:
      if (value == "any" || posix::op_from_name(value)) return "";
      return std::string("expects ") += op_choices();
  }
  return "";
}

std::optional<int> parse_args(const std::string& command,
                              std::span<const OptionGroup> groups,
                              const std::vector<std::string>& raw,
                              std::size_t skip, Parsed& out, std::ostream& err,
                              const std::string& usage) {
  for (std::size_t i = skip; i < raw.size(); ++i) {
    const std::string& a = raw[i];
    if (a.rfind("--", 0) != 0) {
      out.positional_.push_back(a);
      continue;
    }
    auto eq = a.find('=');
    std::string name = a.substr(2, eq == std::string::npos ? eq : eq - 2);
    const OptionSpec* spec = find_spec(groups, name);
    if (spec == nullptr) {
      err << "eiotrace: unknown flag '--" << name << "' for '" << command
          << "'\n" << usage;
      return 1;
    }
    std::string value;
    if (spec->kind == OptKind::kFlag) {
      if (eq != std::string::npos) {
        err << "eiotrace: --" << name << " takes no value\n" << usage;
        return 1;
      }
      value = "true";
    } else if (eq != std::string::npos) {
      value = a.substr(eq + 1);
    } else if (i + 1 < raw.size()) {
      value = raw[++i];
    } else {
      err << "eiotrace: --" << name << " needs a value\n" << usage;
      return 1;
    }
    if (const std::string why = value_error(spec->kind, value); !why.empty()) {
      err << "eiotrace: bad value '" << value << "' for --" << name << " ("
          << why << ")\n";
      return 1;
    }
    if (spec->kind == OptKind::kSize) {
      errno = 0;
      const unsigned long long n = std::strtoull(value.c_str(), nullptr, 10);
      if (errno != ERANGE && n < spec->min) {
        err << "eiotrace: --" << name << " must be at least " << spec->min
            << "\n";
        return 1;
      }
      if (errno == ERANGE || n > spec->max) {
        err << "eiotrace: --" << name << " must be an integer in ["
            << std::max(spec->min, 0.0) << ", " << spec->max << "]\n";
        return 1;
      }
    }
    if (spec->kind == OptKind::kDouble) {
      const double x = std::strtod(value.c_str(), nullptr);
      if (!std::isfinite(x)) {
        err << "eiotrace: --" << name << " must be a finite number\n";
        return 1;
      }
      if (x < spec->min || (spec->above_min && x == spec->min)) {
        err << "eiotrace: --" << name << " must be "
            << (spec->above_min ? "greater than " : "at least ") << spec->min
            << "\n";
        return 1;
      }
    }
    out.values_[std::move(name)] = std::move(value);
  }
  return std::nullopt;
}

std::string unwritable_reason(const std::string& path, bool directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (directory) {
    if (!fs::is_directory(path, ec)) return "no such directory";
    if (::access(path.c_str(), W_OK | X_OK) != 0) {
      return "directory not writable";
    }
    return {};
  }
  if (fs::is_directory(path, ec)) return "is a directory";
  fs::path dir = fs::path(path).parent_path();
  if (dir.empty()) dir = ".";
  if (!fs::is_directory(dir, ec)) {
    return "no such directory '" + dir.string() + "'";
  }
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    return "directory '" + dir.string() + "' not writable";
  }
  if (fs::exists(path, ec) && ::access(path.c_str(), W_OK) != 0) {
    return "file not writable";
  }
  return {};
}

std::optional<int> check_output_paths(std::span<const OptionGroup> groups,
                                      const Parsed& args, std::ostream& err) {
  for (const OptionGroup& g : groups) {
    for (const OptionSpec& s : g.options) {
      if (s.kind != OptKind::kOutFile && s.kind != OptKind::kOutDir) continue;
      if (!args.has(s.name)) continue;
      const std::string path = args.get(s.name, "");
      const std::string why =
          unwritable_reason(path, s.kind == OptKind::kOutDir);
      if (!why.empty()) {
        err << "eiotrace: cannot write --" << s.name << " '" << path
            << "': " << why << "\n";
        return 1;
      }
    }
  }
  return std::nullopt;
}

}  // namespace eio::cli
