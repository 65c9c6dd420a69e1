// Declarative option tables and the parser that runs against them.
//
// Every subcommand lists its options as data (OptionSpec/OptionGroup);
// the same tables drive parsing — uniform unknown-flag/bad-value
// errors, exit code 1 — and the generated usage text, so the two
// cannot disagree. This is the public half of the command API: the
// registry (cli/command.h) composes groups per command, and embedders
// (campaign workers, tests) can parse argv slices with the exact CLI
// semantics.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace eio::cli {

enum class OptKind : std::uint8_t {
  kFlag,    ///< boolean, present or absent
  kString,  ///< free-form value
  kDouble,  ///< numeric value (validated at parse time)
  kSize,    ///< non-negative integer (validated at parse time)
  kOutFile, ///< output file: its directory must exist and be writable
  kOutDir,  ///< output directory: must exist and be writable
  kOp,      ///< "any" or a posix::op_name (validated at parse time)
};

/// No lower bound: the default OptionSpec::min.
inline constexpr double kNoMin = -std::numeric_limits<double>::infinity();
/// No upper bound: the default OptionSpec::max.
inline constexpr std::uint64_t kNoMax =
    std::numeric_limits<std::uint64_t>::max();

struct OptionSpec {
  const char* name;      ///< without the leading "--"
  OptKind kind;
  const char* fallback;  ///< default shown in help ("" = none)
  const char* help;
  /// Smallest value a kSize or kDouble option accepts; the parser
  /// rejects anything below it, so a command never hands a kernel a
  /// size or scale its own checks refuse.
  double min = kNoMin;
  /// Largest value a kSize option accepts; the parser rejects anything
  /// above it, so callers may narrow the value without wrapping.
  std::uint64_t max = kNoMax;
  /// True: `min` itself is rejected too (a strictly positive scale).
  bool above_min = false;
};

struct OptionGroup {
  const char* title;
  std::span<const OptionSpec> options;
};

/// Parsed options + positionals of one invocation.
class Parsed {
 public:
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) > 0;
  }
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  [[nodiscard]] std::size_t get_size(const std::string& name,
                                     std::size_t fallback) const {
    auto it = values_.find(name);
    return it == values_.end()
               ? fallback
               : static_cast<std::size_t>(
                     std::strtoull(it->second.c_str(), nullptr, 10));
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

[[nodiscard]] const OptionSpec* find_spec(std::span<const OptionGroup> groups,
                                          std::string_view name);

/// The values --op takes: "any" or a posix::op_name, joined by '|'.
[[nodiscard]] std::string op_choices();

/// What a value of `kind` must look like ("expects a number"), or empty
/// when `value` is one.
[[nodiscard]] std::string value_error(OptKind kind, const std::string& value);

/// Parse `raw[skip..]` against the command's option groups. Both
/// --name=value and --name value forms are accepted. Unknown flags print
/// `usage` to `err` and yield exit code 1 (wrapped in the optional); a
/// malformed value (value_error), a kSize value outside its spec's
/// [min, max] (or past 64 bits), a kDouble value below its spec's min
/// and a non-finite kDouble value yield 1 after one line naming the
/// flag and what it accepts. nullopt means success.
[[nodiscard]] std::optional<int> parse_args(const std::string& command,
                                            std::span<const OptionGroup> groups,
                                            const std::vector<std::string>& raw,
                                            std::size_t skip, Parsed& out,
                                            std::ostream& err,
                                            const std::string& usage);

/// Why `path` cannot be written as an output file (`directory` false:
/// the file's directory must exist and be writable, and the file, if
/// present, must be a writable non-directory) or output directory
/// (`directory` true: an existing writable directory); empty when it
/// can. Checks without creating or touching anything.
[[nodiscard]] std::string unwritable_reason(const std::string& path,
                                            bool directory);

/// Check every kOutFile/kOutDir value in `args` before any work runs:
/// on the first unwritable path, print one error line to `err` and
/// yield exit code 1 (wrapped in the optional); nullopt means all can
/// be written.
[[nodiscard]] std::optional<int> check_output_paths(
    std::span<const OptionGroup> groups, const Parsed& args,
    std::ostream& err);

}  // namespace eio::cli
