// The command registry: eiotrace's subcommands as a data table.
//
// A Command is {name, operands, summary, option groups, run(ctx)}; the
// registry drives dispatch, flag parsing, and every line of generated
// usage text from the same rows, so `eiotrace help` can never disagree
// with what dispatch accepts. Handlers receive a CommandContext — the
// parsed args, the opened trace source (for trace commands), and the
// output streams — instead of re-parsing argv, which is what lets
// campaign workers and tests invoke subcommand logic as library calls.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cli/options.h"

namespace eio::ipm {
class FileTraceSource;
}

namespace eio::cli {

/// Everything a command handler needs: parsed flags + positionals, the
/// trace file source (commands with needs_trace; nullptr otherwise),
/// and the invocation's streams.
struct CommandContext {
  Parsed args;
  const ipm::FileTraceSource* source = nullptr;
  std::ostream* out = nullptr;
  std::ostream* err = nullptr;

  [[nodiscard]] std::ostream& os() const { return *out; }
  [[nodiscard]] std::ostream& es() const { return *err; }
  /// The shared --jobs knob (0 = EIO_JOBS env, else hardware).
  [[nodiscard]] std::size_t jobs() const { return args.get_size("jobs", 0); }
  /// The shared --json output-contract flag.
  [[nodiscard]] bool json() const { return args.has("json"); }
};

struct Command {
  const char* name;
  const char* operands;  ///< positional operands shown in usage
  const char* summary;
  std::vector<OptionGroup> groups;
  /// True: dispatch opens positional[0] as a FileTraceSource and hands
  /// it to run via ctx.source. False: the command owns its operands
  /// (simulate, campaign, campaign-worker).
  bool needs_trace = false;
  int (*run)(CommandContext& ctx) = nullptr;
};

/// The registry, in the order the usage text lists commands.
[[nodiscard]] const std::vector<Command>& commands();

/// Registry lookup; nullptr for unknown names.
[[nodiscard]] const Command* find_command(const std::string& name);

/// One command's generated usage (operands, summary, full flag table);
/// falls back to the global usage for unknown names.
[[nodiscard]] std::string usage_for(const std::string& command);

}  // namespace eio::cli
