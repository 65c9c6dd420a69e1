// eiotrace's entry point: obs-flag extraction, registry-driven
// dispatch, and the version banner. Everything else — option tables,
// usage generation, command handlers — lives behind the command
// registry (cli/command.h); dispatch here is a straight table walk.
#include "cli/eiotrace.h"

#include <optional>
#include <ostream>
#include <string_view>

#include "cli/command.h"
#include "ipm/trace_source.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/registry.h"

namespace eio::cli {

namespace {

// ---------------------------------------------------------------------------
// Self-observability wiring.

/// Obs flags are accepted anywhere on the command line, in both
/// --flag=value and --flag value forms, and stripped before command
/// parsing so every command composes with them.
struct ObsRequest {
  std::string chrome_trace;  ///< --chrome-trace PATH: span trace JSON
  std::string metrics;       ///< --metrics PATH: metrics JSON (or .tsv)
  bool summary = false;      ///< --obs-summary: end-of-run table
  bool enable = false;       ///< --obs: record without exporting

  [[nodiscard]] bool any() const {
    return enable || summary || !chrome_trace.empty() || !metrics.empty();
  }
};

ObsRequest extract_obs_flags(std::vector<std::string>& args) {
  ObsRequest req;
  std::vector<std::string> kept;
  kept.reserve(args.size());
  auto value_of = [&args](std::size_t& i,
                          std::string_view flag) -> std::optional<std::string> {
    const std::string& a = args[i];
    if (a == flag) {
      if (i + 1 < args.size()) return args[++i];
      return std::string();
    }
    if (a.size() > flag.size() + 1 && a.compare(0, flag.size(), flag) == 0 &&
        a[flag.size()] == '=') {
      return a.substr(flag.size() + 1);
    }
    return std::nullopt;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = value_of(i, "--chrome-trace")) {
      req.chrome_trace = *v;
    } else if (auto v = value_of(i, "--metrics")) {
      req.metrics = *v;
    } else if (args[i] == "--obs-summary") {
      req.summary = true;
    } else if (args[i] == "--obs") {
      req.enable = true;
    } else {
      kept.push_back(args[i]);
    }
  }
  args = std::move(kept);
  return req;
}

/// Export/print whatever the run recorded. Returns non-zero only when
/// a requested output file cannot be written.
int finish_obs(const ObsRequest& req, std::ostream& out, std::ostream& err) {
  if (!req.any()) return 0;
  int rc = 0;
  obs::Snapshot snap = obs::Registry::instance().snapshot();
  try {
    if (!req.metrics.empty()) obs::write_metrics_file(req.metrics, snap);
    if (!req.chrome_trace.empty()) {
      obs::write_chrome_trace_file(req.chrome_trace);
    }
  } catch (const std::exception& e) {
    err << "eiotrace: " << e.what() << "\n";
    rc = 2;
  }
  if (req.summary) obs::print_summary(out, snap);
  return rc;
}

int cmd_version(std::ostream& out) {
  const obs::BuildInfo& b = obs::build_info();
  out << "eiotrace (ensembleio) " << b.version << "\n"
      << "  git_sha:       " << b.git_sha << "\n"
      << "  compiler:      " << b.compiler << "\n"
      << "  flags:         " << b.flags << "\n"
      << "  build_type:    " << b.build_type << "\n"
      << "  observability: "
      << (b.obs_compiled_in ? "compiled in" : "compiled out") << "\n";
  return 0;
}

int dispatch(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  if (args.empty() || args[0] == "--help" || args[0] == "help") {
    if (args.size() > 1 && find_command(args[1]) != nullptr) {
      out << usage_for(args[1]);
      return 0;
    }
    out << usage_text();
    return args.empty() ? 1 : 0;
  }
  if (args[0] == "version" || args[0] == "--version" ||
      args[0] == "--build-info") {
    return cmd_version(out);
  }
  const Command* cmd = find_command(args[0]);
  if (cmd == nullptr) {
    err << "eiotrace: unknown command '" << args[0] << "'\n" << usage_text();
    return 1;
  }
  CommandContext ctx;
  ctx.out = &out;
  ctx.err = &err;
  if (auto rc = parse_args(cmd->name, cmd->groups, args, 1, ctx.args, err,
                           usage_for(cmd->name))) {
    return *rc;
  }
  // Output paths are checked before any work, so a typo'd directory
  // fails in milliseconds instead of after the whole run.
  if (auto rc = check_output_paths(cmd->groups, ctx.args, err)) return *rc;
  if (!cmd->needs_trace) {  // the command owns its operands
    try {
      return cmd->run(ctx);
    } catch (const std::exception& e) {
      err << "eiotrace: " << e.what() << "\n";
      return 2;
    }
  }
  if (ctx.args.positional().empty()) {
    err << "eiotrace: missing trace file\n" << usage_for(cmd->name);
    return 1;
  }
  try {
    // The trace file is opened as a streaming source; each command
    // pulls the passes it needs.
    ipm::FileTraceSource source(ctx.args.positional()[0]);
    ctx.source = &source;
    return cmd->run(ctx);
  } catch (const std::exception& e) {
    err << "eiotrace: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int run_eiotrace(const std::vector<std::string>& raw_args, std::ostream& out,
                 std::ostream& err) {
  std::vector<std::string> args = raw_args;
  ObsRequest obs_req = extract_obs_flags(args);
  auto unwritable = [&err](const char* flag, const std::string& path) {
    if (path.empty()) return false;
    const std::string why = unwritable_reason(path, false);
    if (!why.empty()) {
      err << "eiotrace: cannot write --" << flag << " '" << path << "': "
          << why << "\n";
    }
    return !why.empty();
  };
  if (unwritable("chrome-trace", obs_req.chrome_trace) ||
      unwritable("metrics", obs_req.metrics)) {
    return 1;
  }
  if (obs_req.any()) {
    if (!obs::kCompiledIn) {
      err << "eiotrace: warning: observability was compiled out "
             "(-DEIO_OBS=OFF); reports will be empty\n";
    }
    // Reset so each invocation's report covers exactly this invocation
    // (matters for in-process drivers like the test harness).
    obs::Registry::instance().reset();
    obs::set_enabled(true);
  }
  int rc = dispatch(args, out, err);
  int obs_rc = finish_obs(obs_req, out, err);
  if (obs_req.any()) obs::set_enabled(false);
  return rc != 0 ? rc : obs_rc;
}

}  // namespace eio::cli
