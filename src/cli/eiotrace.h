// eiotrace — offline analysis of saved IPM-I/O traces.
//
// The command-line companion to the library: point it at a trace file
// saved with ipm::Trace::save() (or by the Monitor in any simulated or
// real-wrapper deployment) and get the report, histograms, modes,
// aggregate rates, trace diagram, access patterns, or a diagnosis —
// the full Section III toolbox without writing C++.
//
// Implemented as a library entry point so tests can drive it directly;
// tools/eiotrace.cpp is the thin main().
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace eio::cli {

/// Execute one eiotrace invocation. `args` excludes the program name.
/// Output goes to `out`, errors/usage to `err`. Returns the process
/// exit code (0 success, 1 bad usage, 2 runtime failure).
int run_eiotrace(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);

/// The usage text (for tests and --help).
[[nodiscard]] std::string usage_text();

}  // namespace eio::cli
