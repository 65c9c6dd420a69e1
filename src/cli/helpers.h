// Shared pieces of the command implementations: filter construction,
// table/chart renderers, and the monitor plumbing. Internal to the CLI
// library — commands include this, the public surface is
// cli/eiotrace.h + cli/command.h + cli/options.h.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "cli/options.h"
#include "core/parallel_analysis.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "ipm/trace_source.h"
#include "monitor/health.h"

namespace eio::cli {

/// Build an event filter from the common --op/--phase/--min-bytes/...
/// flags (the parser has validated --op).
[[nodiscard]] analysis::EventFilter filter_from(const Parsed& args);

// Shared table/chart renderers, so the standalone subcommands and the
// fused `analyze` bundle print identical sections.
void print_summary_header(std::ostream& out);
void print_summary_row(std::ostream& out, posix::OpType op,
                       const stats::StreamingSummary& s);
void print_phase_table(
    std::ostream& out,
    const std::map<std::int32_t, stats::StreamingSummary>& by_phase);
void print_histogram_chart(std::ostream& out, const stats::Histogram& h,
                           bool log);
void print_rate_chart(std::ostream& out, const analysis::TimeSeries& series);

/// Monitor options from the --ost-count/--window/--stride/--drift-d
/// flags (defaults and bounds are the monitor command's table).
[[nodiscard]] monitor::HealthOptions monitor_options_from(const Parsed& args);

/// Write the incident log named by --incidents (0 = ok, 1 = I/O error,
/// no-op when the flag is absent). `runs` is a parallel run-id vector
/// for ensembles; empty means "all run 0".
int write_incident_log(const Parsed& args,
                       const std::vector<monitor::Incident>& incidents,
                       const std::vector<std::uint64_t>& runs,
                       std::ostream& out, std::ostream& err);

/// Short name of a trace format ("tsv" or "v3").
[[nodiscard]] const char* format_label(ipm::TraceFormat format);

}  // namespace eio::cli
