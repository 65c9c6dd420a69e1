#include "cli/helpers.h"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/units.h"
#include "core/ascii_chart.h"

namespace eio::cli {

analysis::EventFilter filter_from(const Parsed& args) {
  analysis::EventFilter f;
  // The parser has already refused any other --op value (OptKind::kOp).
  f.op = posix::op_from_name(args.get("op", "any"));
  if (args.has("phase")) {
    f.phase = static_cast<std::int32_t>(args.get_double("phase", 0));
  }
  f.min_bytes = static_cast<Bytes>(args.get_double("min-bytes", 0));
  if (args.has("max-bytes")) {
    f.max_bytes = static_cast<Bytes>(args.get_double("max-bytes", 0));
  }
  if (args.has("t-lo")) f.t_lo = args.get_double("t-lo", 0.0);
  if (args.has("t-hi")) f.t_hi = args.get_double("t-hi", 0.0);
  return f;
}

void print_summary_header(std::ostream& out) {
  out << "  op       count   median(s)     mean(s)      p95(s)      max(s)\n";
}

void print_summary_row(std::ostream& out, posix::OpType op,
                       const stats::StreamingSummary& s) {
  if (s.empty()) return;
  char line[160];
  std::snprintf(line, sizeof line, "  %-6s %7zu %11.4f %11.4f %11.4f %11.4f\n",
                posix::op_name(op), s.count(), s.median(), s.moments().mean,
                s.quantile(0.95), s.max());
  out << line;
}

void print_phase_table(
    std::ostream& out,
    const std::map<std::int32_t, stats::StreamingSummary>& by_phase) {
  out << "  phase     events   median(s)      p95(s)      max(s)\n";
  for (const auto& [phase, s] : by_phase) {
    char line[120];
    std::snprintf(line, sizeof line, "  %6d %9zu %11.4f %11.4f %11.4f\n",
                  phase, s.count(), s.median(), s.quantile(0.95), s.max());
    out << line;
  }
}

void print_histogram_chart(std::ostream& out, const stats::Histogram& h,
                           bool log) {
  out << analysis::render_histogram(
      h, {.width = 72, .height = 12, .log_y = log,
          .x_label = log ? "seconds (log)" : "seconds", .y_label = "count"});
}

void print_rate_chart(std::ostream& out, const analysis::TimeSeries& series) {
  analysis::Series line{"rate", {}, {}};
  for (std::size_t i = 0; i < series.values.size(); ++i) {
    line.x.push_back(series.time_at(i));
    line.y.push_back(series.values[i] / static_cast<double>(MiB));
  }
  out << analysis::render_lines(
      std::vector<analysis::Series>{line},
      {.width = 72, .height = 12, .x_label = "seconds",
       .y_label = "aggregate MiB/s"});
}

monitor::HealthOptions monitor_options_from(const Parsed& args) {
  monitor::HealthOptions opt;
  opt.ost_count =
      static_cast<std::uint32_t>(args.get_size("ost-count", 48));
  opt.window = args.get_size("window", 2048);
  opt.stride = args.get_size("stride", 1024);
  opt.drift_d = args.get_double("drift-d", 0.0);
  return opt;
}

int write_incident_log(const Parsed& args,
                       const std::vector<monitor::Incident>& incidents,
                       const std::vector<std::uint64_t>& runs,
                       std::ostream& out, std::ostream& err) {
  if (!args.has("incidents")) return 0;
  std::string path = args.get("incidents", "");
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    err << "eiotrace: cannot write " << path << "\n";
    return 1;
  }
  if (runs.empty()) {
    monitor::write_incidents_jsonl(f, incidents);
  } else {
    for (std::size_t i = 0; i < incidents.size(); ++i) {
      monitor::write_incidents_jsonl(f, {incidents[i]}, runs[i]);
    }
  }
  out << "wrote " << path << " (" << incidents.size() << " incidents)\n";
  return 0;
}

const char* format_label(ipm::TraceFormat format) {
  switch (format) {
    case ipm::TraceFormat::kTsv: return "tsv";
    case ipm::TraceFormat::kBinaryV3: return "v3";
  }
  return "?";
}

}  // namespace eio::cli
