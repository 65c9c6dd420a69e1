// The trace-analysis command handlers. Every subcommand consumes a
// TraceSource: the trace file is streamed per analysis pass, never
// materialized, so peak memory is independent of the event count —
// save for the exact per-event samples diagnose and patterns keep (one
// duration or one {offset, bytes} pair per admitted event, never an
// event copy).
//
// Each analysis subcommand builds a kernel (or KernelSet) factory and
// hands it to analysis::run_kernels: exactly ONE chunk-parallel trace
// scan per invocation, TSV or v3, no matter how many statistics it
// fuses.
// diagnose's eight detectors are one such kernel; the two of them the
// online monitor also runs (degraded OST, straggler rank) are written
// once, in core/component_rules.
//
// Commands on the machine-readable contract (summary, analyze,
// diagnose, monitor) honor --json: one compact JSON document on
// stdout, schema_version + fixed key order + %.9g floats via the
// shared campaign::json_out emitters.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "campaign/json_out.h"
#include "cli/commands.h"
#include "cli/helpers.h"
#include "common/units.h"
#include "core/diagnose.h"
#include "core/distribution.h"
#include "core/histogram.h"
#include "core/ks.h"
#include "core/modes.h"
#include "core/patterns.h"
#include "core/streaming.h"
#include "core/trace_diagram.h"
#include "ipm/report.h"
#include "ipm/trace.h"
#include "ipm/trace_file.h"
#include "ipm/trace_stream.h"
#include "monitor/health.h"

namespace eio::cli {

int cmd_report(CommandContext& ctx) {
  ipm::print_report(ctx.os(), ipm::summarize(*ctx.source));
  return 0;
}

int cmd_summary(CommandContext& ctx) {
  const ipm::TraceSource& source = *ctx.source;
  const Parsed& args = ctx.args;
  analysis::EventFilter base = filter_from(args);
  analysis::EventFilter wf = base, rf = base;
  wf.op = posix::OpType::kWrite;
  rf.op = posix::OpType::kRead;
  // One fused scan feeds both per-op summaries; the hint union still
  // skips chunks containing neither op (a chunk without, say, writes
  // folds an empty write partial, and empty partials merge as no-ops).
  const ipm::ChunkHint hint =
      ipm::ChunkHint::union_of(analysis::hint_for(wf), analysis::hint_for(rf));
  auto merged =
      analysis::run_kernels(source, ctx.jobs(), hint, [&](std::size_t) {
        return analysis::KernelSet(analysis::SummarySink(wf),
                                   analysis::SummarySink(rf));
      });
  if (ctx.json()) {
    json::Writer w(ctx.os());
    w.begin_object();
    w.kv("schema_version", campaign::kOutputSchemaVersion);
    w.kv("command", "summary");
    w.key("write");
    campaign::write_summary(w, merged.get<0>().summary());
    w.key("read");
    campaign::write_summary(w, merged.get<1>().summary());
    w.end_object();
    ctx.os() << "\n";
    return 0;
  }
  print_summary_header(ctx.os());
  print_summary_row(ctx.os(), posix::OpType::kWrite, merged.get<0>().summary());
  print_summary_row(ctx.os(), posix::OpType::kRead, merged.get<1>().summary());
  return 0;
}

int cmd_histogram(CommandContext& ctx) {
  const ipm::TraceSource& source = *ctx.source;
  const Parsed& args = ctx.args;
  analysis::EventFilter filter = filter_from(args);
  bool log = args.has("log");
  auto bins = args.get_size("bins", 40);
  stats::BinScale scale =
      log ? stats::BinScale::kLog10 : stats::BinScale::kLinear;
  const ipm::ChunkHint hint = analysis::hint_for(filter);
  // ONE scan: StreamingHistogram folds range discovery and filling
  // together (bit-identical to the historical extrema+fill double scan
  // while the matched count fits its exact buffer).
  auto merged =
      analysis::run_kernels(source, ctx.jobs(), hint, [&](std::size_t) {
        return analysis::HistogramKernel(filter, {.scale = scale, .bins = bins});
      });
  std::optional<stats::Histogram> h = merged.histogram().materialize();
  if (!h) {
    ctx.es() << "eiotrace: no events match the filter\n";
    return 2;
  }
  print_histogram_chart(ctx.os(), *h, log);
  return 0;
}

int cmd_modes(CommandContext& ctx) {
  const ipm::TraceSource& source = *ctx.source;
  const Parsed& args = ctx.args;
  analysis::EventFilter filter = filter_from(args);
  const ipm::ChunkHint hint = analysis::hint_for(filter);
  auto merged =
      analysis::run_kernels(source, ctx.jobs(), hint, [&](std::size_t) {
        return analysis::SummarySink(filter);
      });
  const stats::StreamingSummary& s = merged.summary();
  if (s.empty()) {
    ctx.es() << "eiotrace: no events match the filter\n";
    return 2;
  }
  // KDE runs over the reservoir — every duration while the stream fits
  // (so results match the materialized path exactly), a uniform sample
  // beyond that.
  auto modes = stats::find_modes(
      s.reservoir().samples(),
      {.log_axis = args.has("log"),
       .bandwidth_scale = args.get_double("bandwidth", 0.5)});
  ctx.os() << "modes (" << s.count() << " events):\n";
  for (const auto& m : modes) {
    char line[120];
    std::snprintf(line, sizeof line, "  at %10.4f s   mass %5.1f%%\n",
                  m.location, m.mass * 100.0);
    ctx.os() << line;
  }
  auto matched = stats::harmonic_signature(modes);
  if (matched.size() > 1) {
    ctx.os() << "harmonic signature:";
    for (int h : matched) ctx.os() << " T/" << h;
    ctx.os() << "  -> intra-node stream serialization likely\n";
  }
  return 0;
}

int cmd_rates(CommandContext& ctx) {
  const ipm::TraceSource& source = *ctx.source;
  const Parsed& args = ctx.args;
  auto bins = args.get_size("bins", 100);
  analysis::EventFilter filter = filter_from(args);
  // The span comes from the chunk index, so the fold scan is the one
  // pass.
  const double span = source.time_span();
  const ipm::ChunkHint hint = analysis::hint_for(filter);
  auto merged =
      analysis::run_kernels(source, ctx.jobs(), hint, [&](std::size_t) {
        return analysis::RateKernel(filter, span, bins);
      });
  print_rate_chart(ctx.os(), merged.series());
  return 0;
}

int cmd_diagram(CommandContext& ctx) {
  analysis::TraceDiagram diagram(
      *ctx.source, {.max_rows = ctx.args.get_size("rows", 24),
                    .columns = ctx.args.get_size("cols", 72)});
  ctx.os() << diagram.render_text();
  return 0;
}

int cmd_diagnose(CommandContext& ctx) {
  const Parsed& args = ctx.args;
  analysis::DiagnoserOptions opt;
  opt.fair_share_rate =
      args.get_double("fair-share-mibs", 0.0) * static_cast<double>(MiB);
  opt.ost_count = static_cast<std::uint32_t>(args.get_size("ost-count", 0));
  // The default (admit-everything) hint: the metadata rule divides by
  // the span of every event, data call or not.
  auto findings =
      analysis::run_kernels(*ctx.source, ctx.jobs(), ipm::ChunkHint{},
                            [&](std::size_t) {
                              return analysis::DiagnoseKernel(opt);
                            })
          .finish();
  if (ctx.json()) {
    json::Writer w(ctx.os());
    w.begin_object();
    w.kv("schema_version", campaign::kOutputSchemaVersion);
    w.kv("command", "diagnose");
    w.key("findings").begin_array();
    for (const auto& f : findings) {
      w.begin_object();
      w.kv("code", analysis::finding_name(f.code));
      w.kv("severity", f.severity);
      w.kv("metric", f.metric);
      w.kv("message", std::string_view(f.message));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    ctx.os() << "\n";
    return 0;
  }
  if (findings.empty()) {
    ctx.os() << "no findings\n";
    return 0;
  }
  for (const auto& f : findings) {
    ctx.os() << "[" << analysis::finding_name(f.code) << " sev ";
    char sev[16];
    std::snprintf(sev, sizeof sev, "%.2f", f.severity);
    ctx.os() << sev << "] " << f.message << "\n";
  }
  return 0;
}

int cmd_monitor(CommandContext& ctx) {
  const Parsed& args = ctx.args;
  const monitor::HealthOptions opt = monitor_options_from(args);
  // Deliberately the default (admit-everything) chunk hint: fault
  // markers (OpType::kFault) must reach the detectors, so chunks can
  // never be pruned by op here.
  auto merged = analysis::run_kernels(
      *ctx.source, ctx.jobs(), ipm::ChunkHint{},
      [&](std::size_t chunk) { return monitor::HealthKernel(opt, chunk); });
  merged.finish();
  if (ctx.json()) {
    json::Writer w(ctx.os());
    w.begin_object();
    w.kv("schema_version", campaign::kOutputSchemaVersion);
    w.kv("command", "monitor");
    w.key("counts");
    campaign::write_monitor_counts(w, merged.counts());
    w.key("incidents");
    campaign::write_incidents(w, merged.incidents(), {});
    w.end_object();
    ctx.os() << "\n";
    // --incidents still writes its file; the confirmation chatter goes
    // to stderr so stdout stays one parseable document.
    return write_incident_log(args, merged.incidents(), {}, ctx.es(), ctx.es());
  }
  monitor::print_incident_table(ctx.os(), merged.incidents());
  monitor::print_counts(ctx.os(), merged.counts());
  return write_incident_log(args, merged.incidents(), {}, ctx.os(), ctx.es());
}

int cmd_phases(CommandContext& ctx) {
  const ipm::TraceSource& source = *ctx.source;
  const Parsed& args = ctx.args;
  analysis::EventFilter base = filter_from(args);
  const ipm::ChunkHint hint = analysis::hint_for(base);
  auto merged =
      analysis::run_kernels(source, ctx.jobs(), hint, [&](std::size_t) {
        return analysis::PhaseSummarySink(base);
      });
  const auto& by_phase = merged.by_phase();
  if (by_phase.empty()) {
    ctx.es() << "eiotrace: no events match the filter\n";
    return 2;
  }
  print_phase_table(ctx.os(), by_phase);
  return 0;
}

int cmd_analyze(CommandContext& ctx) {
  const ipm::TraceSource& source = *ctx.source;
  const Parsed& args = ctx.args;
  analysis::EventFilter base = filter_from(args);
  analysis::EventFilter wf = base, rf = base;
  wf.op = posix::OpType::kWrite;
  rf.op = posix::OpType::kRead;
  bool log = args.has("log");
  auto bins = args.get_size("bins", 40);
  auto rate_bins = args.get_size("rate-bins", 100);
  stats::BinScale scale =
      log ? stats::BinScale::kLog10 : stats::BinScale::kLinear;
  monitor::HealthOptions mopt = monitor_options_from(args);
  mopt.enabled = args.has("monitor");
  const double span = source.time_span();
  // The whole bundle — per-op summaries, per-phase table, duration
  // histogram, rate series, and (when --monitor) the health monitor —
  // as ONE KernelSet over ONE scan whose column mask and chunk hint
  // are the unions of its members'. A monitored pass keeps the default
  // hint: fault-marker chunks must not be pruned by op.
  const ipm::ChunkHint hint =
      mopt.enabled ? ipm::ChunkHint{}
                   : ipm::ChunkHint::union_of(
                         ipm::ChunkHint::union_of(analysis::hint_for(wf),
                                                  analysis::hint_for(rf)),
                         analysis::hint_for(base));
  auto merged =
      analysis::run_kernels(source, ctx.jobs(), hint, [&](std::size_t chunk) {
        return analysis::KernelSet(
            analysis::SummarySink(wf), analysis::SummarySink(rf),
            analysis::PhaseSummarySink(base),
            analysis::HistogramKernel(base, {.scale = scale, .bins = bins}),
            analysis::RateKernel(base, span, rate_bins),
            monitor::HealthKernel(mopt, chunk));
      });
  std::optional<stats::Histogram> h = merged.get<3>().histogram().materialize();
  if (!h) {
    ctx.es() << "eiotrace: no events match the filter\n";
    return 2;
  }
  if (ctx.json()) {
    if (mopt.enabled) merged.get<5>().finish();
    json::Writer w(ctx.os());
    w.begin_object();
    w.kv("schema_version", campaign::kOutputSchemaVersion);
    w.kv("command", "analyze");
    w.key("write");
    campaign::write_summary(w, merged.get<0>().summary());
    w.key("read");
    campaign::write_summary(w, merged.get<1>().summary());
    w.key("phases");
    campaign::write_phase_summaries(w, merged.get<2>().by_phase());
    w.key("histogram");
    campaign::write_histogram(w, *h);
    w.key("rates");
    campaign::write_rates(w, merged.get<4>().series());
    if (mopt.enabled) {
      auto& health = merged.get<5>();
      w.key("monitor").begin_object();
      w.key("counts");
      campaign::write_monitor_counts(w, health.counts());
      w.key("incidents");
      campaign::write_incidents(w, health.incidents(), {});
      w.end_object();
    }
    w.end_object();
    ctx.os() << "\n";
    if (mopt.enabled) {
      return write_incident_log(args, merged.get<5>().incidents(), {},
                                ctx.es(), ctx.es());
    }
    return 0;
  }
  ctx.os() << "== summary ==\n";
  print_summary_header(ctx.os());
  print_summary_row(ctx.os(), posix::OpType::kWrite, merged.get<0>().summary());
  print_summary_row(ctx.os(), posix::OpType::kRead, merged.get<1>().summary());
  ctx.os() << "\n== phases ==\n";
  print_phase_table(ctx.os(), merged.get<2>().by_phase());
  ctx.os() << "\n== histogram ==\n";
  print_histogram_chart(ctx.os(), *h, log);
  ctx.os() << "\n== rates ==\n";
  print_rate_chart(ctx.os(), merged.get<4>().series());
  if (mopt.enabled) {
    auto& health = merged.get<5>();
    health.finish();
    ctx.os() << "\n== monitor ==\n";
    monitor::print_incident_table(ctx.os(), health.incidents());
    monitor::print_counts(ctx.os(), health.counts());
    return write_incident_log(args, health.incidents(), {}, ctx.os(),
                              ctx.es());
  }
  return 0;
}

int cmd_compare(CommandContext& ctx) {
  const Parsed& args = ctx.args;
  if (args.positional().size() < 2) {
    ctx.es() << "eiotrace: compare needs two trace files\n";
    return 1;
  }
  ipm::FileTraceSource other(args.positional()[1]);
  analysis::EventFilter base = filter_from(args);
  analysis::EventFilter wf = base, rf = base;
  wf.op = posix::OpType::kWrite;
  rf.op = posix::OpType::kRead;
  // One fused scan per file collects both ops' durations; each sample
  // is then sorted once and serves both its median and the KS test.
  const ipm::ChunkHint hint =
      ipm::ChunkHint::union_of(analysis::hint_for(wf), analysis::hint_for(rf));
  auto samples = [&](const ipm::TraceSource& source) {
    return analysis::run_kernels(source, ctx.jobs(), hint, [&](std::size_t) {
      return analysis::KernelSet(analysis::DurationSamplesKernel(wf),
                                 analysis::DurationSamplesKernel(rf));
    });
  };
  ctx.os() << "  op      A-median    B-median     B/A        KS-D     p-value\n";
  auto a = samples(*ctx.source);
  auto b = samples(other);
  auto row = [&ctx](posix::OpType op, std::vector<double>& sa,
                    std::vector<double>& sb) {
    if (sa.empty() || sb.empty()) return;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    const stats::KsResult ks = stats::ks_two_sample_sorted(sa, sb);
    const double ma = stats::quantile_sorted(sa, 0.5);
    const double mb = stats::quantile_sorted(sb, 0.5);
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-6s %9.4f %11.4f %9.3f %11.4f %11.4f\n",
                  posix::op_name(op), ma, mb, ma > 0 ? mb / ma : 0.0,
                  ks.statistic, ks.p_value);
    ctx.os() << line;
  };
  row(posix::OpType::kWrite, a.get<0>().samples(), b.get<0>().samples());
  row(posix::OpType::kRead, a.get<1>().samples(), b.get<1>().samples());
  return 0;
}

int cmd_convert(CommandContext& ctx) {
  const ipm::FileTraceSource& source = *ctx.source;
  const Parsed& args = ctx.args;
  std::ostream& out = ctx.os();
  std::ostream& err = ctx.es();
  if (args.positional().size() < 2) {
    err << "eiotrace: convert needs an output path\n";
    return 1;
  }
  const std::string& target = args.positional()[1];
  std::string fmt = args.get("format", "");
  if (!fmt.empty() && args.has("tsv")) {
    err << "eiotrace: --format conflicts with --tsv\n";
    return 1;
  }
  if (fmt.empty()) fmt = args.has("tsv") ? "tsv" : "v3";
  if (fmt != "tsv" && fmt != "v3") {
    err << "eiotrace: unknown --format '" << fmt << "' (tsv|v3)\n";
    return 1;
  }
  if (std::string why = unwritable_reason(target, false); !why.empty()) {
    err << "eiotrace: cannot write '" << target << "': " << why << "\n";
    return 1;
  }

  // Both writers go through a temporary beside the target that is
  // renamed into place only once complete, so a decode that fails
  // mid-stream leaves no partial output.
  //
  // Converting a file to the format it is already in is a checked
  // no-op: decode every event once to prove the file is intact, then
  // copy the bytes verbatim — never a silent re-encode.
  if (fmt == format_label(source.format())) {
    std::uint64_t checked = 0;
    source.for_each_columns(ipm::kColAll,
                            [&checked](const ipm::ColumnBatch& b) {
                              checked += b.size();
                            });
    std::ifstream in(source.path(), std::ios::binary);
    if (!in.good()) {
      err << "eiotrace: cannot open for copying: " << source.path() << "\n";
      return 2;
    }
    ipm::PendingFile copy(target);
    copy.stream() << in.rdbuf();
    copy.commit();
    out << "input is already " << fmt << "; verified " << checked
        << " events and copied byte-for-byte to " << target << "\n";
    return 0;
  }

  // One streaming pass; the v3 footer index needs no up-front count.
  ipm::TraceFileSink writer(target,
                            fmt == "tsv" ? ipm::TraceFormat::kTsv
                                         : ipm::TraceFormat::kBinaryV3,
                            source.meta().experiment, source.meta().ranks);
  source.for_each_columns(ipm::kColAll, [&writer](const ipm::ColumnBatch& b) {
    writer.add_batch(b);
  });
  writer.finish();
  writer.commit();
  out << "wrote " << writer.events_written() << " events to " << target
      << "\n";
  return 0;
}

int cmd_patterns(CommandContext& ctx) {
  const ipm::TraceSource& source = *ctx.source;
  analysis::EventFilter data;  // read/write calls only
  auto patterns =
      analysis::run_kernels(source, ctx.jobs(), analysis::hint_for(data),
                            [](std::size_t) {
                              return analysis::PatternsKernel();
                            })
          .finish();
  ctx.os() << patterns.size() << " streams\n";
  // Aggregate per (file, op, pattern) so 10k-rank traces stay readable.
  std::map<std::string, std::size_t> counts;
  for (const auto& p : patterns) {
    std::ostringstream key;
    key << "file " << p.file << " " << posix::op_name(p.op) << " "
        << analysis::pattern_name(p.pattern)
        << (p.stripe_aligned ? "" : " unaligned");
    ++counts[key.str()];
  }
  for (const auto& [key, n] : counts) {
    ctx.os() << "  " << key << ": " << n << " streams\n";
  }
  for (const auto& h : analysis::derive_hints(patterns)) {
    ctx.os() << "hint: file " << h.file << " (" << posix::op_name(h.op)
             << "): " << h.rationale << "\n";
  }
  return 0;
}

}  // namespace eio::cli
