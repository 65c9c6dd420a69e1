// Observability exporters: Chrome trace-event JSON, flat metrics
// reports, and the --obs-summary table.
//
// The Chrome trace loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing: one process, one track per registry thread id,
// balanced B/E duration events reconstructed from the recorded span
// intervals. The metrics report has a deliberately layered layout:
//
//   {
//     "schema_version": 1,
//     "generated_at": "...",          <- wall clock, varies
//     "build": { ... },               <- configure-time provenance
//     "counters": { name: value },    <- deterministic: byte-identical
//                                        for any --jobs value
//     "gauges": { name: value },
//     "spans": { name: {count, total_s, mean_s, p50_s, p95_s, ...} }
//   }
//
// so consumers diffing two runs can compare the counter section
// exactly while treating timings as distributions.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace eio::obs {

/// Version of the metrics-report layout (also stamped into the bench
/// JSON files by bench/bench_common.h).
inline constexpr int kMetricsSchemaVersion = 1;

/// Write `spans` as Chrome trace-event JSON. Spans from one thread are
/// emitted as properly nested, balanced B/E pairs in non-decreasing
/// timestamp order (ties broken by nesting depth, so Perfetto never
/// sees an E before its B). `instants` become instant events (ph:"i")
/// — monitor incidents and other point-in-time marks, rendered by
/// Perfetto as timeline ticks.
void write_chrome_trace(std::ostream& out, const std::vector<NamedSpan>& spans,
                        const std::vector<NamedInstant>& instants);

/// Convenience: export the registry's current spans and instants.
void write_chrome_trace(std::ostream& out);

/// The layered metrics report described above.
void write_metrics_json(std::ostream& out, const Snapshot& snap);

/// Flat TSV: `kind<TAB>name<TAB>value...` rows (counters, gauges, then
/// span statistics), for spreadsheet/awk consumers.
void write_metrics_tsv(std::ostream& out, const Snapshot& snap);

/// Human-readable end-of-run table (the --obs-summary output).
void print_summary(std::ostream& out, const Snapshot& snap);

/// Pick JSON or TSV from the path suffix (".tsv" selects TSV) and
/// write the file. Throws std::runtime_error when the file cannot be
/// written.
void write_metrics_file(const std::string& path, const Snapshot& snap);

/// Write the registry's spans as a Chrome trace file. Throws
/// std::runtime_error when the file cannot be written.
void write_chrome_trace_file(const std::string& path);

}  // namespace eio::obs
