// Materializing wrappers over the streaming kernels in trace_stream.h.
// All parsing, validation, and encoding lives there; a Trace is just
// what you get when the visitor appends to a vector.
#include "ipm/trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "common/check.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"

namespace eio::ipm {

Seconds Trace::span() const noexcept {
  Seconds latest = 0.0;
  for (const TraceEvent& e : events_) latest = std::max(latest, e.end());
  return latest;
}

void Trace::merge(const Trace& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  ranks_ = std::max(ranks_, other.ranks_);
  if (experiment_.empty()) experiment_ = other.experiment_;
}

void Trace::sort_by_start() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start < b.start;
                   });
}

namespace {

Trace materialize(std::istream& in,
                  TraceMeta (*kernel)(std::istream&, const EventVisitor&)) {
  Trace trace;
  TraceMeta meta =
      kernel(in, [&trace](const TraceEvent& e) { trace.add(e); });
  trace.set_experiment(meta.experiment);
  trace.set_ranks(meta.ranks);
  return trace;
}

}  // namespace

void Trace::write(std::ostream& out) const {
  write_tsv_header(out, experiment_, ranks_, events_.size());
  for (const TraceEvent& e : events_) write_tsv_event(out, e);
}

Trace Trace::read(std::istream& in) { return materialize(in, stream_tsv); }

void Trace::write_binary_v3(std::ostream& out) const {
  TraceWriterV3 writer(out, experiment_, ranks_);
  for (const TraceEvent& e : events_) writer.add(e);
  writer.finish();
}

Trace Trace::read_binary(std::istream& in) {
  if (sniff_format(in) != TraceFormat::kBinaryV3) {
    throw std::runtime_error("not a binary ipm-io trace (missing magic)");
  }
  return materialize(in, stream_binary_v3);
}

void Trace::save(const std::string& path) const {
  std::ofstream out(path);
  EIO_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write(out);
  EIO_CHECK_MSG(out.good(), "write failed: " << path);
}

void Trace::save_binary_v3(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  EIO_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write_binary_v3(out);
  EIO_CHECK_MSG(out.good(), "write failed: " << path);
}

Trace Trace::load(const std::string& path) {
  std::ifstream in = open_trace(path);
  return sniff_format(in) == TraceFormat::kTsv
             ? materialize(in, stream_tsv)
             : materialize(in, stream_binary_v3);
}

}  // namespace eio::ipm
