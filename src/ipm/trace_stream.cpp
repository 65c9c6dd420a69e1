#include "ipm/trace_stream.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "ipm/wire.h"

namespace eio::ipm {

namespace {

[[noreturn]] void malformed(std::string_view row) {
  throw std::runtime_error("malformed trace row: " + std::string(row));
}

/// Field separators within a row (write_tsv_event writes one tab).
[[nodiscard]] bool is_blank(char c) noexcept {
  return c == '\t' || c == ' ' || c == '\r';
}

}  // namespace

std::ifstream open_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot open for reading: " + path);
  return in;
}

TraceFormat sniff_format(std::istream& in) {
  char buf[8] = {};
  in.read(buf, sizeof buf);
  auto got = in.gcount();
  in.clear();
  in.seekg(-got, std::ios::cur);
  auto is = [&](const char (&magic)[8]) {
    return got >= 8 &&
           std::equal(std::begin(buf), std::end(buf), std::begin(magic));
  };
  if (is(wire::kMagicV3)) return TraceFormat::kBinaryV3;
  for (const auto& [magic, name] : {std::pair{&wire::kRetiredMagicV1, "v1"},
                                    std::pair{&wire::kRetiredMagicV2, "v2"}}) {
    if (is(*magic)) {
      throw std::runtime_error(std::string("retired binary trace format ") +
                               name + "; this build reads TSV and v3 traces");
    }
  }
  if (got >= 1 && buf[0] == '#') return TraceFormat::kTsv;
  throw std::runtime_error("not an ipm-io trace (unrecognized magic)");
}

TraceEvent parse_tsv_row(std::string_view row) {
  const char* p = row.data();
  const char* const end = p + row.size();
  auto field = [&p, end] {
    while (p != end && is_blank(*p)) ++p;
    const char* from = p;
    while (p != end && !is_blank(*p)) ++p;
    return std::string_view(from, static_cast<std::size_t>(p - from));
  };
  auto number = [&](auto& value) {
    const std::string_view f = field();
    const char* const last = f.data() + f.size();
    const auto [stop, ec] = std::from_chars(f.data(), last, value);
    if (ec != std::errc{} || stop != last) malformed(row);
  };
  TraceEvent e;
  number(e.start);
  number(e.duration);
  const std::optional<posix::OpType> op = posix::op_from_name(field());
  if (!op) malformed(row);
  e.op = *op;
  number(e.rank);
  number(e.file);
  number(e.offset);
  number(e.bytes);
  number(e.phase);
  if (!field().empty()) malformed(row);
  return e;
}

TraceMeta stream_tsv(std::istream& in, const EventVisitor& visit) {
  std::string line;
  if (!std::getline(in, line) || line.rfind(wire::kTsvMagic, 0) != 0) {
    throw std::runtime_error("not an ipm-io trace (missing magic)");
  }
  std::uint64_t offset = line.size() + 1;
  TraceMeta meta;
  {
    std::istringstream header(line);
    std::string field;
    while (std::getline(header, field, '\t')) {
      if (field.rfind("experiment=", 0) == 0) {
        meta.experiment = field.substr(11);
      } else if (field.rfind("ranks=", 0) == 0) {
        meta.ranks = static_cast<std::uint32_t>(std::stoul(field.substr(6)));
      } else if (field.rfind("events=", 0) == 0) {
        meta.declared_events = std::stoull(field.substr(7));
      }
    }
  }
  if (!std::getline(in, line)) {
    throw std::runtime_error("trace missing column header");
  }
  offset += line.size() + 1;
  std::uint64_t parsed = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      visit(parse_tsv_row(line), offset);
      ++parsed;
    }
    offset += line.size() + 1;
  }
  if (meta.declared_events && parsed != *meta.declared_events) {
    std::ostringstream os;
    os << "truncated trace: header declares " << *meta.declared_events
       << " events, found " << parsed;
    throw std::runtime_error(os.str());
  }
  return meta;
}

ColumnBatch read_chunk_tsv(std::istream& in, const ChunkMeta& chunk,
                           std::uint64_t byte_len, std::vector<char>& raw,
                           ColumnScratch& scratch, ColumnMask mask) {
  in.clear();
  in.seekg(static_cast<std::streamoff>(chunk.offset));
  raw.resize(byte_len);
  in.read(raw.data(), static_cast<std::streamsize>(byte_len));
  if (static_cast<std::uint64_t>(in.gcount()) != byte_len) {
    throw std::runtime_error("truncated TSV trace (chunk body)");
  }
  scratch.clear();
  for (std::string_view rest(raw.data(), raw.size()); !rest.empty();) {
    const std::size_t stop = std::min(rest.find('\n'), rest.size());
    if (stop > 0) scratch.push_back(parse_tsv_row(rest.substr(0, stop)));
    rest.remove_prefix(std::min(stop + 1, rest.size()));
  }
  if (scratch.size() != chunk.events) {
    throw std::runtime_error("corrupt TSV trace: chunk row count mismatch");
  }
  return scratch.view(mask);
}

void write_tsv_header(std::ostream& out, const std::string& experiment,
                      std::uint32_t ranks, std::uint64_t events) {
  out << "# ipm-io-trace v1\texperiment=" << experiment << "\tranks=" << ranks
      << "\tevents=" << events << "\n";
  out << "start\tduration\top\trank\tfile\toffset\tbytes\tphase\n";
}

void write_tsv_event(std::ostream& out, const TraceEvent& e) {
  // Two %.9g doubles (at most 16 characters each), a short op name,
  // five integers of at most 20 characters and eight separators. Each
  // field leaves room for its separator.
  char row[192];
  char* p = row;
  char* const end = row + sizeof row;
  auto field = [&p, end](auto value) {
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      p = std::to_chars(p, end - 1, value, std::chars_format::general,
                        kTsvPrecision).ptr;
    } else {
      p = std::to_chars(p, end - 1, value).ptr;
    }
    *p++ = '\t';
  };
  field(e.start);
  field(e.duration);
  const std::string_view op = posix::op_name(e.op);
  const auto room = static_cast<std::size_t>(end - 1 - p);
  p = std::copy_n(op.data(), std::min(op.size(), room), p);
  *p++ = '\t';
  field(e.rank);
  field(e.file);
  field(e.offset);
  field(e.bytes);
  field(e.phase);
  p[-1] = '\n';
  out.write(row, p - row);
}

std::uint64_t chunk_byte_length(const TraceIndex& index, std::size_t i) {
  EIO_CHECK_MSG(i < index.chunks.size() && index.footer_offset != 0,
                "chunk_byte_length needs an indexed chunk");
  std::uint64_t end = i + 1 < index.chunks.size() ? index.chunks[i + 1].offset
                                                  : index.footer_offset;
  return end - index.chunks[i].offset;
}

}  // namespace eio::ipm
