// Wire-format primitives of the binary trace format (v3).
//
// The low-level vocabulary: little-endian fixed-width scalars, LEB128
// varints, zigzag for signed fields, a bounds-checked in-memory cursor
// for hot decode paths, and the chunk container — header, chunk-meta
// records, footer index and trailer. The columnar codec in
// trace_v3.cpp builds on it. Everything here is an internal detail of
// eio::ipm's serialization layer — analysis code should stay on the
// public surfaces in trace_stream.h / trace_v3.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ipm/columns.h"
#include "ipm/trace_event.h"
#include "ipm/trace_stream.h"

namespace eio::ipm::wire {

// The format magics. A v3 file opens with an 8-byte magic and ends
// with an 8-byte trailer magic preceded by the u64 footer offset. The
// retired binary formats' magics are kept only so sniff_format can
// name them when it rejects such a file.
inline constexpr char kTsvMagic[] = "# ipm-io-trace";
inline constexpr char kMagicV3[8] = {'I', 'P', 'M', 'I', 'O', 'B', '3', '\n'};
inline constexpr char kTrailerV3[8] = {'I', 'P', 'M', '3', 'I', 'D', 'X', '\n'};
/// How check_magic names the format when a v3 magic is missing.
inline constexpr char kV3Name[] = "v3 binary ipm-io trace";
inline constexpr char kRetiredMagicV1[8] = {'I', 'P', 'M', 'I', 'O', 'B', '1', '\n'};
inline constexpr char kRetiredMagicV2[8] = {'I', 'P', 'M', 'I', 'O', 'B', '2', '\n'};

// Sanity caps rejecting absurd header fields before they turn into
// multi-gigabyte allocations on corrupt input.
inline constexpr std::uint64_t kMaxNameLen = 1 << 20;
inline constexpr std::uint64_t kMaxChunks = std::uint64_t{1} << 32;

inline constexpr std::uint8_t kChunkTag = 0x01;
inline constexpr std::uint8_t kFooterTag = 0x00;

template <typename T>
void put(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T get(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in.good()) throw std::runtime_error("truncated binary trace");
  return value;
}

/// LEB128 unsigned varint — small integers (ranks, byte counts, op
/// codes) take 1-3 bytes instead of 8.
inline void put_varint(std::ostream& out, std::uint64_t value) {
  while (value >= 0x80) {
    put<std::uint8_t>(out, static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  put<std::uint8_t>(out, static_cast<std::uint8_t>(value));
}

inline std::uint64_t get_varint(std::istream& in) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    auto byte = get<std::uint8_t>(in);
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift >= 64) throw std::runtime_error("corrupt varint in binary trace");
  }
}

/// Varint append into a byte buffer (the columnar encoder's sink).
inline void append_varint(std::vector<char>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(value) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(value)));
}

/// Zigzag for signed fields (phase labels, column deltas).
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Bounds-checked cursor over an in-memory image — decode hot paths
/// work on bytes already read, paying zero istream calls.
struct ByteReader {
  const char* p;
  const char* end;

  [[noreturn]] static void truncated() {
    throw std::runtime_error("truncated binary trace");
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end - p);
  }

  std::uint8_t u8() {
    if (p == end) truncated();
    return static_cast<std::uint8_t>(*p++);
  }

  std::uint64_t varint() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      std::uint8_t byte = u8();
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
      if (shift >= 64) {
        throw std::runtime_error("corrupt varint in binary trace");
      }
    }
  }

  double f64() {
    if (end - p < static_cast<std::ptrdiff_t>(sizeof(double))) truncated();
    double value;
    std::memcpy(&value, p, sizeof value);
    p += sizeof value;
    return value;
  }

  /// A sized sub-span of raw bytes (column payloads).
  const char* bytes(std::size_t n) {
    if (remaining() < n) truncated();
    const char* at = p;
    p += n;
    return at;
  }
};

inline std::string get_name(std::istream& in) {
  auto len = get_varint(in);
  if (len > kMaxNameLen) {
    throw std::runtime_error("corrupt binary trace: absurd experiment name");
  }
  std::string name(len, '\0');
  in.read(name.data(), static_cast<std::streamsize>(len));
  if (!in.good() && len > 0) {
    throw std::runtime_error("truncated binary trace (experiment name)");
  }
  return name;
}

inline void check_magic(std::istream& in, const char (&magic)[8],
                        const char* what) {
  char buf[8];
  in.read(buf, sizeof buf);
  if (!in.good() || !std::equal(std::begin(buf), std::end(buf), magic)) {
    throw std::runtime_error(std::string("not a ") + what +
                             " (missing magic)");
  }
}

/// Fold one row into a chunk's index metadata.
inline void fold_into(ChunkMeta& meta, const TraceEvent& e) {
  const double end = e.start + e.duration;
  if (meta.events == 0) {
    meta.rank_lo = meta.rank_hi = e.rank;
    meta.phase_lo = meta.phase_hi = e.phase;
    meta.t_lo = e.start;
    meta.t_hi = end;
  } else {
    meta.rank_lo = std::min(meta.rank_lo, e.rank);
    meta.rank_hi = std::max(meta.rank_hi, e.rank);
    meta.phase_lo = std::min(meta.phase_lo, e.phase);
    meta.phase_hi = std::max(meta.phase_hi, e.phase);
    meta.t_lo = std::min(meta.t_lo, e.start);
    meta.t_hi = std::max(meta.t_hi, end);
  }
  ++meta.events;
  meta.op_mask |= 1u << static_cast<unsigned>(e.op);
  if (e.op == posix::OpType::kRead || e.op == posix::OpType::kWrite) {
    meta.data_bytes += e.bytes;
  }
}

inline void put_chunk_meta(std::ostream& out, const ChunkMeta& c) {
  put_varint(out, c.offset);
  put_varint(out, c.events);
  put_varint(out, c.op_mask);
  put_varint(out, c.rank_lo);
  put_varint(out, c.rank_hi);
  put_varint(out, zigzag(c.phase_lo));
  put_varint(out, zigzag(c.phase_hi));
  put<double>(out, c.t_lo);
  put<double>(out, c.t_hi);
  put_varint(out, c.data_bytes);
}

inline ChunkMeta get_chunk_meta(std::istream& in) {
  ChunkMeta c;
  c.offset = get_varint(in);
  c.events = get_varint(in);
  c.op_mask = static_cast<std::uint32_t>(get_varint(in));
  c.rank_lo = static_cast<RankId>(get_varint(in));
  c.rank_hi = static_cast<RankId>(get_varint(in));
  c.phase_lo = static_cast<std::int32_t>(unzigzag(get_varint(in)));
  c.phase_hi = static_cast<std::int32_t>(unzigzag(get_varint(in)));
  c.t_lo = get<double>(in);
  c.t_hi = get<double>(in);
  c.data_bytes = get_varint(in);
  return c;
}

/// Parse a footer body (after its tag byte): chunk metas + total.
inline std::pair<std::vector<ChunkMeta>, std::uint64_t> get_footer(
    std::istream& in) {
  auto chunk_count = get_varint(in);
  if (chunk_count > kMaxChunks) {
    throw std::runtime_error("corrupt trace: absurd chunk count");
  }
  std::vector<ChunkMeta> chunks;
  chunks.reserve(chunk_count);
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    chunks.push_back(get_chunk_meta(in));
  }
  auto total = get_varint(in);
  std::uint64_t sum = 0;
  for (const ChunkMeta& c : chunks) sum += c.events;
  if (sum != total) {
    throw std::runtime_error("corrupt trace: footer event counts disagree");
  }
  return {std::move(chunks), total};
}

/// Write the file header (magic + ranks + name).
inline void write_header(std::ostream& out, std::uint32_t ranks,
                         const std::string& experiment) {
  out.write(kMagicV3, 8);
  put_varint(out, ranks);
  put_varint(out, experiment.size());
  out.write(experiment.data(),
            static_cast<std::streamsize>(experiment.size()));
}

/// Read the file header back.
inline TraceMeta get_header(std::istream& in) {
  check_magic(in, kMagicV3, kV3Name);
  TraceMeta meta;
  meta.ranks = static_cast<std::uint32_t>(get_varint(in));
  meta.experiment = get_name(in);
  return meta;
}

/// Write the footer index + 16-byte trailer: footer tag, chunk metas,
/// total, then the fixed (footer offset + trailer magic) record a
/// seekable reader jumps to.
inline void write_footer(std::ostream& out,
                         const std::vector<ChunkMeta>& chunks,
                         std::uint64_t total_events) {
  auto footer_offset = static_cast<std::uint64_t>(out.tellp());
  put<std::uint8_t>(out, kFooterTag);
  put_varint(out, chunks.size());
  for (const ChunkMeta& c : chunks) put_chunk_meta(out, c);
  put_varint(out, total_events);
  put<std::uint64_t>(out, footer_offset);
  out.write(kTrailerV3, 8);
}

/// Read the footer index of a v3 trace from a seekable stream: validate
/// the trailer magic and footer bounds, that the footer body ends where
/// the trailer begins, and that the first chunk starts where the header
/// ends with every later offset in-bounds and strictly increasing (the
/// sized chunk reads derive each chunk's byte length from the next
/// offset, so out-of-order entries would alias chunk extents). Chunks
/// thus tile the file between header and footer, and decoding each
/// one exactly reads every byte of it.
inline TraceIndex read_index(std::istream& in) {
  TraceIndex index;
  index.meta = get_header(in);
  auto header_end = static_cast<std::uint64_t>(in.tellg());

  in.seekg(0, std::ios::end);
  auto file_size = static_cast<std::uint64_t>(in.tellg());
  if (file_size < header_end + 16) {
    throw std::runtime_error("truncated trace (no trailer)");
  }
  in.seekg(static_cast<std::streamoff>(file_size - 16));
  auto footer_offset = get<std::uint64_t>(in);
  check_magic(in, kTrailerV3, kV3Name);
  if (footer_offset < header_end || footer_offset >= file_size - 16) {
    throw std::runtime_error("corrupt trace: footer offset out of bounds");
  }
  in.seekg(static_cast<std::streamoff>(footer_offset));
  if (get<std::uint8_t>(in) != kFooterTag) {
    throw std::runtime_error("corrupt trace: footer tag mismatch");
  }
  auto [chunks, total] = get_footer(in);
  if (static_cast<std::uint64_t>(in.tellg()) != file_size - 16) {
    throw std::runtime_error("corrupt trace: footer does not end at trailer");
  }
  index.chunks = std::move(chunks);
  index.meta.declared_events = total;
  index.footer_offset = footer_offset;
  const std::uint64_t first =
      index.chunks.empty() ? footer_offset : index.chunks.front().offset;
  if (first != header_end) {
    throw std::runtime_error("corrupt trace: chunks do not follow header");
  }
  std::uint64_t prev = header_end;
  for (const ChunkMeta& c : index.chunks) {
    if (c.offset < prev || c.offset >= footer_offset) {
      throw std::runtime_error("corrupt trace: chunk offset out of bounds");
    }
    prev = c.offset + 1;
  }
  return index;
}

}  // namespace eio::ipm::wire
