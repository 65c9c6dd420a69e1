#include "ipm/trace_v3.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "ipm/wire.h"
#include "obs/registry.h"

namespace eio::ipm {

namespace {

constexpr int kNumCols = 8;

// Base column encodings (low 7 bits of the column's `enc` byte).
constexpr std::uint8_t kEncRawF64 = 0;
constexpr std::uint8_t kEncVarint = 1;
constexpr std::uint8_t kEncDelta = 2;

constexpr std::uint8_t kRleFlag = 0x80;

// Fixed column order and, per column, the one encoding the writer
// emits and the reader accepts. A corrupt encoding byte therefore
// throws instead of silently mis-decoding.
constexpr std::uint8_t kColEnc[kNumCols] = {
    kEncRawF64,  // start
    kEncRawF64,  // duration
    kEncVarint,  // op
    kEncDelta,   // rank
    kEncDelta,   // file
    kEncDelta,   // offset
    kEncDelta,   // bytes
    kEncDelta,   // phase (zigzagged before delta)
};
constexpr ColumnMask kColBit[kNumCols] = {
    kColStart, kColDuration, kColOp,    kColRank,
    kColFile,  kColOffset,   kColBytes, kColPhase,
};

// Caps on self-declared sizes in chunk records, so corrupt input
// fails with runtime_error instead of a multi-gigabyte allocation. A
// varint value is at most 10 bytes; RLE adds at most one control byte
// per 128 literals.
constexpr std::uint64_t kMaxChunkEvents = std::uint64_t{1} << 28;
[[nodiscard]] std::uint64_t max_col_bytes(std::uint64_t count) {
  return count * 16 + 64;
}

struct ColHeader {
  std::uint8_t enc = 0;  ///< base encoding (flag bit stripped)
  bool rle = false;
  std::uint64_t enc_len = 0;  ///< payload bytes as stored
  std::uint64_t raw_len = 0;  ///< payload bytes after decompression
};

void check_col_header(int col, const ColHeader& h, std::uint64_t count) {
  if (h.enc != kColEnc[col]) {
    throw std::runtime_error("corrupt v3 trace: unexpected column encoding");
  }
  if (h.enc_len > max_col_bytes(count) || h.raw_len > max_col_bytes(count)) {
    throw std::runtime_error("corrupt v3 trace: absurd column length");
  }
}

void decode_f64_column(const char* raw, std::uint64_t raw_len,
                       std::uint64_t count, std::vector<double>& out) {
  if (raw_len != count * sizeof(double)) {
    throw std::runtime_error("corrupt v3 trace: f64 column size mismatch");
  }
  out.resize(count);
  if (count > 0) std::memcpy(out.data(), raw, raw_len);
}

/// The continuation bits of eight bytes loaded as one little-endian
/// word (as the raw f64 columns assume): byte k is bits [8k, 8k + 8).
constexpr std::uint64_t kHighBits = 0x8080808080808080ull;
static_assert(std::endian::native == std::endian::little);

/// The value of a varint of up to 8 bytes held in the low bytes of `v`
/// (nothing above its last byte): its 7-bit groups packed pairwise
/// into 14 bits, then 28, then 56.
[[nodiscard]] inline std::uint64_t pack_groups(std::uint64_t v) noexcept {
  v = (v & 0x007f007f007f007full) | ((v & 0x7f007f007f007f00ull) >> 1);
  v = (v & 0x00003fff00003fffull) | ((v & 0x3fff00003fff0000ull) >> 2);
  return (v & 0x000000000fffffffull) | ((v & 0x0fffffff00000000ull) >> 4);
}

/// Decode `count` varints covering exactly [raw, raw+raw_len), with
/// optional delta accumulation, calling emit(i, value) per element.
///
/// Where it pays, one unchecked 8-byte load decodes every varint that
/// ends inside it (while a longest, 10-byte, varint still fits): eight
/// one-byte values at once when no continuation bit is set, otherwise
/// each value found at the word's terminating bytes, with no branch
/// per byte. It pays on columns of (nearly) only one-byte values (op,
/// bytes, phase) and on mixed lengths a byte loop mispredicts (offset
/// deltas); on one-byte values with sparse longer ones (rank, file
/// deltas) the byte loop's branch predicts well and a word mixing both
/// would cost more, so those keep it. A varint longer than 8 bytes, and
/// the last few bytes, take the checked reader, so corrupt and
/// truncated columns throw exactly what they always did.
template <typename Emit>
void decode_varint_column(const char* raw, std::uint64_t raw_len,
                          std::uint64_t count, bool delta, Emit&& emit) {
  constexpr std::size_t kMaxVarintBytes = 10;
  wire::ByteReader r{raw, raw + raw_len};
  std::uint64_t prev = 0;
  auto take = [&](std::uint64_t i, std::uint64_t v) {
    if (delta) {
      // Wraparound-safe: the writer stored zigzag(cur - prev mod 2^64).
      v = prev + static_cast<std::uint64_t>(wire::unzigzag(v));
      prev = v;
    }
    emit(i, v);
  };
  std::uint64_t i = 0;
  // Continuation bytes: at most 1 in 32 bytes, or at least 1 in 4.
  const std::uint64_t continued = raw_len > count ? raw_len - count : 0;
  const bool by_word = continued * 32 <= raw_len || continued * 4 >= raw_len;
  // At most eight varints end in one word, so eight must remain.
  while (by_word && count - i >= 8 && r.remaining() >= kMaxVarintBytes) {
    std::uint64_t word;
    std::memcpy(&word, r.p, sizeof word);
    std::uint64_t stops = ~word & kHighBits;  // each varint's last byte
    if (stops == kHighBits) {
      for (int k = 0; k < 8; ++k) take(i + k, (word >> (8 * k)) & 0x7f);
      i += 8;
      r.p += 8;
      continue;
    }
    if (stops == 0) {
      take(i++, r.varint());  // 9 or 10 bytes, or overlong (throws)
      continue;
    }
    int from = 0;  // first bit of the next varint in the word
    do {
      const int end = std::countr_zero(stops) + 1;
      take(i++, pack_groups((word >> from) & (~0ull >> (64 - (end - from)))));
      from = end;
      stops &= stops - 1;
    } while (stops != 0);
    r.p += from / 8;
  }
  for (; i < count; ++i) take(i, r.varint());
  if (r.p != r.end) {
    throw std::runtime_error("corrupt v3 trace: column length mismatch");
  }
}

/// Decompress (when flagged) and parse one column payload into its
/// typed scratch vector. `payload` spans enc_len stored bytes.
void decode_column(int col, const ColHeader& h, const char* payload,
                   std::uint64_t count, ColumnScratch& s) {
  const char* raw = payload;
  std::uint64_t raw_len = h.enc_len;
  if (h.rle) {
    rle_decompress({payload, static_cast<std::size_t>(h.enc_len)},
                   static_cast<std::size_t>(h.raw_len), s.blob);
    raw = s.blob.data();
    raw_len = h.raw_len;
  }
  switch (col) {
    case 0:
      decode_f64_column(raw, raw_len, count, s.start);
      break;
    case 1:
      decode_f64_column(raw, raw_len, count, s.duration);
      break;
    case 2:
      s.op.resize(count);
      decode_varint_column(raw, raw_len, count, false,
                           [&s](std::uint64_t i, std::uint64_t v) {
        if (v > static_cast<std::uint64_t>(posix::OpType::kFault)) {
          throw std::runtime_error("corrupt v3 trace: bad op code");
        }
        s.op[i] = static_cast<std::uint8_t>(v);
      });
      break;
    case 3:
      s.rank.resize(count);
      decode_varint_column(raw, raw_len, count, true,
                           [&s](std::uint64_t i, std::uint64_t v) {
        s.rank[i] = static_cast<RankId>(v);
      });
      break;
    case 4:
      s.file.resize(count);
      decode_varint_column(raw, raw_len, count, true,
                           [&s](std::uint64_t i, std::uint64_t v) {
        s.file[i] = v;
      });
      break;
    case 5:
      s.offset.resize(count);
      decode_varint_column(raw, raw_len, count, true,
                           [&s](std::uint64_t i, std::uint64_t v) {
        s.offset[i] = v;
      });
      break;
    case 6:
      s.bytes.resize(count);
      decode_varint_column(raw, raw_len, count, true,
                           [&s](std::uint64_t i, std::uint64_t v) {
        s.bytes[i] = v;
      });
      break;
    case 7:
      s.phase.resize(count);
      decode_varint_column(raw, raw_len, count, true,
                           [&s](std::uint64_t i, std::uint64_t v) {
        s.phase[i] = static_cast<std::int32_t>(wire::unzigzag(v));
      });
      break;
  }
}

/// Assemble the span view over freshly decoded scratch columns.
[[nodiscard]] ColumnBatch batch_from_scratch(const ColumnScratch& s,
                                             ColumnMask mask,
                                             std::uint64_t count) {
  ColumnBatch batch = s.view(mask);
  batch.events = static_cast<std::size_t>(count);
  return batch;
}

}  // namespace

void rle_compress(std::span<const char> src, std::vector<char>& out) {
  out.clear();
  const std::size_t n = src.size();
  std::size_t lit_start = 0;
  auto flush_literals = [&](std::size_t end) {
    std::size_t s = lit_start;
    while (s < end) {
      std::size_t run = std::min<std::size_t>(128, end - s);
      out.push_back(static_cast<char>(run - 1));
      out.insert(out.end(), src.begin() + static_cast<std::ptrdiff_t>(s),
                 src.begin() + static_cast<std::ptrdiff_t>(s + run));
      s += run;
    }
  };
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && src[j] == src[i]) ++j;
    std::size_t run = j - i;
    if (run >= 3) {
      flush_literals(i);
      while (run >= 3) {
        std::size_t take = std::min<std::size_t>(130, run);
        out.push_back(static_cast<char>(kRleFlag | (take - 3)));
        out.push_back(src[i]);
        run -= take;
      }
      lit_start = j - run;  // a 1-2 byte remainder joins the literals
    }
    i = j;
  }
  flush_literals(n);
}

void rle_decompress(std::span<const char> src, std::size_t raw_len,
                    std::vector<char>& out) {
  // Sized once, with kSlack spare bytes past the end: a block of at
  // most kSlack bytes is one fixed-size copy or fill (a later block or
  // the final resize drops what it wrote past its own end), a longer
  // one an exact memcpy or memset.
  constexpr std::size_t kSlack = 16;
  out.resize(raw_len + kSlack);
  char* dst = out.data();
  const char* from = src.data();
  std::size_t filled = 0;
  std::size_t i = 0;
  const std::size_t n = src.size();
  while (i < n) {
    auto c = static_cast<std::uint8_t>(from[i++]);
    if (c < 0x80) {
      std::size_t run = std::size_t{c} + 1;
      if (i + run > n || filled + run > raw_len) {
        throw std::runtime_error("corrupt v3 trace: bad RLE block");
      }
      if (run <= kSlack && n - i >= kSlack) {
        std::memcpy(dst + filled, from + i, kSlack);
      } else {
        std::memcpy(dst + filled, from + i, run);
      }
      filled += run;
      i += run;
    } else {
      std::size_t rep = std::size_t{c} - 0x80 + 3;
      if (i >= n || filled + rep > raw_len) {
        throw std::runtime_error("corrupt v3 trace: bad RLE block");
      }
      const auto byte = static_cast<unsigned char>(from[i++]);
      if (rep <= kSlack) {
        std::memset(dst + filled, byte, kSlack);
      } else {
        std::memset(dst + filled, byte, rep);
      }
      filled += rep;
    }
  }
  if (filled != raw_len) {
    throw std::runtime_error("corrupt v3 trace: RLE size mismatch");
  }
  out.resize(raw_len);
}

TraceWriterV3::TraceWriterV3(std::ostream& out, std::string experiment,
                             std::uint32_t ranks)
    : TraceWriterV3(out, std::move(experiment), ranks, Options{}) {}

TraceWriterV3::TraceWriterV3(std::ostream& out, std::string experiment,
                             std::uint32_t ranks, Options options)
    : out_(&out), options_(options) {
  if (options_.chunk_events == 0) options_.chunk_events = 1;
  wire::write_header(out, ranks, experiment);
}

TraceWriterV3::~TraceWriterV3() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; callers wanting the error should
    // call finish() explicitly.
  }
}

void TraceWriterV3::add(const TraceEvent& event) {
  pending_.push_back(event);
  ++total_events_;
  if (pending_.size() >= options_.chunk_events) flush_chunk();
}

void TraceWriterV3::add_batch(const ColumnBatch& batch) {
  const std::size_t chunk = options_.chunk_events;
  std::size_t done = 0;
  while (done < batch.size()) {
    const std::size_t take =
        std::min(chunk - pending_.size(), batch.size() - done);
    if (take == chunk) {
      write_chunk(batch.slice(done, take));
    } else {
      for (std::size_t i = done; i < done + take; ++i) {
        pending_.push_back(batch.event_at(i));
      }
      if (pending_.size() == chunk) flush_chunk();
    }
    done += take;
  }
  total_events_ += batch.size();
}

void TraceWriterV3::write_column(std::uint8_t base_enc) {
  if (options_.compress) {
    rle_compress(col_buf_, rle_buf_);
    if (rle_buf_.size() < col_buf_.size()) {
      wire::put<std::uint8_t>(*out_, base_enc | kRleFlag);
      wire::put_varint(*out_, rle_buf_.size());
      wire::put_varint(*out_, col_buf_.size());
      out_->write(rle_buf_.data(),
                  static_cast<std::streamsize>(rle_buf_.size()));
      return;
    }
  }
  wire::put<std::uint8_t>(*out_, base_enc);
  wire::put_varint(*out_, col_buf_.size());
  out_->write(col_buf_.data(), static_cast<std::streamsize>(col_buf_.size()));
}

void TraceWriterV3::flush_chunk() {
  if (pending_.size() == 0) return;
  write_chunk(pending_.view());
  pending_.clear();
}

void TraceWriterV3::write_chunk(const ColumnBatch& rows) {
  OBS_SPAN("v3.flush_chunk");
  OBS_COUNTER_ADD("v3.chunks_written", 1);
  OBS_COUNTER_ADD("v3.events_written", rows.size());
  const std::size_t n = rows.size();
  ChunkMeta meta;
  meta.offset = static_cast<std::uint64_t>(out_->tellp());
  for (std::size_t i = 0; i < n; ++i) wire::fold_into(meta, rows.event_at(i));
  wire::put<std::uint8_t>(*out_, wire::kChunkTag);
  wire::put_varint(*out_, n);

  // start, duration: raw little-endian f64.
  for (std::span<const double> column : {rows.start, rows.duration}) {
    col_buf_.resize(n * sizeof(double));
    if (n > 0) std::memcpy(col_buf_.data(), column.data(), n * sizeof(double));
    write_column(kEncRawF64);
  }

  // op: plain varint.
  col_buf_.clear();
  for (std::uint8_t op : rows.op) wire::append_varint(col_buf_, op);
  write_column(kEncVarint);

  // rank, file, offset, bytes, zigzag(phase): delta+zigzag varint.
  auto write_delta = [this, n](auto&& value_of) {
    col_buf_.clear();
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t v = value_of(i);
      wire::append_varint(
          col_buf_, wire::zigzag(static_cast<std::int64_t>(v - prev)));
      prev = v;
    }
    write_column(kEncDelta);
  };
  write_delta([&rows](std::size_t i) { return std::uint64_t{rows.rank[i]}; });
  write_delta([&rows](std::size_t i) { return std::uint64_t{rows.file[i]}; });
  write_delta([&rows](std::size_t i) { return std::uint64_t{rows.offset[i]}; });
  write_delta([&rows](std::size_t i) { return std::uint64_t{rows.bytes[i]}; });
  write_delta([&rows](std::size_t i) { return wire::zigzag(rows.phase[i]); });

  chunks_.push_back(meta);
}

void TraceWriterV3::finish() {
  if (finished_) return;
  finished_ = true;
  flush_chunk();
  wire::write_footer(*out_, chunks_, total_events_);
  if (!out_->good()) throw std::runtime_error("v3 trace write failed");
}

TraceIndex read_index_v3(std::istream& in) {
  return wire::read_index(in);
}

ColumnBatch decode_chunk_v3(const char* data, std::size_t len,
                            const ChunkMeta& chunk, ColumnScratch& scratch,
                            ColumnMask mask) {
  // The v3 decode chokepoint shared by the serial and parallel scan
  // paths — counters are work-proportional, identical at any
  // --jobs value.
  OBS_SPAN("v3.decode_chunk");
  OBS_COUNTER_ADD("v3.chunks_decoded", 1);
  OBS_COUNTER_ADD("v3.events_decoded", chunk.events);
  OBS_COUNTER_ADD("v3.bytes_decoded", len);
  wire::ByteReader r{data, data + len};
  if (r.u8() != wire::kChunkTag) {
    throw std::runtime_error("corrupt v3 trace: expected chunk tag");
  }
  auto count = r.varint();
  if (count != chunk.events) {
    throw std::runtime_error("corrupt v3 trace: chunk count mismatch");
  }
  if (count > kMaxChunkEvents) {
    throw std::runtime_error("corrupt v3 trace: absurd chunk event count");
  }
  for (int col = 0; col < kNumCols; ++col) {
    ColHeader h;
    auto enc = r.u8();
    h.rle = (enc & kRleFlag) != 0;
    h.enc = enc & static_cast<std::uint8_t>(~kRleFlag);
    h.enc_len = r.varint();
    h.raw_len = h.rle ? r.varint() : h.enc_len;
    check_col_header(col, h, count);
    const char* payload = r.bytes(static_cast<std::size_t>(h.enc_len));
    if (mask & kColBit[col]) decode_column(col, h, payload, count, scratch);
  }
  if (r.p != r.end) {
    throw std::runtime_error("corrupt v3 trace: chunk length mismatch");
  }
  return batch_from_scratch(scratch, mask, count);
}

ColumnBatch read_chunk_v3(std::istream& in, const ChunkMeta& chunk,
                          std::uint64_t byte_len, std::vector<char>& raw,
                          ColumnScratch& scratch, ColumnMask mask) {
  in.clear();
  in.seekg(static_cast<std::streamoff>(chunk.offset));
  raw.resize(byte_len);
  in.read(raw.data(), static_cast<std::streamsize>(byte_len));
  if (static_cast<std::uint64_t>(in.gcount()) != byte_len) {
    throw std::runtime_error("truncated v3 trace (chunk body)");
  }
  return decode_chunk_v3(raw.data(), static_cast<std::size_t>(byte_len),
                         chunk, scratch, mask);
}

}  // namespace eio::ipm
