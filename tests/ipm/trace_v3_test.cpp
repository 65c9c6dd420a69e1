// Binary v3 format: columnar round-trips, byte-exact re-encoding,
// selective (masked) decode, the RLE codec, the buffered chunk reader,
// and the corrupt/truncated-input sweep — every damaged input must
// throw std::runtime_error, never crash or parse as complete.
#include "ipm/trace_v3.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"
#include "ipm/wire.h"
#include "support/temp_path.h"

namespace eio::ipm {
namespace {

TraceEvent make_event(double start, double dur, posix::OpType op, RankId rank,
                      Bytes bytes, std::int32_t phase = 0) {
  TraceEvent e;
  e.start = start;
  e.duration = dur;
  e.op = op;
  e.rank = rank;
  e.file = 1;
  e.offset = 123456789;
  e.bytes = bytes;
  e.phase = phase;
  return e;
}

Trace sample_trace(std::size_t events) {
  Trace t("v3-test", 8);
  for (std::size_t i = 0; i < events; ++i) {
    t.add(make_event(0.25 * static_cast<double>(i), 0.125,
                     i % 3 == 0 ? posix::OpType::kRead : posix::OpType::kWrite,
                     static_cast<RankId>(i % 8), 1 << 16,
                     static_cast<std::int32_t>(i / 10)));
  }
  return t;
}

std::string v3_bytes(const Trace& t, std::size_t chunk_events = 4096) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  TraceWriterV3 writer(ss, t.experiment(), t.ranks(),
                       TraceWriterV3::Options{.chunk_events = chunk_events});
  for (const auto& e : t.events()) writer.add(e);
  writer.finish();
  return ss.str();
}

/// Parse the column headers of the first chunk and return the byte
/// offset of column `col`'s header (the encoding byte).
std::size_t column_header_offset(const std::string& bytes,
                                 const ChunkMeta& chunk, int col) {
  wire::ByteReader r{bytes.data() + chunk.offset,
                     bytes.data() + bytes.size()};
  EXPECT_EQ(r.u8(), 0x01u);  // chunk tag
  (void)r.varint();          // event count
  for (int c = 0; c < col; ++c) {
    std::uint8_t enc = r.u8();
    std::uint64_t enc_len = r.varint();
    if ((enc & 0x80u) != 0) (void)r.varint();  // raw_len
    (void)r.bytes(static_cast<std::size_t>(enc_len));
  }
  return static_cast<std::size_t>(r.p - bytes.data());
}

TEST(TraceV3Test, RoundTripPreservesEverything) {
  Trace t("v3-roundtrip", 16);
  t.add(make_event(0.125, 2.5, posix::OpType::kWrite, 3, 512, 7));
  t.add(make_event(3.0, 0.001, posix::OpType::kSeek, 5, 0, -2));
  t.add(make_event(3.5, 1.0, posix::OpType::kRead, 7, 4096, 7));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v3(ss);
  Trace back = Trace::read_binary(ss);
  EXPECT_EQ(back.experiment(), "v3-roundtrip");
  EXPECT_EQ(back.ranks(), 16u);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back.events()[0].start, 0.125);
  EXPECT_EQ(back.events()[0].op, posix::OpType::kWrite);
  EXPECT_EQ(back.events()[0].offset, 123456789u);
  EXPECT_EQ(back.events()[1].phase, -2);  // negative phase survives zigzag
  EXPECT_EQ(back.events()[2].op, posix::OpType::kRead);
}

TEST(TraceV3Test, EmptyTraceRoundTrips) {
  Trace t("v3-empty", 4);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v3(ss);
  Trace back = Trace::read_binary(ss);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.experiment(), "v3-empty");
  EXPECT_EQ(back.ranks(), 4u);
}

TEST(TraceV3Test, LoadAutoDetectsV3) {
  Trace t = sample_trace(5);
  std::string path = test::temp_path("eio_v3_auto.bin");
  t.save_binary_v3(path);
  Trace back = Trace::load(path);
  EXPECT_EQ(back.size(), 5u);
  EXPECT_EQ(back.experiment(), "v3-test");
  std::remove(path.c_str());
}

TEST(TraceV3Test, V3ReencodeIsByteExact) {
  // Every column encoding is exact (raw f64 time columns, wraparound-
  // safe delta varints), so decoding a v3 file and encoding the events
  // again reproduces the original bytes — including doubles that are
  // not round decimals and every op code.
  Trace t("exact", 32);
  for (int i = 0; i < 500; ++i) {
    t.add(make_event(1.0 / 3.0 * i, 1e-7 * (i % 97),
                     static_cast<posix::OpType>(i % 5),
                     static_cast<RankId>(i % 32), (i % 7) * 4096 + i,
                     (i % 13) - 6));
  }
  const std::string first = v3_bytes(t, 64);
  std::stringstream in(first);
  const Trace back = Trace::read_binary(in);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.events()[i].start, t.events()[i].start);
    EXPECT_EQ(back.events()[i].duration, t.events()[i].duration);
  }
  EXPECT_EQ(v3_bytes(back, 64), first);
  // The round trip covers both column forms: the writer RLE-encodes a
  // column only when that is smaller, so the non-round time columns
  // stay plain while the small delta columns are compressed.
  std::stringstream ss(first);
  const ChunkMeta chunk = read_index_v3(ss).chunks[0];
  int rle_cols = 0;
  for (int col = 0; col < 8; ++col) {
    const std::size_t at = column_header_offset(first, chunk, col);
    if ((static_cast<unsigned char>(first[at]) & 0x80u) != 0) ++rle_cols;
  }
  EXPECT_GT(rle_cols, 0);
  EXPECT_LT(rle_cols, 8);
}

TEST(TraceV3Test, WriterChunksAndFooterIndexAgree) {
  Trace t = sample_trace(30);
  std::stringstream ss(v3_bytes(t, 8));
  TraceIndex index = read_index_v3(ss);
  EXPECT_EQ(index.meta.experiment, "v3-test");
  EXPECT_EQ(index.meta.ranks, 8u);
  ASSERT_TRUE(index.meta.declared_events.has_value());
  EXPECT_EQ(*index.meta.declared_events, 30u);
  ASSERT_EQ(index.chunks.size(), 4u);  // 8 + 8 + 8 + 6

  std::uint64_t total = 0;
  std::uint64_t prev_offset = 0;
  for (const ChunkMeta& c : index.chunks) {
    total += c.events;
    EXPECT_GT(c.offset, prev_offset);
    prev_offset = c.offset;
    EXPECT_NE(c.op_mask, 0u);
    EXPECT_LE(c.rank_lo, c.rank_hi);
    EXPECT_LE(c.t_lo, c.t_hi);
    EXPECT_GT(c.data_bytes, 0u);
  }
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(index.chunks.back().events, 6u);
}

TEST(TraceV3Test, MaskedDecodeSkipsUnrequestedColumns) {
  Trace t = sample_trace(100);
  std::stringstream ss(v3_bytes(t, 64));
  TraceIndex index = read_index_v3(ss);
  ASSERT_EQ(index.chunks.size(), 2u);

  ColumnScratch scratch;
  std::vector<char> raw;
  ColumnBatch partial =
      read_chunk_v3(ss, index.chunks[0], chunk_byte_length(index, 0), raw,
                    scratch, kColDuration | kColOp);
  ASSERT_EQ(partial.size(), 64u);
  EXPECT_EQ(partial.duration.size(), 64u);
  EXPECT_EQ(partial.op.size(), 64u);
  // Unmasked columns are left empty, never partially filled.
  EXPECT_TRUE(partial.start.empty());
  EXPECT_TRUE(partial.rank.empty());
  EXPECT_TRUE(partial.phase.empty());

  // Masked values agree with the full decode, element for element.
  ColumnScratch full_scratch;
  ColumnBatch full = read_chunk_v3(ss, index.chunks[0],
                                   chunk_byte_length(index, 0), raw,
                                   full_scratch, kColAll);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(partial.duration[i], full.duration[i]);
    EXPECT_EQ(partial.op[i], full.op[i]);
    EXPECT_EQ(full.event_at(i).start, t.events()[i].start);
  }
}

TEST(TraceV3Test, ShredRoundTripsThroughEventAt) {
  Trace t = sample_trace(50);
  ColumnScratch scratch;
  ColumnBatch cols = shred(t.events(), scratch, kColAll);
  ASSERT_EQ(cols.size(), 50u);
  std::vector<TraceEvent> rows;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    rows.push_back(cols.event_at(i));
  }
  ASSERT_EQ(rows.size(), 50u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].start, t.events()[i].start);
    EXPECT_EQ(rows[i].duration, t.events()[i].duration);
    EXPECT_EQ(rows[i].op, t.events()[i].op);
    EXPECT_EQ(rows[i].rank, t.events()[i].rank);
    EXPECT_EQ(rows[i].offset, t.events()[i].offset);
    EXPECT_EQ(rows[i].bytes, t.events()[i].bytes);
    EXPECT_EQ(rows[i].phase, t.events()[i].phase);
  }
}

TEST(TraceV3Test, RleCodecRoundTripsEveryShape) {
  const std::vector<std::vector<char>> cases = {
      {},                                      // empty
      {'a'},                                   // single literal
      {'a', 'b', 'c', 'd'},                    // literals only
      std::vector<char>(3, '\0'),              // minimal run
      std::vector<char>(130, 'x'),             // one max-length run
      std::vector<char>(131, 'x'),             // run + 1 spill
      std::vector<char>(4096, '\0'),           // long zero run
      {'a', 'a', 'b', 'b'},                    // runs of 2 stay literal
  };
  for (const auto& src : cases) {
    std::vector<char> packed, back;
    rle_compress(src, packed);
    rle_decompress(packed, src.size(), back);
    EXPECT_EQ(back, src) << "raw_len=" << src.size();
  }
  // Mixed pattern with every control-byte kind.
  std::vector<char> mixed;
  for (int i = 0; i < 300; ++i) mixed.push_back(static_cast<char>(i % 251));
  mixed.insert(mixed.end(), 200, '\x7f');
  mixed.push_back('z');
  std::vector<char> packed, back;
  rle_compress(mixed, packed);
  rle_decompress(packed, mixed.size(), back);
  EXPECT_EQ(back, mixed);
}

TEST(TraceV3Test, RleDecompressRejectsCorruptStreams) {
  std::vector<char> src(64, '\0');
  std::vector<char> packed, out;
  rle_compress(src, packed);
  // Wrong declared size in either direction throws.
  EXPECT_THROW(rle_decompress(packed, 63, out), std::runtime_error);
  EXPECT_THROW(rle_decompress(packed, 65, out), std::runtime_error);
  // A truncated stream throws rather than yielding a short buffer.
  std::vector<char> cut(packed.begin(), packed.end() - 1);
  EXPECT_THROW(rle_decompress(cut, 64, out), std::runtime_error);
  // A literal control byte promising more bytes than remain throws.
  std::vector<char> lying = {'\x05', 'a'};
  EXPECT_THROW(rle_decompress(lying, 6, out), std::runtime_error);
}

TEST(TraceV3Test, EveryTruncationOfAV3FileThrows) {
  Trace t = sample_trace(12);
  const std::string bytes = v3_bytes(t, 4);
  // The trailer requirement means no proper prefix — not even one cut
  // exactly at a chunk, column, or footer boundary — reads as a
  // complete trace. This sweep covers "truncated column stream" at
  // every possible cut point.
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    std::stringstream damaged(bytes.substr(0, cut));
    EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error)
        << "prefix of " << cut << " bytes parsed as complete";
  }
}

TEST(TraceV3Test, CorruptTrailerMagicThrows) {
  Trace t = sample_trace(4);
  std::string bytes = v3_bytes(t);
  bytes[bytes.size() - 1] ^= 0x5a;  // damage the trailer magic
  std::stringstream damaged(bytes);
  EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error);
  std::stringstream damaged2(bytes);
  EXPECT_THROW((void)read_index_v3(damaged2), std::runtime_error);
}

TEST(TraceV3Test, FooterPointingPastEofThrows) {
  Trace t = sample_trace(8);
  std::string bytes = v3_bytes(t, 4);
  // The trailer's u64 footer offset sits 16 bytes from the end; point
  // it past EOF and at the trailer itself — both must be rejected.
  for (std::uint64_t bogus :
       {static_cast<std::uint64_t>(bytes.size()) + 100,
        static_cast<std::uint64_t>(bytes.size()) - 8}) {
    std::string patched = bytes;
    for (int b = 0; b < 8; ++b) {
      patched[patched.size() - 16 + b] =
          static_cast<char>((bogus >> (8 * b)) & 0xFF);
    }
    std::stringstream damaged(patched);
    EXPECT_THROW((void)read_index_v3(damaged), std::runtime_error)
        << "footer offset " << bogus << " accepted";
    std::stringstream damaged2(patched);
    EXPECT_THROW((void)Trace::read_binary(damaged2), std::runtime_error);
  }
}

TEST(TraceV3Test, BytesOutsideTheChunksThrow) {
  // The index must account for every byte: chunks tile the file from
  // the header to the footer, and the footer ends at the trailer.
  std::string bytes = v3_bytes(sample_trace(8), 4);
  bytes.insert(bytes.size() - 16, 1, '\0');  // between footer and trailer
  std::stringstream tail(bytes);
  EXPECT_THROW((void)read_index_v3(tail), std::runtime_error);

  // A chunkless file with a stray byte after its header, the trailer's
  // footer pointer patched to match.
  std::string empty = v3_bytes(Trace("empty", 2));
  std::uint64_t footer = 0;
  std::memcpy(&footer, empty.data() + empty.size() - 16, sizeof footer);
  empty.insert(static_cast<std::size_t>(footer), 1, '\x7f');
  ++footer;
  std::memcpy(empty.data() + empty.size() - 16, &footer, sizeof footer);
  std::stringstream gap(empty);
  EXPECT_THROW((void)read_index_v3(gap), std::runtime_error);
  std::stringstream gap2(empty);
  EXPECT_THROW((void)Trace::read_binary(gap2), std::runtime_error);
}

TEST(TraceV3Test, CorruptColumnEncodingByteThrows) {
  Trace t = sample_trace(16);
  std::string bytes = v3_bytes(t);
  std::stringstream ss(bytes);
  TraceIndex index = read_index_v3(ss);
  ASSERT_EQ(index.chunks.size(), 1u);
  // Damage each column's encoding byte in turn: the decoder pins the
  // expected encoding per column, so any substitution throws.
  for (int col = 0; col < 8; ++col) {
    std::string patched = bytes;
    std::size_t at = column_header_offset(bytes, index.chunks[0], col);
    patched[at] = '\x7e';  // not a valid encoding for any column
    std::stringstream damaged(patched);
    EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error)
        << "column " << col << " accepted a bogus encoding";
  }
}

TEST(TraceV3Test, CorruptCompressionHeaderThrows) {
  // Constant rank/file/offset/bytes columns delta-encode to all-zero
  // payloads, which the writer RLE-compresses — guaranteeing at least
  // one column with the 0x80 flag to corrupt.
  Trace t("rle", 4);
  for (int i = 0; i < 256; ++i) {
    t.add(make_event(0.5 * i, 0.25, posix::OpType::kWrite, 2, 8192, 3));
  }
  std::string bytes = v3_bytes(t);
  std::stringstream ss(bytes);
  TraceIndex index = read_index_v3(ss);
  ASSERT_EQ(index.chunks.size(), 1u);

  int compressed_cols = 0;
  for (int col = 0; col < 8; ++col) {
    std::size_t at = column_header_offset(bytes, index.chunks[0], col);
    if ((static_cast<unsigned char>(bytes[at]) & 0x80u) == 0) continue;
    ++compressed_cols;
    // The varint after enc_len declares the decompressed size; a
    // mismatch with what the RLE stream actually yields must throw.
    wire::ByteReader r{bytes.data() + at, bytes.data() + bytes.size()};
    (void)r.u8();
    (void)r.varint();  // enc_len
    std::size_t raw_len_at = static_cast<std::size_t>(r.p - bytes.data());
    std::string patched = bytes;
    patched[raw_len_at] = static_cast<char>(patched[raw_len_at] ^ 0x01);
    std::stringstream damaged(patched);
    EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error)
        << "column " << col << " accepted a corrupt raw_len";
    // Stripping the compression flag makes the payload nonsense for
    // the base encoding; that must throw too, not mis-decode.
    std::string stripped = bytes;
    stripped[at] = static_cast<char>(stripped[at] & 0x7F);
    std::stringstream damaged2(stripped);
    EXPECT_THROW((void)Trace::read_binary(damaged2), std::runtime_error)
        << "column " << col << " mis-decoded an RLE payload as raw";
  }
  EXPECT_GE(compressed_cols, 4);  // rank, file, offset, bytes at minimum
}

TEST(TraceV3Test, ReadersRejectEmptyAndMissingFiles) {
  const std::string missing = test::temp_path("eio_v3_nonexistent");
  EXPECT_THROW((void)open_trace(missing), std::runtime_error);
  EXPECT_THROW(FileTraceSource source(missing), std::runtime_error);

  const std::string empty = test::temp_path("eio_v3_empty");
  { std::ofstream out(empty, std::ios::binary); }
  // The sniffer refuses a zero-length trace outright, and a reader
  // finds no chunk in it.
  EXPECT_THROW(FileTraceSource source(empty), std::runtime_error);
  std::ifstream in = open_trace(empty);
  std::vector<char> raw;
  ColumnScratch scratch;
  EXPECT_THROW((void)read_chunk_v3(in, ChunkMeta{.offset = 8, .events = 1},
                                   56, raw, scratch),
               std::runtime_error);
  std::remove(empty.c_str());
}

TEST(TraceV3Test, ChunkReaderChunksMatchTheWrittenTrace) {
  const Trace t = sample_trace(20);
  constexpr std::size_t kChunk = 7;
  const std::string path = test::temp_path("eio_v3_reader.bin");
  std::ofstream(path, std::ios::binary) << v3_bytes(t, kChunk);
  const FileTraceSource source(path);
  const TraceIndex& index = source.index();
  ASSERT_EQ(index.chunks.size(), 3u);

  ChunkCursor cursor;
  for (std::size_t c = 0; c < index.chunks.size(); ++c) {
    const ColumnBatch b = source.decode_chunk(c, kColAll, cursor);
    ASSERT_EQ(b.size(), std::min(kChunk, t.size() - c * kChunk));
    for (std::size_t i = 0; i < b.size(); ++i) {
      const TraceEvent& e = t.events()[c * kChunk + i];
      EXPECT_EQ(b.start[i], e.start);
      EXPECT_EQ(b.duration[i], e.duration);
      EXPECT_EQ(b.op[i], static_cast<std::uint8_t>(e.op));
      EXPECT_EQ(b.rank[i], e.rank);
      EXPECT_EQ(b.file[i], e.file);
      EXPECT_EQ(b.offset[i], e.offset);
      EXPECT_EQ(b.bytes[i], e.bytes);
      EXPECT_EQ(b.phase[i], e.phase);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceV3Test, FileTraceSourceReplaysTsvAndV3Alike) {
  Trace t = sample_trace(40);
  const std::string tsv = test::temp_path("eio_v3_src.tsv");
  const std::string v3 = test::temp_path("eio_v3_src_v3.bin");
  t.save(tsv);
  t.save_binary_v3(v3);

  FileTraceSource tsv_source(tsv);
  FileTraceSource v3_source(v3);
  EXPECT_EQ(tsv_source.format(), TraceFormat::kTsv);
  EXPECT_EQ(v3_source.format(), TraceFormat::kBinaryV3);

  // Both formats replay the identical event sequence.
  std::vector<double> tsv_starts, v3_starts;
  tsv_source.for_each_columns(kColStart, [&](const ColumnBatch& b) {
    tsv_starts.insert(tsv_starts.end(), b.start.begin(), b.start.end());
  });
  v3_source.for_each_columns(kColStart, [&](const ColumnBatch& b) {
    v3_starts.insert(v3_starts.end(), b.start.begin(), b.start.end());
  });
  EXPECT_EQ(v3_starts, tsv_starts);
  EXPECT_EQ(v3_source.event_count(), tsv_source.event_count());
  std::remove(tsv.c_str());
  std::remove(v3.c_str());
}

TEST(TraceV3Test, HintedScanSkipsNonMatchingChunks) {
  Trace t("phased", 4);
  for (int i = 0; i < 16; ++i) {
    t.add(make_event(i, 0.5, posix::OpType::kWrite,
                     static_cast<RankId>(i % 4), 64, i < 8 ? 1 : 2));
  }
  std::string path = test::temp_path("eio_v3_hint.bin");
  {
    std::ofstream file(path, std::ios::binary);
    TraceWriterV3 writer(file, t.experiment(), t.ranks(),
                         TraceWriterV3::Options{.chunk_events = 8});
    for (const auto& e : t.events()) writer.add(e);
    writer.finish();
  }

  FileTraceSource source(path);
  EXPECT_EQ(source.format(), TraceFormat::kBinaryV3);
  ASSERT_EQ(source.index().chunks.size(), 2u);

  auto visited = [&source](const ChunkHint& hint) {
    std::size_t n = 0;
    source.for_each_columns_hinted(
        hint, kColPhase, [&n](const ColumnBatch& b) { n += b.size(); });
    return n;
  };
  EXPECT_EQ(visited(ChunkHint{.phase = 2}), 8u);
  EXPECT_EQ(visited(ChunkHint{.op = posix::OpType::kFsync}), 0u);
  EXPECT_EQ(visited(ChunkHint{}), 16u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eio::ipm
