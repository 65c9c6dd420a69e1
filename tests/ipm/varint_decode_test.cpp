// The v3 integer-column decoder against a plain reference: every varint
// length at its edges, overlong and truncated columns, RLE-flagged
// payloads, and every column of a trace simulated from each
// examples/scenarios file. The reference is the byte-at-a-time checked
// loop (wire::ByteReader::varint) over a block-by-block RLE expansion.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "ipm/trace_v3.h"
#include "ipm/wire.h"
#include "workloads/ensemble.h"
#include "workloads/scenario.h"

namespace eio::ipm {
namespace {

constexpr std::uint8_t kRle = 0x80;

/// One column as stored: encoding byte, lengths, payload.
void put_column(std::string& chunk, std::uint8_t enc,
                const std::vector<char>& payload, bool rle) {
  std::vector<char> header;
  if (rle) {
    std::vector<char> packed;
    rle_compress({payload.data(), payload.size()}, packed);
    header.push_back(static_cast<char>(enc | kRle));
    wire::append_varint(header, packed.size());
    wire::append_varint(header, payload.size());
    chunk.append(header.begin(), header.end());
    chunk.append(packed.begin(), packed.end());
    return;
  }
  header.push_back(static_cast<char>(enc));
  wire::append_varint(header, payload.size());
  chunk.append(header.begin(), header.end());
  chunk.append(payload.begin(), payload.end());
}

/// A chunk of `count` rows whose offset column stores `offset_payload`
/// verbatim (delta + zigzag varints); every other column is valid.
std::string chunk_with_offsets(std::uint64_t count,
                               const std::vector<char>& offset_payload,
                               bool rle = false) {
  std::string chunk(1, '\x01');
  std::vector<char> n;
  wire::append_varint(n, count);
  chunk.append(n.begin(), n.end());
  const std::vector<char> f64(count * sizeof(double), '\0');
  put_column(chunk, 0, f64, false);  // start
  put_column(chunk, 0, f64, false);  // duration
  const std::vector<char> closes(count, '\x01');  // OpType::kClose
  const std::vector<char> zeros(count, '\0');
  put_column(chunk, 1, closes, false);  // op
  put_column(chunk, 2, zeros, false);  // rank
  put_column(chunk, 2, zeros, false);  // file
  put_column(chunk, 2, offset_payload, rle);
  put_column(chunk, 2, zeros, false);  // bytes
  put_column(chunk, 2, zeros, false);  // phase
  return chunk;
}

std::vector<Bytes> decode_offsets(const std::string& chunk,
                                  std::uint64_t count) {
  ChunkMeta meta;
  meta.events = count;
  ColumnScratch scratch;
  const ColumnBatch b =
      decode_chunk_v3(chunk.data(), chunk.size(), meta, scratch, kColOffset);
  return {b.offset.begin(), b.offset.end()};
}

/// The stored zigzag deltas `encoded`, as a payload and as the column
/// values the reference reads back.
struct Column {
  std::vector<char> payload;
  std::vector<Bytes> values;
};

Column column_of(const std::vector<std::uint64_t>& encoded) {
  Column c;
  std::uint64_t prev = 0;
  for (std::uint64_t e : encoded) {
    wire::append_varint(c.payload, e);
    prev += static_cast<std::uint64_t>(wire::unzigzag(e));
    c.values.push_back(prev);
  }
  return c;
}

/// Encoded values at every varint length's edges: 2^(7k) - 1 (k bytes),
/// 2^(7k) (k + 1 bytes) and UINT64_MAX (10 bytes).
std::vector<std::uint64_t> edge_values() {
  std::vector<std::uint64_t> v;
  for (int k = 1; k <= 9; ++k) {
    v.push_back((std::uint64_t{1} << (7 * k)) - 1);
    v.push_back(std::uint64_t{1} << (7 * k));
  }
  v.push_back(std::numeric_limits<std::uint64_t>::max());
  return v;
}

std::size_t varint_length(std::uint64_t v) {
  std::vector<char> bytes;
  wire::append_varint(bytes, v);
  return bytes.size();
}

TEST(TraceV3VarintTest, EveryLengthDecodesAtEveryAlignment) {
  const std::vector<std::uint64_t> edges = edge_values();
  std::vector<bool> seen(11, false);
  for (std::uint64_t e : edges) seen[varint_length(e)] = true;
  for (std::size_t len = 1; len <= 10; ++len) EXPECT_TRUE(seen[len]) << len;

  // Each edge value after 0..8 one-byte values, inside runs of one-byte
  // fillers (all-one-byte words), of 4-byte fillers (mixed words) and
  // of sparse 2-byte ones — the shapes each decode strategy takes —
  // with and without RLE.
  const std::uint64_t fillers[] = {3, std::uint64_t{1} << 21, 200};
  for (std::uint64_t filler : fillers) {
    for (std::uint64_t e : edges) {
      for (std::size_t pad = 0; pad <= 8; ++pad) {
        std::vector<std::uint64_t> encoded(pad, 5);
        encoded.push_back(e);
        for (int i = 0; i < 24; ++i) encoded.push_back(i % 7 == 0 ? filler : 9);
        encoded.push_back(e);
        for (int i = 0; i < 3; ++i) encoded.push_back(filler);
        const Column c = column_of(encoded);
        for (bool rle : {false, true}) {
          EXPECT_EQ(decode_offsets(chunk_with_offsets(encoded.size(),
                                                      c.payload, rle),
                                   encoded.size()),
                    c.values)
              << "value " << e << " pad " << pad << " filler " << filler
              << " rle " << rle;
        }
      }
    }
  }
}

TEST(TraceV3VarintTest, LongColumnsOfEachShapeMatchTheReference) {
  // A fixed pseudo-random mix per shape, long enough that most values
  // take the word-at-a-time path.
  const std::vector<std::uint64_t> edges = edge_values();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int shape = 0; shape < 4; ++shape) {
    std::vector<std::uint64_t> encoded;
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t r = next();
      switch (shape) {
        case 0: encoded.push_back(r % 100); break;  // one byte each
        case 1:  // sparse longer values
          encoded.push_back(r % 97 == 0 ? edges[r % edges.size()] : r % 100);
          break;
        case 2: encoded.push_back(edges[r % edges.size()]); break;
        default: encoded.push_back(r >> (r % 64)); break;
      }
    }
    const Column c = column_of(encoded);
    for (bool rle : {false, true}) {
      EXPECT_EQ(decode_offsets(chunk_with_offsets(encoded.size(), c.payload,
                                                  rle),
                               encoded.size()),
                c.values)
          << "shape " << shape << " rle " << rle;
    }
  }
}

TEST(TraceV3VarintTest, ElevenByteVarintThrows) {
  // Ten continuation bytes: no 64-bit value is that long.
  const std::vector<char> overlong = {'\x80', '\x80', '\x80', '\x80',
                                      '\x80', '\x80', '\x80', '\x80',
                                      '\x80', '\x80', '\x01'};
  for (std::size_t before : {0, 5, 40}) {
    for (std::size_t after : {0, 3, 40}) {
      std::vector<char> payload(before, '\x02');
      payload.insert(payload.end(), overlong.begin(), overlong.end());
      payload.insert(payload.end(), after, '\x02');
      const std::uint64_t count = before + 1 + after;
      EXPECT_THROW(
          (void)decode_offsets(chunk_with_offsets(count, payload), count),
          std::runtime_error)
          << before << " before, " << after << " after";
    }
  }
}

TEST(TraceV3VarintTest, TruncationInTheLastTenBytesThrows) {
  // Cutting any of a column's last ten bytes leaves fewer varints than
  // its row count, whatever the lengths around the cut.
  std::vector<std::uint64_t> encoded;
  for (int i = 0; i < 64; ++i) encoded.push_back(i % 5 == 0 ? 1u << 22 : 6);
  for (std::uint64_t e : edge_values()) encoded.push_back(e);
  const Column c = column_of(encoded);
  ASSERT_GE(c.payload.size(), 10u);
  for (std::size_t cut = 1; cut <= 10; ++cut) {
    const std::vector<char> truncated(c.payload.begin(),
                                      c.payload.end() - cut);
    for (bool rle : {false, true}) {
      EXPECT_THROW((void)decode_offsets(
                       chunk_with_offsets(encoded.size(), truncated, rle),
                       encoded.size()),
                   std::runtime_error)
          << "cut " << cut << " rle " << rle;
    }
  }
  // One varint too many is a column length mismatch.
  std::vector<char> extra = c.payload;
  extra.push_back('\x02');
  EXPECT_THROW((void)decode_offsets(chunk_with_offsets(encoded.size(), extra),
                                    encoded.size()),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// The reference decoder: the column format walked byte by byte.

std::vector<char> reference_rle(const char* p, std::size_t n) {
  std::vector<char> out;
  std::size_t i = 0;
  while (i < n) {
    const auto c = static_cast<std::uint8_t>(p[i++]);
    if (c < 0x80) {
      out.insert(out.end(), p + i, p + i + c + 1);
      i += std::size_t{c} + 1;
    } else {
      out.insert(out.end(), std::size_t{c} - 0x80 + 3, p[i++]);
    }
  }
  return out;
}

/// Every integer column of one chunk as the reference reads it (op
/// plain, the rest delta + zigzag), phase unzigzagged once more.
std::vector<std::vector<std::uint64_t>> reference_columns(const char* data,
                                                          std::size_t len) {
  wire::ByteReader r{data, data + len};
  (void)r.u8();
  const std::uint64_t count = r.varint();
  std::vector<std::vector<std::uint64_t>> cols;
  for (int col = 0; col < 8; ++col) {
    const std::uint8_t enc = r.u8();
    const std::uint64_t enc_len = r.varint();
    const std::uint64_t raw_len = (enc & kRle) ? r.varint() : enc_len;
    const char* payload = r.bytes(enc_len);
    if (col < 2) continue;
    std::vector<char> raw = (enc & kRle) ? reference_rle(payload, enc_len)
                                         : std::vector<char>(payload,
                                                             payload + enc_len);
    EXPECT_EQ(raw.size(), raw_len);
    wire::ByteReader v{raw.data(), raw.data() + raw.size()};
    std::vector<std::uint64_t> values;
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t x = v.varint();
      if (col != 2) {
        x = prev + static_cast<std::uint64_t>(wire::unzigzag(x));
        prev = x;
      }
      values.push_back(x);
    }
    EXPECT_EQ(v.p, v.end);
    cols.push_back(std::move(values));
  }
  return cols;
}

std::string scenario_text(const std::string& name) {
  std::ifstream in(std::string(EIO_SOURCE_DIR "/examples/scenarios/") + name);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  // Run the full-scale GCRM and LLN scenarios at a unit-test scale:
  // same workload kind, preset and machine, fewer tasks.
  if (auto at = text.find("\"preset\""); at != std::string::npos) {
    text.insert(at, "\"tasks\": 640, \"io_tasks\": 10, ");
  }
  if (auto at = text.find("\"tasks\": 1024"); at != std::string::npos) {
    text.replace(at, 13, "\"tasks\": 64");
  }
  return text;
}

TEST(TraceV3ScenarioDecodeTest, EveryScenarioTraceMatchesTheReference) {
  const char* scenarios[] = {
      "ensemble_stability.json",     "fig1_ior_modes.json",
      "fig2_lln_k8.json",            "fig4_madbench_franklin.json",
      "fig4_madbench_jaguar.json",   "fig5_madbench_patched.json",
      "fig6_gcrm_aligned.json",      "fig6_gcrm_baseline.json",
      "fig6_gcrm_collective.json",   "fig6_gcrm_optimized.json",
      "interference.json",           "slow_ost.json",
      "straggler.json",              "transient_retries.json",
  };
  for (const char* name : scenarios) {
    workloads::JobSpec job =
        workloads::scenario_from_json(json::parse(scenario_text(name))).job();
    job.capture = Mode::kBoth;
    const auto runs = workloads::run_ensemble(job, 1, /*jobs=*/1);
    const Trace& trace = runs[0].trace;
    ASSERT_GT(trace.size(), 0u) << name;

    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    TraceWriterV3 writer(ss, trace.experiment(), trace.ranks(),
                         TraceWriterV3::Options{.chunk_events = 1000});
    for (const TraceEvent& e : trace.events()) writer.add(e);
    writer.finish();
    const std::string bytes = ss.str();
    std::stringstream in(bytes);
    const TraceIndex index = read_index_v3(in);
    ColumnScratch scratch;
    for (std::size_t c = 0; c < index.chunks.size(); ++c) {
      const std::uint64_t begin = index.chunks[c].offset;
      const std::uint64_t end = c + 1 < index.chunks.size()
                                    ? index.chunks[c + 1].offset
                                    : index.footer_offset;
      const char* data = bytes.data() + begin;
      const auto len = static_cast<std::size_t>(end - begin);
      const auto want = reference_columns(data, len);
      const ColumnBatch b =
          decode_chunk_v3(data, len, index.chunks[c], scratch, kColAll);
      ASSERT_EQ(want.size(), 6u);
      for (std::size_t i = 0; i < b.size(); ++i) {
        ASSERT_EQ(b.op[i], want[0][i]) << name << " chunk " << c << " row " << i;
        ASSERT_EQ(b.rank[i], static_cast<RankId>(want[1][i])) << name;
        ASSERT_EQ(b.file[i], want[2][i]) << name;
        ASSERT_EQ(b.offset[i], want[3][i]) << name;
        ASSERT_EQ(b.bytes[i], want[4][i]) << name;
        ASSERT_EQ(b.phase[i],
                  static_cast<std::int32_t>(wire::unzigzag(want[5][i])))
            << name;
      }
    }
  }
}

}  // namespace
}  // namespace eio::ipm
