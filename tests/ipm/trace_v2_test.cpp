// Binary v2 format: chunked round-trips, the footer index, selective
// chunk scans, and the corrupt/truncated-input sweep across all three
// serialization formats.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ipm/sink.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"
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
  Trace t("v2-test", 8);
  for (std::size_t i = 0; i < events; ++i) {
    t.add(make_event(0.25 * static_cast<double>(i), 0.125,
                     i % 3 == 0 ? posix::OpType::kRead : posix::OpType::kWrite,
                     static_cast<RankId>(i % 8), 1 << 16,
                     static_cast<std::int32_t>(i / 10)));
  }
  return t;
}

TEST(TraceV2Test, RoundTripPreservesEverything) {
  Trace t("v2-roundtrip", 16);
  t.add(make_event(0.125, 2.5, posix::OpType::kWrite, 3, 512, 7));
  t.add(make_event(3.0, 0.001, posix::OpType::kSeek, 5, 0, -2));
  t.add(make_event(3.5, 1.0, posix::OpType::kRead, 7, 4096, 7));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v2(ss);
  Trace back = Trace::read_binary(ss);
  EXPECT_EQ(back.experiment(), "v2-roundtrip");
  EXPECT_EQ(back.ranks(), 16u);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back.events()[0].start, 0.125);
  EXPECT_EQ(back.events()[0].op, posix::OpType::kWrite);
  EXPECT_EQ(back.events()[0].offset, 123456789u);
  EXPECT_EQ(back.events()[1].phase, -2);
  EXPECT_EQ(back.events()[2].op, posix::OpType::kRead);
}

TEST(TraceV2Test, EmptyTraceRoundTrips) {
  Trace t("v2-empty", 4);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v2(ss);
  Trace back = Trace::read_binary(ss);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.experiment(), "v2-empty");
  EXPECT_EQ(back.ranks(), 4u);
}

TEST(TraceV2Test, LoadAutoDetectsV2) {
  Trace t = sample_trace(5);
  std::string path = test::temp_path("eio_v2_auto.bin");
  t.save_binary_v2(path);
  Trace back = Trace::load(path);
  EXPECT_EQ(back.size(), 5u);
  EXPECT_EQ(back.experiment(), "v2-test");
  std::remove(path.c_str());
}

TEST(TraceV2Test, WriterChunksAndFooterIndexAgree) {
  Trace t = sample_trace(30);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  TraceWriterV2 writer(ss, t.experiment(), t.ranks(),
                       TraceWriterV2::Options{.chunk_events = 8});
  for (const auto& e : t.events()) writer.add(e);
  writer.finish();
  EXPECT_EQ(writer.events_written(), 30u);

  TraceIndex index = read_index_v2(ss);
  EXPECT_EQ(index.meta.experiment, "v2-test");
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

TEST(TraceV2Test, StreamChunkVisitsExactlyThatChunk) {
  Trace t = sample_trace(20);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  TraceWriterV2 writer(ss, t.experiment(), t.ranks(),
                       TraceWriterV2::Options{.chunk_events = 8});
  for (const auto& e : t.events()) writer.add(e);
  writer.finish();

  TraceIndex index = read_index_v2(ss);
  ASSERT_EQ(index.chunks.size(), 3u);
  std::vector<TraceEvent> second;
  stream_chunk_v2(ss, index.chunks[1],
                  [&second](const TraceEvent& e) { second.push_back(e); });
  ASSERT_EQ(second.size(), 8u);
  // Chunk 1 holds events 8..15 in insertion order.
  EXPECT_DOUBLE_EQ(second.front().start, 0.25 * 8);
  EXPECT_DOUBLE_EQ(second.back().start, 0.25 * 15);
}

TEST(TraceV2Test, HintedScanSkipsNonMatchingChunks) {
  // Two chunks with disjoint phase ranges: phases 0..9 land in events
  // 0..99 (chunk 0..), phases starting at 10 later. Use chunk_events
  // aligned with the phase boundary so pruning is observable.
  Trace t("phased", 4);
  for (int i = 0; i < 16; ++i) {
    t.add(make_event(i, 0.5, posix::OpType::kWrite,
                     static_cast<RankId>(i % 4), 64, i < 8 ? 1 : 2));
  }
  std::string path = test::temp_path("eio_v2_hint.bin");
  {
    std::ofstream file(path, std::ios::binary);
    TraceWriterV2 writer(file, t.experiment(), t.ranks(),
                         TraceWriterV2::Options{.chunk_events = 8});
    for (const auto& e : t.events()) writer.add(e);
    writer.finish();
  }

  FileTraceSource source(path);
  EXPECT_EQ(source.format(), TraceFormat::kBinaryV2);
  ASSERT_TRUE(source.index().has_value());
  ASSERT_EQ(source.index()->chunks.size(), 2u);

  // The phase=2 hint admits only the second chunk, so the visitor sees
  // 8 events, not 16.
  std::size_t visited = 0;
  source.for_each_hinted(ChunkHint{.phase = 2},
                         [&visited](const TraceEvent&) { ++visited; });
  EXPECT_EQ(visited, 8u);

  // An op hint that nothing matches prunes every chunk.
  visited = 0;
  source.for_each_hinted(ChunkHint{.op = posix::OpType::kFsync},
                         [&visited](const TraceEvent&) { ++visited; });
  EXPECT_EQ(visited, 0u);

  // Hints are a superset promise: an unfiltered hint sees everything.
  visited = 0;
  source.for_each_hinted(ChunkHint{},
                         [&visited](const TraceEvent&) { ++visited; });
  EXPECT_EQ(visited, 16u);
  std::remove(path.c_str());
}

TEST(TraceV2Test, ChunkHintAdmitsUsesFooterMetadata) {
  ChunkMeta chunk;
  chunk.op_mask = 1u << static_cast<unsigned>(posix::OpType::kWrite);
  chunk.rank_lo = 2;
  chunk.rank_hi = 5;
  chunk.phase_lo = -1;
  chunk.phase_hi = 3;
  EXPECT_TRUE(ChunkHint{}.admits(chunk));
  EXPECT_TRUE(ChunkHint{.op = posix::OpType::kWrite}.admits(chunk));
  EXPECT_FALSE(ChunkHint{.op = posix::OpType::kRead}.admits(chunk));
  EXPECT_TRUE(ChunkHint{.phase = -1}.admits(chunk));
  EXPECT_FALSE(ChunkHint{.phase = 4}.admits(chunk));
  EXPECT_TRUE(ChunkHint{.rank = 5}.admits(chunk));
  EXPECT_FALSE(ChunkHint{.rank = 6}.admits(chunk));
}

TEST(TraceV2Test, EveryTruncationOfAV2FileThrows) {
  Trace t = sample_trace(12);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  TraceWriterV2 writer(ss, t.experiment(), t.ranks(),
                       TraceWriterV2::Options{.chunk_events = 4});
  for (const auto& e : t.events()) writer.add(e);
  writer.finish();
  const std::string bytes = ss.str();

  // The trailer requirement means no proper prefix — not even one cut
  // exactly at a chunk or footer boundary — reads as a complete trace.
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    std::stringstream damaged(bytes.substr(0, cut));
    EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error)
        << "prefix of " << cut << " bytes parsed as complete";
  }
}

TEST(TraceV2Test, CorruptTrailerMagicThrows) {
  Trace t = sample_trace(4);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v2(ss);
  std::string bytes = ss.str();
  bytes[bytes.size() - 1] ^= 0x5a;  // damage the trailer magic
  std::stringstream damaged(bytes);
  EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error);
  std::stringstream damaged2(bytes);
  EXPECT_THROW((void)read_index_v2(damaged2), std::runtime_error);
}

TEST(TraceV2Test, TruncatedV1Throws) {
  Trace t = sample_trace(6);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary(ss);
  const std::string bytes = ss.str();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{9}}) {
    std::stringstream damaged(bytes.substr(0, cut));
    EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error)
        << "v1 prefix of " << cut << " bytes parsed as complete";
  }
}

TEST(TraceV2Test, TsvHeaderCountMismatchThrows) {
  Trace t = sample_trace(3);
  std::stringstream ss;
  t.write(ss);
  std::string text = ss.str();
  // Drop the last event line; the header still declares 3.
  text.erase(text.rfind('\n', text.size() - 2) + 1);
  std::stringstream damaged(text);
  EXPECT_THROW((void)Trace::read(damaged), std::runtime_error);
}

TEST(TraceV2Test, SniffRejectsUnknownMagic) {
  std::stringstream junk("GARBAGE!definitely not a trace");
  EXPECT_THROW((void)sniff_format(junk), std::runtime_error);
  // read_binary must also refuse a TSV stream rather than misparse it.
  Trace t = sample_trace(1);
  std::stringstream tsv;
  t.write(tsv);
  EXPECT_THROW((void)Trace::read_binary(tsv), std::runtime_error);
}

TEST(TraceV2Test, FileTraceSourceReportsMetaForAllFormats) {
  Trace t = sample_trace(9);
  std::string tsv = test::temp_path("eio_src.tsv");
  std::string v1 = test::temp_path("eio_src_v1.bin");
  std::string v2 = test::temp_path("eio_src_v2.bin");
  t.save(tsv);
  t.save_binary(v1);
  t.save_binary_v2(v2);
  for (const std::string& path : {tsv, v1, v2}) {
    FileTraceSource source(path);
    EXPECT_EQ(source.meta().experiment, "v2-test") << path;
    EXPECT_EQ(source.meta().ranks, 8u) << path;
    EXPECT_EQ(source.event_count(), 9u) << path;
    std::size_t visited = 0;
    source.for_each([&visited](const TraceEvent&) { ++visited; });
    EXPECT_EQ(visited, 9u) << path;
    Trace back = source.materialize();
    EXPECT_EQ(back.size(), 9u) << path;
    EXPECT_DOUBLE_EQ(back.events()[4].start, 1.0) << path;
  }
  std::remove(tsv.c_str());
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

TEST(TraceV2Test, SinksComposeOnTheCaptureSide) {
  Trace captured("sink", 2);
  TraceSink trace_sink(captured);
  std::size_t calls = 0;
  FunctionSink counter([&calls](const TraceEvent&) { ++calls; });
  for (int i = 0; i < 5; ++i) {
    TraceEvent e = make_event(i, 0.5, posix::OpType::kWrite, 0, 128);
    trace_sink.on_event(e);
    counter.on_event(e);
  }
  trace_sink.finish();
  counter.finish();
  EXPECT_EQ(captured.size(), 5u);
  EXPECT_EQ(calls, 5u);
}

}  // namespace
}  // namespace eio::ipm
