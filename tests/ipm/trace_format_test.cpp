// Format-level behaviour shared by the two trace encodings (TSV and
// binary v3): format sniffing, the rejection of retired binary
// formats, FileTraceSource metadata, chunk-hint admission, and the
// capture-side sinks.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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
  Trace t("format-test", 8);
  for (std::size_t i = 0; i < events; ++i) {
    t.add(make_event(0.25 * static_cast<double>(i), 0.125,
                     i % 3 == 0 ? posix::OpType::kRead : posix::OpType::kWrite,
                     static_cast<RankId>(i % 8), 1 << 16,
                     static_cast<std::int32_t>(i / 10)));
  }
  return t;
}

TEST(TraceFormatTest, ChunkHintAdmitsUsesFooterMetadata) {
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

TEST(TraceFormatTest, TsvHeaderCountMismatchThrows) {
  Trace t = sample_trace(3);
  std::stringstream ss;
  t.write(ss);
  std::string text = ss.str();
  // Drop the last event line; the header still declares 3.
  text.erase(text.rfind('\n', text.size() - 2) + 1);
  std::stringstream damaged(text);
  EXPECT_THROW((void)Trace::read(damaged), std::runtime_error);
}

TEST(TraceFormatTest, SniffRejectsUnknownMagic) {
  std::stringstream junk("GARBAGE!definitely not a trace");
  EXPECT_THROW((void)sniff_format(junk), std::runtime_error);
  // read_binary must also refuse a TSV stream rather than misparse it.
  Trace t = sample_trace(1);
  std::stringstream tsv;
  t.write(tsv);
  EXPECT_THROW((void)Trace::read_binary(tsv), std::runtime_error);
}

TEST(TraceFormatTest, RetiredBinaryFormatsAreRejectedByName) {
  // The v1/v2 writers are gone, so the fixture is the 8-byte magic
  // followed by junk: the magic alone must decide the rejection.
  for (const char* version : {"1", "2"}) {
    const std::string path = test::temp_path(std::string("retired.v") + version);
    std::ofstream(path, std::ios::binary) << "IPMIOB" << version << "\njunk";
    try {
      FileTraceSource source(path);
      ADD_FAILURE() << "v" << version << " magic was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("retired binary trace format v") + version +
                    "; this build reads TSV and v3 traces");
    }
    EXPECT_THROW((void)Trace::load(path), std::runtime_error);
    std::remove(path.c_str());
  }
}

TEST(TraceFormatTest, FileTraceSourceReportsMetaForAllFormats) {
  Trace t = sample_trace(9);
  std::string tsv = test::temp_path("eio_src.tsv");
  std::string v3 = test::temp_path("eio_src_v3.bin");
  t.save(tsv);
  t.save_binary_v3(v3);
  for (const std::string& path : {tsv, v3}) {
    FileTraceSource source(path);
    EXPECT_EQ(source.meta().experiment, "format-test") << path;
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
  std::remove(v3.c_str());
}

TEST(TraceFormatTest, SinksComposeOnTheCaptureSide) {
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
