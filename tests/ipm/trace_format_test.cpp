// Format-level behaviour shared by the two trace encodings (TSV and
// binary v3): format sniffing, the rejection of retired binary
// formats, FileTraceSource metadata, chunk-hint admission, the TSV
// row parser, and the capture-side sinks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

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

/// Time values where %.9g formatting is easy to get wrong: denormals,
/// signed zeros, extreme exponents, integers up to 2^53, values on
/// rounding boundaries and accumulated 0.1 sums.
std::vector<double> tsv_edge_values() {
  std::vector<double> v = {0.0,
                           -0.0,
                           4.9406564584124654e-324,  // smallest denormal
                           2.2250738585072009e-308,  // largest denormal
                           2.2250738585072014e-308,  // smallest normal
                           -3.0e-320,
                           1e300,
                           -1e300,
                           1e-300,
                           1.7976931348623157e308,
                           0.1 + 0.2,
                           123456789.0,
                           1234567890.0,
                           999999999.5,
                           9999999995.0,
                           0.123456789012,
                           1e-5,
                           1e-4 * 0.99999999999,
                           123456.7895};
  for (int shift = 0; shift <= 53; ++shift) {
    const double p = static_cast<double>(std::uint64_t{1} << shift);
    v.push_back(p);
    v.push_back(p - 1.0);
    v.push_back(-p);
  }
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    sum += 0.1;
    v.push_back(sum);
  }
  return v;
}

TEST(TraceFormatTest, TsvTimeFieldsFormatLikePrintf) {
  for (double x : tsv_edge_values()) {
    TraceEvent e = make_event(x, -x, posix::OpType::kRead, 7, 4096);
    std::ostringstream row;
    write_tsv_event(row, e);
    char want[96];
    std::snprintf(want, sizeof want, "%.9g\t%.9g\t", x, -x);
    EXPECT_EQ(row.str().substr(0, std::string(want).size()), want)
        << "value " << want;
  }
}

TEST(TraceFormatTest, TsvRowsMatchTheIostreamFormatting) {
  // The formatting rows had when they went through operator<< at
  // precision 9 — the bytes every saved TSV trace holds — including
  // the integer columns at their extremes.
  for (double x : tsv_edge_values()) {
    TraceEvent e = make_event(x, x / 3.0, posix::OpType::kWrite, 4294967295u,
                              18446744073709551615ull, -2147483647 - 1);
    e.file = 18446744073709551615ull;
    e.offset = 0;
    std::ostringstream want;
    want.precision(kTsvPrecision);
    want << e.start << '\t' << e.duration << '\t' << posix::op_name(e.op)
         << '\t' << e.rank << '\t' << e.file << '\t' << e.offset << '\t'
         << e.bytes << '\t' << e.phase << '\n';
    std::ostringstream got;
    got << std::fixed;  // stream state must not leak into the rows
    write_tsv_event(got, e);
    EXPECT_EQ(got.str(), want.str());
  }
}

/// One row as write_tsv_event writes it, without its line break.
std::string tsv_row(const TraceEvent& e) {
  std::ostringstream out;
  write_tsv_event(out, e);
  std::string row = out.str();
  row.pop_back();
  return row;
}

/// `x` at the 9 significant digits a TSV row keeps.
double tsv_rounded(double x) {
  char digits[32];
  std::snprintf(digits, sizeof digits, "%.9g", x);
  return std::strtod(digits, nullptr);
}

TEST(TsvRowParserTest, WrittenRowsRoundTripBitForBit) {
  std::vector<double> values = tsv_edge_values();
  // 9-digit values in the subnormal range, where a parser that flags
  // underflow would reject what the writer wrote.
  for (double x : {4.94065646e-324, 1.23456789e-310, -2.22507386e-308,
                   9.99999999e-321}) {
    values.push_back(x);
  }
  const std::int32_t phases[] = {-2147483647 - 1, -7, 0, 2147483647};
  std::size_t i = 0;
  for (double x : values) {
    TraceEvent e = make_event(tsv_rounded(x), tsv_rounded(-x / 3.0),
                              posix::OpType::kFault, 4294967295u,
                              18446744073709551615ull, phases[i++ % 4]);
    e.file = 18446744073709551615ull;
    e.offset = 18446744073709551615ull;
    for (posix::OpType op :
         {posix::OpType::kOpen, posix::OpType::kClose, posix::OpType::kSeek,
          posix::OpType::kRead, posix::OpType::kWrite, posix::OpType::kFsync,
          posix::OpType::kFault}) {
      e.op = op;
      const std::string row = tsv_row(e);
      const TraceEvent back = parse_tsv_row(row);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.start),
                std::bit_cast<std::uint64_t>(e.start))
          << row;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.duration),
                std::bit_cast<std::uint64_t>(e.duration))
          << row;
      EXPECT_EQ(back.op, e.op) << row;
      EXPECT_EQ(back.rank, e.rank) << row;
      EXPECT_EQ(back.file, e.file) << row;
      EXPECT_EQ(back.offset, e.offset) << row;
      EXPECT_EQ(back.bytes, e.bytes) << row;
      EXPECT_EQ(back.phase, e.phase) << row;
    }
  }
}

TEST(TsvRowParserTest, MalformedRowsAreRejected) {
  const std::string good = tsv_row(make_event(1.5, 0.25, posix::OpType::kWrite,
                                              3, 4096, -2));
  ASSERT_NO_THROW((void)parse_tsv_row(good));
  for (const std::string& row : {
           std::string("1.5\t0.25\twrite\t3\t1\t123456789\t4096"),  // no phase
           std::string("1.5\t0.25\twrite"),                          // fields cut
           std::string(""),
           std::string("1.5\t0.25\tchmod\t3\t1\t123456789\t4096\t-2"),  // op
           std::string("1.5\tfast\twrite\t3\t1\t123456789\t4096\t-2"),
           std::string("1.5\t0.25\twrite\tthree\t1\t123456789\t4096\t-2"),
           std::string("1.5x\t0.25\twrite\t3\t1\t123456789\t4096\t-2"),
           std::string("1.5\t0.25\twrite\t-3\t1\t123456789\t4096\t-2"),
           std::string("1.5\t0.25\twrite\t4294967296\t1\t1\t4096\t-2"),
           good + "\textra",
       }) {
    try {
      (void)parse_tsv_row(row);
      ADD_FAILURE() << "accepted: " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "malformed trace row: " + row);
    }
  }
}

TEST(TsvRowParserTest, DeclaredCountMismatchFailsTheOpen) {
  // The constructor's indexing pass counts the rows, so a file whose
  // header declares another count never reaches a pass.
  Trace t = sample_trace(5);
  std::ostringstream text;
  t.write(text);
  const std::string rows = text.str();
  const std::string path = test::temp_path("eio_count_mismatch.tsv");
  for (const std::string& body :
       {rows.substr(0, rows.rfind('\n', rows.size() - 2) + 1),  // one short
        rows + tsv_row(t.events()[0]) + "\n"}) {                // one over
    std::ofstream(path, std::ios::binary) << body;
    try {
      FileTraceSource source(path);
      ADD_FAILURE() << "a miscounted TSV opened";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("header declares 5 events"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
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
    std::vector<TraceEvent> back;
    source.for_each_columns(kColAll, [&back](const ColumnBatch& b) {
      for (std::size_t i = 0; i < b.size(); ++i) back.push_back(b.event_at(i));
    });
    EXPECT_EQ(back.size(), 9u) << path;
    EXPECT_DOUBLE_EQ(back[4].start, 1.0) << path;
  }
  std::remove(tsv.c_str());
  std::remove(v3.c_str());
}

TEST(TraceFormatTest, SinksComposeOnTheCaptureSide) {
  Trace captured("sink", 2);
  Profile profile;
  FanoutSink fanout({std::make_shared<TraceSink>(captured),
                     std::make_shared<ProfileSink>(profile)});
  std::vector<TraceEvent> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(make_event(i, 0.5, posix::OpType::kWrite, 0, 128));
  }
  ColumnScratch scratch;
  const std::span<const TraceEvent> all(rows);
  fanout.add_batch(shred(all.first(2), scratch));
  fanout.add_batch(shred(all.subspan(2), scratch));
  fanout.finish();
  ASSERT_EQ(captured.size(), 5u);
  EXPECT_DOUBLE_EQ(captured.events()[3].start, 3.0);
  EXPECT_EQ(profile.count(posix::OpType::kWrite), 5u);
}

}  // namespace
}  // namespace eio::ipm
