// Unit tests for trace containers and serialization round-trips.
#include "ipm/trace.h"
#include "support/temp_path.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

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

TEST(TraceTest, SpanIsLatestEnd) {
  Trace t("exp", 4);
  EXPECT_DOUBLE_EQ(t.span(), 0.0);
  t.add(make_event(1.0, 2.0, posix::OpType::kWrite, 0, 100));
  t.add(make_event(0.5, 1.0, posix::OpType::kRead, 1, 100));
  EXPECT_DOUBLE_EQ(t.span(), 3.0);
}

TEST(TraceTest, WriteReadRoundTrip) {
  Trace t("roundtrip", 8);
  t.add(make_event(0.125, 2.5, posix::OpType::kWrite, 3, 512, 7));
  t.add(make_event(3.0, 0.001, posix::OpType::kSeek, 5, 0, -2));
  t.add(make_event(3.5, 1.0, posix::OpType::kRead, 7, 4096, 7));

  std::stringstream ss;
  t.write(ss);
  Trace back = Trace::read(ss);

  EXPECT_EQ(back.experiment(), "roundtrip");
  EXPECT_EQ(back.ranks(), 8u);
  ASSERT_EQ(back.size(), 3u);
  const TraceEvent& e = back.events()[0];
  EXPECT_DOUBLE_EQ(e.start, 0.125);
  EXPECT_DOUBLE_EQ(e.duration, 2.5);
  EXPECT_EQ(e.op, posix::OpType::kWrite);
  EXPECT_EQ(e.rank, 3u);
  EXPECT_EQ(e.offset, 123456789u);
  EXPECT_EQ(e.bytes, 512u);
  EXPECT_EQ(e.phase, 7);
  EXPECT_EQ(back.events()[1].phase, -2);
  EXPECT_EQ(back.events()[2].op, posix::OpType::kRead);
}

TEST(TraceTest, ReadRejectsGarbage) {
  std::stringstream ss("not a trace\n");
  EXPECT_THROW((void)Trace::read(ss), std::runtime_error);
}

TEST(TraceTest, ReadRejectsMalformedRow) {
  std::stringstream ss;
  ss << "# ipm-io-trace v1\texperiment=x\tranks=1\tevents=1\n";
  ss << "start\tduration\top\trank\tfile\toffset\tbytes\tphase\n";
  ss << "1.0\tnot-a-number\twrite\t0\t1\t0\t0\t0\n";
  EXPECT_THROW((void)Trace::read(ss), std::runtime_error);
}

TEST(TraceTest, ReadRejectsUnknownOp) {
  std::stringstream ss;
  ss << "# ipm-io-trace v1\texperiment=x\tranks=1\tevents=1\n";
  ss << "start\tduration\top\trank\tfile\toffset\tbytes\tphase\n";
  ss << "1.0\t1.0\tfrobnicate\t0\t1\t0\t0\t0\n";
  EXPECT_THROW((void)Trace::read(ss), std::runtime_error);
}

TEST(TraceTest, SaveLoadFileRoundTrip) {
  Trace t("file-io", 2);
  t.add(make_event(0.5, 0.25, posix::OpType::kFsync, 1, 0));
  std::string path = test::temp_path("eio_trace_test.tsv");
  t.save(path);
  Trace back = Trace::load(path);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(back.events()[0].op, posix::OpType::kFsync);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadMissingFileThrows) {
  EXPECT_THROW((void)Trace::load("/nonexistent/path/trace.tsv"),
               std::runtime_error);
}

TEST(TraceTest, BinaryRoundTripPreservesEverything) {
  Trace t("binary-test", 16);
  t.add(make_event(0.125, 2.5, posix::OpType::kWrite, 3, 512, 7));
  t.add(make_event(3.0, 0.001, posix::OpType::kSeek, 5, 0, -2));
  t.add(make_event(3.5, 1.0, posix::OpType::kRead, 7, 4096, 7));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v3(ss);
  Trace back = Trace::read_binary(ss);
  EXPECT_EQ(back.experiment(), "binary-test");
  EXPECT_EQ(back.ranks(), 16u);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back.events()[0].start, 0.125);
  EXPECT_DOUBLE_EQ(back.events()[0].duration, 2.5);
  EXPECT_EQ(back.events()[0].op, posix::OpType::kWrite);
  EXPECT_EQ(back.events()[0].offset, 123456789u);
  EXPECT_EQ(back.events()[1].phase, -2);
  EXPECT_EQ(back.events()[2].op, posix::OpType::kRead);
}

TEST(TraceTest, BinaryIsSmallerThanTsv) {
  // Realistic timestamps (full double precision) as the tracer emits.
  Trace t("size", 64);
  for (int i = 0; i < 500; ++i) {
    t.add(make_event(i * 0.5123456789312, 1.2498765432101,
                     posix::OpType::kWrite, static_cast<RankId>(i % 64),
                     1 << 20, i % 8));
  }
  std::stringstream tsv, bin;
  t.write(tsv);
  t.write_binary_v3(bin);
  EXPECT_LT(bin.str().size(), tsv.str().size() / 1.5);
}

TEST(TraceTest, BinaryRejectsGarbageAndTruncation) {
  std::stringstream garbage("definitely not a trace");
  EXPECT_THROW((void)Trace::read_binary(garbage), std::runtime_error);

  Trace t("x", 1);
  t.add(make_event(0, 1, posix::OpType::kRead, 0, 8));
  std::stringstream ss;
  t.write_binary_v3(ss);
  std::string truncated = ss.str().substr(0, ss.str().size() - 10);
  std::stringstream cut(truncated);
  EXPECT_THROW((void)Trace::read_binary(cut), std::runtime_error);
}

TEST(TraceTest, LoadAutoDetectsBothFormats) {
  Trace t("autodetect", 2);
  t.add(make_event(1.0, 2.0, posix::OpType::kFsync, 1, 0));
  std::string tsv_path = test::temp_path("eio_auto.tsv");
  std::string bin_path = test::temp_path("eio_auto.bin");
  t.save(tsv_path);
  t.save_binary_v3(bin_path);
  Trace from_tsv = Trace::load(tsv_path);
  Trace from_bin = Trace::load(bin_path);
  EXPECT_EQ(from_tsv.size(), 1u);
  EXPECT_EQ(from_bin.size(), 1u);
  EXPECT_EQ(from_bin.experiment(), "autodetect");
  EXPECT_DOUBLE_EQ(from_bin.events()[0].start, 1.0);
  std::remove(tsv_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(TraceTest, EmptyTraceRoundTrips) {
  Trace t("empty", 0);
  std::stringstream ss;
  t.write(ss);
  Trace back = Trace::read(ss);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.experiment(), "empty");
}

}  // namespace
}  // namespace eio::ipm
