// Unit tests for the online health monitor: each detector on a
// synthetic stream it must fire on, marker recovery, hysteresis
// clearing, the kernel merge contract (chunked == serial, byte for
// byte), and the JSONL writer.
#include "monitor/health.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "fault/plan.h"
#include "ipm/trace.h"

namespace eio::monitor {
namespace {

using ipm::TraceEvent;
using posix::OpType;

/// Bulk event: big enough for the default admission filter.
TraceEvent bulk(Seconds start, Seconds duration, OpType op, RankId rank,
                FileId file, std::int32_t phase = 0) {
  return {start, duration, op, rank, file, 0, 4 * MiB, phase};
}

/// Fault marker the way posix::PosixIo::notify_fault encodes one:
/// file = component, offset = kind, duration = detail.
TraceEvent marker(Seconds time, fault::Kind kind, std::uint64_t component,
                  RankId rank, double detail) {
  return {time,     detail, OpType::kFault, rank,
          component, static_cast<Bytes>(kind), 0, 0};
}

HealthOptions small_options() {
  HealthOptions opt;
  opt.ost_count = 8;
  opt.window = 256;
  opt.stride = 32;
  opt.min_events = 32;
  return opt;
}

TEST(HealthKernelTest, QuietStreamOpensNothing) {
  HealthKernel k(small_options());
  for (int i = 0; i < 400; ++i) {
    k.add(bulk(0.01 * i, 0.010, OpType::kWrite, i % 8,
               1 + static_cast<FileId>(i % 8)));
  }
  k.finish();
  EXPECT_TRUE(k.incidents().empty());
  EXPECT_GT(k.counts().windows_evaluated, 0u);
  EXPECT_EQ(k.counts().incidents_opened, 0u);
}

TEST(HealthKernelTest, DegradedOstClassFires) {
  HealthKernel k(small_options());
  // Files 1..8 map to classes (file-1)%8 = 0..7; class 5 (file 6)
  // runs 5x slower than the fleet.
  for (int i = 0; i < 400; ++i) {
    FileId file = 1 + static_cast<FileId>(i % 8);
    double d = file == 6 ? 0.050 : 0.010;
    k.add(bulk(0.01 * i, d, OpType::kWrite, i % 4, file));
  }
  k.finish();
  ASSERT_FALSE(k.incidents().empty());
  const Incident& inc = k.incidents().front();
  EXPECT_EQ(inc.kind, IncidentKind::kDegradedOst);
  EXPECT_EQ(inc.subject, 5u);
  EXPECT_GE(inc.statistic, 2.5);
  EXPECT_GT(inc.severity, 0.0);
  EXPECT_EQ(k.counts().degraded_ost, 1u);
}

TEST(HealthKernelTest, StragglerRankFiresOnPhaseGaps) {
  HealthKernel k(small_options());
  // 8 ranks x 5 barrier phases; rank 3 finishes each phase 5x late.
  for (std::int32_t p = 0; p < 5; ++p) {
    for (RankId r = 0; r < 8; ++r) {
      double d = r == 3 ? 0.50 : 0.10;
      k.add(bulk(p * 1.0, d, OpType::kWrite, r, 1 + r, p));
    }
  }
  k.finish();
  ASSERT_FALSE(k.incidents().empty());
  const Incident& inc = k.incidents().front();
  EXPECT_EQ(inc.kind, IncidentKind::kStragglerRank);
  EXPECT_EQ(inc.subject, 3u);
  EXPECT_GE(inc.statistic, 1.5);
  EXPECT_EQ(k.counts().straggler_rank, 1u);
}

TEST(HealthKernelTest, DistributionDriftFiresWhenEnabled) {
  HealthOptions opt = small_options();
  opt.ost_count = 0;      // isolate the drift detector
  opt.drift_window = 64;
  opt.drift_d = 0.5;
  HealthKernel k(opt);
  // Warm-up freezes a 64-sample baseline at 10 ms; the stream then
  // shifts to 50 ms — KS D -> 1.
  for (int i = 0; i < 300; ++i) {
    double d = i < 128 ? 0.010 : 0.050;
    k.add(bulk(0.01 * i, d, OpType::kWrite, 0, 1));
  }
  k.finish();
  ASSERT_FALSE(k.incidents().empty());
  const Incident& inc = k.incidents().front();
  EXPECT_EQ(inc.kind, IncidentKind::kDistributionDrift);
  EXPECT_EQ(inc.subject, static_cast<std::uint64_t>(OpType::kWrite));
  EXPECT_GE(inc.statistic, 0.5);
  EXPECT_EQ(k.counts().drift, 1u);
}

TEST(HealthKernelTest, DriftDetectorIsOffByDefault) {
  HealthOptions opt = small_options();
  opt.ost_count = 0;
  opt.drift_window = 64;  // drift_d stays 0 = off
  HealthKernel k(opt);
  for (int i = 0; i < 300; ++i) {
    double d = i < 128 ? 0.010 : 0.050;
    k.add(bulk(0.01 * i, d, OpType::kWrite, 0, 1));
  }
  k.finish();
  EXPECT_TRUE(k.incidents().empty());
}

TEST(HealthKernelTest, InjectedMarkersOpenAndClear) {
  HealthKernel k(small_options());
  k.add(marker(0.5, fault::Kind::kOstDegraded, 5, kInvalidRank, 0.25));
  k.add(bulk(0.6, 0.01, OpType::kWrite, 0, 1));
  k.add(marker(2.0, fault::Kind::kOstRestored, 5, kInvalidRank, 0.0));
  k.add(marker(3.0, fault::Kind::kStall, 0, 7, 0.12));
  k.add(marker(3.5, fault::Kind::kRetry, 2, 9, 0.30));
  k.finish();

  ASSERT_EQ(k.incidents().size(), 3u);
  const Incident& ost = k.incidents()[0];
  EXPECT_EQ(ost.kind, IncidentKind::kInjectedOstDegraded);
  EXPECT_EQ(ost.subject, 5u);
  EXPECT_DOUBLE_EQ(ost.onset_time, 0.5);
  EXPECT_GE(ost.clear_event, 0);  // restored marker cleared it
  EXPECT_DOUBLE_EQ(ost.clear_time, 2.0);

  EXPECT_EQ(k.incidents()[1].kind, IncidentKind::kInjectedStall);
  EXPECT_EQ(k.incidents()[1].subject, 7u);
  EXPECT_EQ(k.incidents()[2].kind, IncidentKind::kInjectedRetry);
  EXPECT_EQ(k.incidents()[2].subject, 9u);
  EXPECT_EQ(k.counts().injected, 3u);
  EXPECT_EQ(k.counts().incidents_cleared, 1u);
}

/// The merge contract: split any stream into chunks, merge partials in
/// chunk order, and the incident log is byte-identical to one serial
/// pass — this is what makes --jobs=N deterministic. Unadmitted rows
/// between buffered ones and markers inside later chunks check the
/// stream indices a replay recovers; merging later partials into each
/// other before the root (right to left) checks appending buffers.
TEST(HealthKernelTest, ChunkedMergeMatchesSerialByteForByte) {
  std::vector<TraceEvent> stream;
  stream.push_back(marker(0.0, fault::Kind::kOstDegraded, 5, kInvalidRank, 0.2));
  for (int i = 0; i < 400; ++i) {
    FileId file = 1 + static_cast<FileId>(i % 8);
    double d = file == 6 ? 0.055 : 0.011;
    stream.push_back(
        bulk(0.01 * i, d, OpType::kWrite, i % 8, file, i / 100));
    if (i % 3 == 0) {  // below the admission threshold
      TraceEvent small = stream.back();
      small.bytes = 4 * KiB;
      stream.push_back(small);
    }
    if (i == 250) {
      stream.push_back(marker(2.5, fault::Kind::kStall, 0, 3, 0.1));
      stream.push_back(
          marker(2.5, fault::Kind::kOstRestored, 5, kInvalidRank, 0.0));
    }
  }

  HealthOptions opt = small_options();
  HealthKernel serial(opt, 0);
  for (const TraceEvent& e : stream) serial.add(e);
  serial.finish();
  ASSERT_GE(serial.incidents().size(), 3u);

  for (std::size_t chunks : {2u, 4u, 7u}) {
    for (bool right_to_left : {false, true}) {
      std::vector<HealthKernel> parts;
      for (std::size_t c = 0; c < chunks; ++c) parts.emplace_back(opt, c);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        parts[i * chunks / stream.size()].add(stream[i]);
      }
      HealthKernel merged = std::move(parts[0]);
      if (right_to_left) {
        for (std::size_t c = chunks - 1; c > 1; --c) {
          parts[c - 1].merge(std::move(parts[c]));
        }
        merged.merge(std::move(parts[1]));
      } else {
        for (std::size_t c = 1; c < chunks; ++c) {
          merged.merge(std::move(parts[c]));
        }
      }
      merged.finish();

      std::ostringstream a, b;
      write_incidents_jsonl(a, serial.incidents());
      write_incidents_jsonl(b, merged.incidents());
      EXPECT_EQ(a.str(), b.str())
          << "chunks=" << chunks << " right_to_left=" << right_to_left;
      EXPECT_EQ(serial.counts().incidents_opened,
                merged.counts().incidents_opened);
      EXPECT_EQ(serial.counts().windows_evaluated,
                merged.counts().windows_evaluated);
      EXPECT_EQ(serial.events_consumed(), merged.events_consumed());
    }
  }
}

TEST(HealthKernelTest, DisabledKernelConsumesNothing) {
  HealthOptions opt = small_options();
  opt.enabled = false;
  HealthKernel k(opt);
  EXPECT_EQ(k.required_columns(), ipm::ColumnMask{0});
  k.add(bulk(0.0, 0.01, OpType::kWrite, 0, 1));
  k.finish();
  EXPECT_TRUE(k.incidents().empty());
  EXPECT_EQ(k.events_consumed(), 0u);
}

TEST(HealthSinkTest, WrapsRootedKernel) {
  HealthSink sink(small_options());
  sink.on_event(marker(1.0, fault::Kind::kStragglerStall, 0, 4, 0.8));
  sink.finish();
  ASSERT_EQ(sink.kernel().incidents().size(), 1u);
  EXPECT_EQ(sink.kernel().incidents()[0].kind,
            IncidentKind::kInjectedStraggler);
  EXPECT_EQ(sink.kernel().incidents()[0].subject, 4u);
}

TEST(IncidentJsonlTest, FixedKeyOrderAndEscaping) {
  Incident inc;
  inc.kind = IncidentKind::kDegradedOst;
  inc.subject = 5;
  inc.onset_event = 100;
  inc.clear_event = 200;
  inc.onset_time = 1.5;
  inc.clear_time = 2.5;
  inc.severity = 0.75;
  inc.statistic = 3.25;
  inc.threshold = 2.5;
  inc.evidence = "say \"hi\" \\ bye";
  std::ostringstream out;
  write_incidents_jsonl(out, {inc}, 3);
  EXPECT_EQ(out.str(),
            "{\"run\":3,\"kind\":\"degraded-ost\",\"subject\":5,"
            "\"onset_event\":100,\"clear_event\":200,\"onset_time\":1.5,"
            "\"clear_time\":2.5,\"severity\":0.75,\"statistic\":3.25,"
            "\"threshold\":2.5,\"evidence\":\"say \\\"hi\\\" \\\\ bye\"}\n");
}

}  // namespace
}  // namespace eio::monitor
