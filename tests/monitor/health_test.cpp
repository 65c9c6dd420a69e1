// Unit tests for the online health monitor: each detector on a
// synthetic stream it must fire on, marker recovery, hysteresis
// clearing, the kernel merge contract (chunked == serial, byte for
// byte), and the JSONL writer.
#include "monitor/health.h"

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "fault/plan.h"
#include "ipm/columns.h"
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

/// Hand rows to a kernel as one batch, the form every producer uses.
void feed(HealthKernel& k, std::span<const TraceEvent> rows) {
  ipm::ColumnScratch scratch;
  k.add_batch(ipm::shred(rows, scratch));
}

void feed(HealthKernel& k, const TraceEvent& e) {
  feed(k, std::span<const TraceEvent>(&e, 1));
}

/// Cut `rows` into one consecutive batch per part, row i going to part
/// i * parts / rows — the split a chunked scan makes.
void feed_split(std::vector<HealthKernel>& parts,
                std::span<const TraceEvent> rows) {
  std::size_t begin = 0;
  for (std::size_t c = 0; c < parts.size(); ++c) {
    std::size_t end = begin;
    while (end < rows.size() && end * parts.size() / rows.size() == c) ++end;
    feed(parts[c], rows.subspan(begin, end - begin));
    begin = end;
  }
}

HealthOptions small_options() {
  HealthOptions opt;
  opt.ost_count = 8;
  opt.window = 256;
  opt.stride = 32;
  return opt;
}

TEST(HealthKernelTest, QuietStreamOpensNothing) {
  HealthKernel k(small_options());
  for (int i = 0; i < 400; ++i) {
    feed(k, bulk(0.01 * i, 0.010, OpType::kWrite, i % 8,
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
    feed(k, bulk(0.01 * i, d, OpType::kWrite, i % 4, file));
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
      feed(k, bulk(p * 1.0, d, OpType::kWrite, r, 1 + r, p));
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
    feed(k, bulk(0.01 * i, d, OpType::kWrite, 0, 1));
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
    feed(k, bulk(0.01 * i, d, OpType::kWrite, 0, 1));
  }
  k.finish();
  EXPECT_TRUE(k.incidents().empty());
}

TEST(HealthKernelTest, InjectedMarkersOpenAndClear) {
  HealthKernel k(small_options());
  feed(k, marker(0.5, fault::Kind::kOstDegraded, 5, kInvalidRank, 0.25));
  feed(k, bulk(0.6, 0.01, OpType::kWrite, 0, 1));
  feed(k, marker(2.0, fault::Kind::kOstRestored, 5, kInvalidRank, 0.0));
  feed(k, marker(3.0, fault::Kind::kStall, 0, 7, 0.12));
  feed(k, marker(3.5, fault::Kind::kRetry, 2, 9, 0.30));
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
/// between admitted ones and markers inside later chunks check the
/// stream indices a segment keeps; merging later partials into each
/// other before the root (right to left) checks appending segments.
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
  feed(serial, stream);
  serial.finish();
  ASSERT_GE(serial.incidents().size(), 3u);

  for (std::size_t chunks : {2u, 4u, 7u}) {
    for (bool right_to_left : {false, true}) {
      std::vector<HealthKernel> parts;
      for (std::size_t c = 0; c < chunks; ++c) parts.emplace_back(opt, c);
      feed_split(parts, stream);
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

/// A fixed, library-independent duration jitter in [0, 1).
double jitter(std::size_t i) {
  return static_cast<double>((i * 2654435761u) % 1000u) / 1000.0;
}

/// Counts line + incident JSONL + rows consumed: everything a kernel
/// reports.
std::string render(const HealthKernel& k) {
  const Counts& c = k.counts();
  std::ostringstream out;
  out << c.windows_evaluated << ' ' << c.phases_evaluated << ' '
      << c.incidents_opened << ' ' << c.incidents_cleared << ' '
      << c.degraded_ost << ' ' << c.straggler_rank << ' ' << c.drift << ' '
      << c.injected << ' ' << k.events_consumed() << '\n';
  write_incidents_jsonl(out, k.incidents());
  return out.str();
}

/// A stream whose events land on the edges of 1-, 2-, 7- and 64-row
/// chunks: markers at rows 49k and 64k (the first row of those chunks),
/// phase changes at rows 14k and 64k + 1 (the first data row after a
/// 64-row edge), one phase step backwards, unadmitted rows and rows
/// without a file id between them, a slow OST class and a late rank.
std::vector<TraceEvent> edge_stream() {
  std::vector<TraceEvent> rows;
  std::int32_t phase = 0;
  int markers = 0;
  for (std::size_t j = 0; j < 900; ++j) {
    const double t = 0.01 * static_cast<double>(j);
    if (j % 64 == 0 || j % 49 == 0) {
      switch (markers++ % 5) {
        case 0: rows.push_back(marker(t, fault::Kind::kOstDegraded, 5, kInvalidRank, 0.25)); break;
        case 1: rows.push_back(marker(t, fault::Kind::kStall, 0, static_cast<RankId>(j % 8), 0.1)); break;
        case 2: rows.push_back(marker(t, fault::Kind::kOstRestored, 5, kInvalidRank, 0.0)); break;
        case 3: rows.push_back(marker(t, fault::Kind::kRetry, 1, static_cast<RankId>(j % 8), 0.2)); break;
        default: rows.push_back(marker(t, fault::Kind::kStragglerStall, 0, 3, 0.3)); break;
      }
      continue;
    }
    if (j % 14 == 0 || j % 64 == 1) ++phase;
    if (j == 301) phase -= 2;
    const auto rank = static_cast<RankId>(j % 8);
    const FileId file = j % 11 == 0 ? kInvalidFile : 1 + j % 8;
    const double d = (file == 6 ? 0.05 : 0.01) * (1.0 + jitter(j)) *
                     (rank == 3 ? 3.0 : 1.0);
    TraceEvent e = bulk(t, d, j % 3 == 0 ? OpType::kRead : OpType::kWrite,
                        rank, file, phase);
    if (j % 5 == 2) e.bytes = 4 * KiB;  // below the admission threshold
    rows.push_back(e);
  }
  return rows;
}

/// Segments at adversarial boundaries: any chunking, merged left to
/// right or right to left, and the stream as one batch, report exactly
/// what a rooted kernel fed one row per batch does — with a stride
/// that does not divide the window, a window larger than the chunks,
/// and drift on.
TEST(HealthKernelTest, SegmentsAtChunkEdgesMatchOneRowBatches) {
  const std::vector<TraceEvent> stream = edge_stream();
  std::vector<HealthOptions> variants;
  HealthOptions opt = small_options();
  opt.window = 100;
  opt.stride = 24;
  variants.push_back(opt);
  opt.drift_d = 0.3;
  opt.drift_window = 16;
  variants.push_back(opt);
  opt = small_options();
  opt.window = 32;
  opt.stride = 7;
  variants.push_back(opt);

  for (std::size_t v = 0; v < variants.size(); ++v) {
    const HealthOptions& o = variants[v];
    HealthKernel rows(o, 0);
    for (const TraceEvent& e : stream) feed(rows, e);
    rows.finish();
    const std::string want = render(rows);
    EXPECT_GE(rows.incidents().size(), 3u) << "variant " << v;
    EXPECT_GT(rows.counts().phases_evaluated, 0u) << "variant " << v;

    HealthKernel whole(o, 0);
    feed(whole, stream);
    whole.finish();
    EXPECT_EQ(render(whole), want) << "variant " << v << " one batch";

    for (std::size_t chunk : {1u, 2u, 7u, 64u}) {
      for (bool right_to_left : {false, true}) {
        std::vector<HealthKernel> parts;
        for (std::size_t at = 0; at < stream.size(); at += chunk) {
          parts.emplace_back(o, parts.size());
          const std::size_t n = std::min(chunk, stream.size() - at);
          feed(parts.back(), std::span<const TraceEvent>(stream).subspan(at, n));
        }
        if (right_to_left) {
          for (std::size_t c = parts.size() - 1; c > 1; --c) {
            parts[c - 1].merge(std::move(parts[c]));
          }
          if (parts.size() > 1) parts[0].merge(std::move(parts[1]));
        } else {
          for (std::size_t c = 1; c < parts.size(); ++c) {
            parts[0].merge(std::move(parts[c]));
          }
        }
        parts[0].finish();
        EXPECT_EQ(render(parts[0]), want)
            << "variant " << v << " chunk " << chunk
            << " right_to_left " << right_to_left;
      }
    }
  }
}

/// Counts line + incident JSONL of a serial pass over `stream`, after
/// checking that a 3-chunk partial merge (segments applied by the
/// rooted kernel) gives the same bytes.
std::string monitored(const HealthOptions& opt,
                      const std::vector<TraceEvent>& stream) {
  auto render = [](const HealthKernel& k) {
    const Counts& c = k.counts();
    std::ostringstream out;
    out << c.windows_evaluated << ' ' << c.phases_evaluated << ' '
        << c.incidents_opened << ' ' << c.incidents_cleared << ' '
        << c.degraded_ost << ' ' << c.straggler_rank << ' ' << c.drift << ' '
        << c.injected << '\n';
    write_incidents_jsonl(out, k.incidents());
    return out.str();
  };
  HealthKernel serial(opt, 0);
  feed(serial, stream);
  serial.finish();
  std::vector<HealthKernel> parts;
  for (std::size_t c = 0; c < 3; ++c) parts.emplace_back(opt, c);
  feed_split(parts, stream);
  parts[1].merge(std::move(parts[2]));
  parts[0].merge(std::move(parts[1]));
  parts[0].finish();
  const std::string bytes = render(serial);
  EXPECT_EQ(bytes, render(parts[0])) << "chunked merge differs";
  return bytes;
}

// The evaluation pins below are exact: whatever selection routine
// computes the medians must reproduce them byte for byte.

TEST(HealthKernelTest, OneClassWindowPinned) {
  // A shared file puts every row in one class (the GCRM/MADbench
  // pattern): each evaluation selects over the whole 2,048-row ring
  // and finds fewer than 3 classes. The stream then fans out over 8
  // files with file 6 slow, and the class medians take over.
  HealthOptions opt;
  opt.ost_count = 48;
  std::vector<TraceEvent> stream;
  for (std::size_t i = 0; i < 8192; ++i) {
    const FileId file = i < 4096 ? 1 : 1 + i % 8;
    const double d = (file == 6 ? 0.04 : 0.01) * (1.0 + jitter(i));
    stream.push_back(bulk(0.001 * static_cast<double>(i), d, OpType::kWrite,
                          static_cast<RankId>(i % 16), file,
                          static_cast<std::int32_t>(i / 2048)));
  }
  EXPECT_EQ(monitored(opt, stream),
            "8 4 1 0 1 0 0 0\n"
            "{\"run\":0,\"kind\":\"degraded-ost\",\"subject\":5,"
            "\"onset_event\":5119,\"clear_event\":-1,\"onset_time\":5.119,"
            "\"clear_time\":-1,\"severity\":1,\"statistic\":4.01333333,"
            "\"threshold\":2.5,\"evidence\":\"OST 5: class median runs "
            "4.01333x the fleet median over the last 2048 bulk transfers "
            "(256 events; runner-up at 1.00533x)\"}\n");
}

TEST(HealthKernelTest, RowsWithoutFileIdPinned) {
  // Every third admitted row has no file id: it fills the ring and
  // counts toward min_events, but never joins a class.
  std::vector<TraceEvent> stream;
  stream.push_back(marker(0.0, fault::Kind::kOstDegraded, 2, kInvalidRank, 0.3));
  for (std::size_t i = 0; i < 1200; ++i) {
    const FileId file = i % 3 == 0 ? kInvalidFile : 1 + i % 8;
    const double d = (file == 3 ? 0.03 : 0.01) * (1.0 + jitter(i));
    stream.push_back(bulk(0.01 * static_cast<double>(i), d, OpType::kRead,
                          static_cast<RankId>(i % 8), file));
    if (i == 700) {
      stream.push_back(
          marker(7.0, fault::Kind::kOstRestored, 2, kInvalidRank, 0.0));
    }
  }
  EXPECT_EQ(monitored(small_options(), stream),
            "38 1 2 1 1 0 0 1\n"
            "{\"run\":0,\"kind\":\"injected-ost-degraded\",\"subject\":2,"
            "\"onset_event\":0,\"clear_event\":702,\"onset_time\":0,"
            "\"clear_time\":7,\"severity\":0.7,\"statistic\":0.3,"
            "\"threshold\":1,\"evidence\":\"OST 2 bandwidth degraded to "
            "0.3x (injected)\"}\n"
            "{\"run\":0,\"kind\":\"degraded-ost\",\"subject\":2,"
            "\"onset_event\":96,\"clear_event\":-1,\"onset_time\":0.95,"
            "\"clear_time\":-1,\"severity\":0.78847435,"
            "\"statistic\":3.1538974,\"threshold\":2.5,\"evidence\":\"OST "
            "2: class median runs 3.1539x the fleet median over the last 224 "
            "bulk transfers (19 events; runner-up at 1.04064x)\"}\n");
}

TEST(HealthKernelTest, TiedDurationsPinned) {
  // Three duration levels only, so every class median interpolates
  // between (or lands on) tied values; class 3 sits on the slow level
  // for a stretch, then recovers.
  std::vector<TraceEvent> stream;
  const double levels[] = {0.010, 0.012, 0.030};
  for (std::size_t i = 0; i < 1500; ++i) {
    const FileId file = 1 + i % 8;
    const bool slow = file == 4 && i >= 300 && i < 900;
    const double d = slow ? levels[2] : levels[(i / 8) % 2];
    stream.push_back(bulk(0.01 * static_cast<double>(i), d, OpType::kWrite,
                          static_cast<RankId>(i % 8), file,
                          static_cast<std::int32_t>(i / 250)));
  }
  EXPECT_EQ(monitored(small_options(), stream),
            "47 6 1 1 1 0 0 0\n"
            "{\"run\":0,\"kind\":\"degraded-ost\",\"subject\":3,"
            "\"onset_event\":447,\"clear_event\":1087,\"onset_time\":4.47,"
            "\"clear_time\":10.87,\"severity\":0.681818182,"
            "\"statistic\":2.72727273,\"threshold\":2.5,\"evidence\":\"OST "
            "3: class median runs 2.72727x the fleet median over the last 256 "
            "bulk transfers (32 events; runner-up at 1x)\"}\n");
}

TEST(HealthKernelTest, ZeroWindowOrStrideIsRejected) {
  HealthOptions opt = small_options();
  opt.window = 0;
  EXPECT_THROW(HealthKernel{opt}, std::exception);
  opt = small_options();
  opt.stride = 0;
  EXPECT_THROW(HealthKernel{opt}, std::exception);
}

TEST(HealthKernelTest, DisabledKernelConsumesNothing) {
  HealthOptions opt = small_options();
  opt.enabled = false;
  HealthKernel k(opt);
  EXPECT_EQ(k.required_columns(), ipm::ColumnMask{0});
  feed(k, bulk(0.0, 0.01, OpType::kWrite, 0, 1));
  k.finish();
  EXPECT_TRUE(k.incidents().empty());
  EXPECT_EQ(k.events_consumed(), 0u);
}

TEST(HealthKernelTest, RunsAsACaptureSink) {
  HealthKernel kernel(small_options());
  ipm::EventSink& sink = kernel;
  const TraceEvent e = marker(1.0, fault::Kind::kStragglerStall, 0, 4, 0.8);
  ipm::ColumnScratch scratch;
  sink.add_batch(ipm::shred(std::span<const TraceEvent>(&e, 1), scratch));
  sink.finish();
  ASSERT_EQ(kernel.incidents().size(), 1u);
  EXPECT_EQ(kernel.incidents()[0].kind, IncidentKind::kInjectedStraggler);
  EXPECT_EQ(kernel.incidents()[0].subject, 4u);
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
