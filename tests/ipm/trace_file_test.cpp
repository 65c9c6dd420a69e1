// Streaming trace files: a TraceFileSink must produce exactly the bytes
// Trace::save / save_binary_v3 write for the same events, and nothing
// may appear at the target path until commit().
#include "ipm/trace_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <span>
#include <string>

#include "ipm/columns.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "obs/registry.h"
#include "support/temp_path.h"

namespace eio::ipm {
namespace {

namespace fs = std::filesystem;

/// Enough events for three v3 chunks, with times that need all nine
/// significant TSV digits.
Trace sample_trace(std::size_t events = 9000) {
  Trace t("file-sink-test", 16);
  for (std::size_t i = 0; i < events; ++i) {
    TraceEvent e;
    e.start = 0.1 * static_cast<double>(i) / 3.0;
    e.duration = 1.0 / static_cast<double>(i + 7);
    e.op = i % 3 == 0 ? posix::OpType::kRead : posix::OpType::kWrite;
    e.rank = static_cast<RankId>(i % 16);
    e.file = static_cast<FileId>(i % 5);
    e.offset = static_cast<Bytes>(i) * 65536;
    e.bytes = 65536;
    e.phase = static_cast<std::int32_t>(i / 100);
    t.add(e);
  }
  return t;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Files in `dir` whose names end in ".tmp".
std::size_t temp_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++n;
  }
  return n;
}

/// Feed a trace's rows in the capture path's batches.
void stream_into(TraceFileSink& sink, const Trace& t) {
  constexpr std::size_t kBatch = TraceSource::kDefaultBatchEvents;
  ColumnScratch scratch;
  const std::span<const TraceEvent> rows(t.events());
  for (std::size_t i = 0; i < rows.size(); i += kBatch) {
    sink.add_batch(
        shred(rows.subspan(i, std::min(kBatch, rows.size() - i)), scratch));
  }
}

class TraceFileSinkTest : public ::testing::TestWithParam<TraceFormat> {
 protected:
  [[nodiscard]] std::string saved_by_trace(const Trace& t) const {
    const std::string path = test::temp_path("expected");
    if (GetParam() == TraceFormat::kTsv) {
      t.save(path);
    } else {
      t.save_binary_v3(path);
    }
    return read_file(path);
  }
};

TEST_P(TraceFileSinkTest, BytesEqualTheMaterializedSave) {
  for (std::size_t events :
       {std::size_t{0}, std::size_t{1}, std::size_t{9000}}) {
    const Trace t = sample_trace(events);
    const std::string path = test::temp_path("streamed");
    TraceFileSink sink(path, GetParam(), t.experiment(), t.ranks());
    stream_into(sink, t);
    sink.finish();
    sink.commit();
    EXPECT_EQ(sink.events_written(), events);
    EXPECT_EQ(read_file(path), saved_by_trace(t)) << events << " events";
  }
  EXPECT_EQ(temp_files(test::temp_dir()), 0u);
}

TEST_P(TraceFileSinkTest, UncommittedSinkLeavesNoFile) {
  const Trace t = sample_trace();
  const std::string path = test::temp_path("abandoned");
  {
    TraceFileSink sink(path, GetParam(), t.experiment(), t.ranks());
    stream_into(sink, t);
    EXPECT_GT(temp_files(test::temp_dir()), 0u);
  }
  {
    TraceFileSink sink(path, GetParam(), t.experiment(), t.ranks());
    stream_into(sink, t);
    sink.finish();
    EXPECT_FALSE(fs::exists(path)) << "visible before commit()";
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(temp_files(test::temp_dir()), 0u);
}

TEST_P(TraceFileSinkTest, FinishIsIdempotentAndCommitPublishes) {
  const Trace t = sample_trace();
  const std::string path = test::temp_path("published");
  std::ofstream(path) << "an older file at the target";
  TraceFileSink sink(path, GetParam(), t.experiment(), t.ranks());
  stream_into(sink, t);
  sink.finish();
  sink.finish();
  EXPECT_TRUE(sink.good());
  sink.commit();
  EXPECT_EQ(read_file(path), saved_by_trace(t));
  EXPECT_EQ(temp_files(test::temp_dir()), 0u);
}

TEST_P(TraceFileSinkTest, CountsBytesAndChunksOncePerFile) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  obs::set_enabled(true);
  const Trace t = sample_trace();
  const std::string path = test::temp_path("counted");
  TraceFileSink sink(path, GetParam(), t.experiment(), t.ranks());
  stream_into(sink, t);
  sink.finish();
  sink.finish();
  sink.commit();
  obs::Snapshot snap = reg.snapshot();
  obs::set_enabled(false);
  reg.reset();

  auto counter = [&snap](const std::string& name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  EXPECT_EQ(counter("ipm.trace_bytes_written"), fs::file_size(path));
  // 9,000 events at the default 4,096 per chunk.
  EXPECT_EQ(counter("ipm.trace_chunks_written"),
            GetParam() == TraceFormat::kBinaryV3 ? 3u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Formats, TraceFileSinkTest,
                         ::testing::Values(TraceFormat::kTsv,
                                           TraceFormat::kBinaryV3),
                         [](const auto& info) {
                           return info.param == TraceFormat::kTsv ? "tsv"
                                                                  : "v3";
                         });

TEST(PendingFileTest, RemovesItsTemporaryUnlessCommitted) {
  const std::string path = test::temp_path("pending");
  {
    PendingFile f(path);
    f.stream() << "partial";
    EXPECT_TRUE(fs::exists(f.temp_path()));
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  PendingFile f(path);
  f.stream() << "complete";
  f.commit();
  EXPECT_EQ(read_file(path), "complete");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(PendingFileTest, UnopenableTemporaryThrows) {
  const std::string path = test::temp_path("blocked");
  fs::create_directory(path + ".tmp");
  EXPECT_THROW(PendingFile f(path), std::runtime_error);
  EXPECT_THROW(TraceFileSink(path, TraceFormat::kBinaryV3, "x", 1),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(path));
}

}  // namespace
}  // namespace eio::ipm
