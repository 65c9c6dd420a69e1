// Tests for the eiotrace command-line analyzer.
#include "cli/eiotrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/command.h"
#include "common/rng.h"
#include "common/units.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"
#include "support/temp_path.h"

namespace eio::cli {
namespace {

using posix::OpType;

/// Writes a representative trace to a temp file and cleans it up.
class EiotraceTest : public ::testing::Test {
 protected:
  /// The fixture trace: 8 ranks, 48 strided reads (phases 0-5) and 32
  /// aligned writes (phases 10-13).
  static ipm::Trace fixture_trace() {
    ipm::Trace t("cli-test", 8);
    rng::Stream r(1);
    // 8 ranks x 6 strided unaligned reads + 4 aligned writes each.
    Bytes stride = 65 * MiB;
    for (RankId rank = 0; rank < 8; ++rank) {
      for (int i = 0; i < 6; ++i) {
        ipm::TraceEvent e;
        e.start = i * 10.0;
        e.duration = 2.0 * r.noise(0.2);
        e.op = OpType::kRead;
        e.rank = rank;
        e.file = 1;
        e.offset = rank * 600 * MiB + static_cast<Bytes>(i) * stride;
        e.bytes = 8 * MiB;
        e.phase = i;
        t.add(e);
      }
      for (int i = 0; i < 4; ++i) {
        ipm::TraceEvent e;
        e.start = 60.0 + i * 5.0;
        e.duration = 1.0 * r.noise(0.2);
        e.op = OpType::kWrite;
        e.rank = rank;
        e.file = 1;
        e.offset = (static_cast<Bytes>(i) * 8 + rank) * 16 * MiB;
        e.bytes = 16 * MiB;
        e.phase = 10 + i;
        t.add(e);
      }
    }
    return t;
  }

  void SetUp() override {
    path_ = test::temp_path("eiotrace_test.tsv");
    fixture_trace().save(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// The fixture trace as a v3 file with small chunks, so even this
  /// little trace gives the chunk counters something to count.
  static std::string write_chunked(const std::string& tag) {
    const ipm::Trace t = fixture_trace();
    std::string path = test::temp_path("eiotrace_" + tag + ".v3");
    std::ofstream out(path, std::ios::binary);
    ipm::TraceWriterV3 w(out, t.experiment(), t.ranks(), {.chunk_events = 16});
    for (const ipm::TraceEvent& e : t.events()) w.add(e);
    w.finish();
    return path;
  }

  /// Run a command line; returns {exit code, stdout, stderr}.
  std::tuple<int, std::string, std::string> run(std::vector<std::string> args) {
    std::ostringstream out, err;
    int rc = run_eiotrace(args, out, err);
    return {rc, out.str(), err.str()};
  }

  std::string path_;
};

TEST_F(EiotraceTest, NoArgsPrintsUsageAndFails) {
  auto [rc, out, err] = run({});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST_F(EiotraceTest, HelpSucceeds) {
  auto [rc, out, err] = run({"help"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("diagnose"), std::string::npos);
}

TEST_F(EiotraceTest, UnknownCommandFails) {
  auto [rc, out, err] = run({"frobnicate", path_});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST_F(EiotraceTest, MissingFileFails) {
  auto [rc, out, err] = run({"report"});
  EXPECT_EQ(rc, 1);
  // An unreadable trace is one clean error line, on either operand of
  // compare too.
  const std::string missing = test::temp_path("missing.v3");
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"report", missing},
        std::vector<std::string>{"summary", missing, "--jobs=2"},
        std::vector<std::string>{"compare", missing, path_},
        std::vector<std::string>{"compare", path_, missing}}) {
    auto [rc2, out2, err2] = run(args);
    EXPECT_EQ(rc2, 2) << args[0];
    EXPECT_TRUE(out2.empty()) << out2;
    EXPECT_EQ(err2, "eiotrace: cannot open for reading: " + missing + "\n");
  }
}

TEST_F(EiotraceTest, ReportShowsBanner) {
  auto [rc, out, err] = run({"report", path_});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("IPM-I/O"), std::string::npos);
  EXPECT_NE(out.find("cli-test"), std::string::npos);
  EXPECT_NE(out.find("write"), std::string::npos);
}

TEST_F(EiotraceTest, SummaryHasBothOps) {
  auto [rc, out, err] = run({"summary", path_});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("write"), std::string::npos);
  EXPECT_NE(out.find("read"), std::string::npos);
  EXPECT_NE(out.find("48"), std::string::npos);  // 8x6 reads
}

TEST_F(EiotraceTest, HistogramRendersBars) {
  auto [rc, out, err] = run({"histogram", path_, "--op=read", "--bins=20"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("seconds"), std::string::npos);
}

TEST_F(EiotraceTest, HistogramEmptyFilterFails) {
  auto [rc, out, err] = run({"histogram", path_, "--op=fsync"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("no events"), std::string::npos);
}

TEST_F(EiotraceTest, BadOpFails) {
  auto [rc, out, err] = run({"histogram", path_, "--op=chmod"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("bad value 'chmod' for --op"), std::string::npos);
}

// --op takes exactly the trace format's op names: fault markers are
// ops like any other, a bad value is refused at parse time with one
// line, like any other bad flag value, and the help lists the names.
TEST_F(EiotraceTest, OpFilterTakesEveryTraceOpName) {
  const std::string slow_ost =
      std::string(EIO_SOURCE_DIR) + "/tests/cli/fixtures/slow_ost.v3";
  auto [rc, out, err] = run({"histogram", slow_ost, "--op=fault"});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find('#'), std::string::npos);

  auto [rc2, out2, err2] = run({"histogram", slow_ost, "--op=bogus"});
  EXPECT_EQ(rc2, 1);
  EXPECT_TRUE(out2.empty());
  EXPECT_EQ(std::count(err2.begin(), err2.end(), '\n'), 1) << err2;
  EXPECT_NE(err2.find("open|close|seek|read|write|fsync|fault"),
            std::string::npos)
      << err2;

  auto [rc3, out3, err3] = run({"help", "histogram"});
  EXPECT_EQ(rc3, 0);
  EXPECT_NE(out3.find("--op=any|open|close|seek|read|write|fsync|fault"),
            std::string::npos)
      << out3;
}

TEST_F(EiotraceTest, MalformedOrMiscountedTsvFailsOnOpen) {
  // Opening a TSV indexes every row, so a bad row or a count the header
  // does not declare fails before any output: exit 2, empty stdout.
  std::ostringstream text;
  fixture_trace().write(text);
  const std::string rows = text.str();
  const std::string bad = test::temp_path("eiotrace_bad.tsv");
  for (const auto& [body, why] :
       {std::pair{rows + "1.0\t0.5\tchmod\t0\t1\t0\t4096\t0\n",
                  std::string("malformed trace row")},
        std::pair{rows.substr(0, rows.rfind('\n', rows.size() - 2) + 1),
                  std::string("header declares")}}) {
    std::ofstream(bad, std::ios::binary) << body;
    for (const char* cmd : {"summary", "analyze"}) {
      auto [rc, out, err] = run({cmd, bad, "--json", "--jobs=3"});
      EXPECT_EQ(rc, 2) << cmd;
      EXPECT_TRUE(out.empty()) << cmd << ": " << out;
      EXPECT_NE(err.find(why), std::string::npos) << cmd << ": " << err;
    }
  }
  std::remove(bad.c_str());
}

TEST_F(EiotraceTest, ModesFindsTheCluster) {
  auto [rc, out, err] = run({"modes", path_, "--op=write"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("modes (32 events)"), std::string::npos);
  EXPECT_NE(out.find("mass"), std::string::npos);
}

TEST_F(EiotraceTest, RatesRendersChart) {
  auto [rc, out, err] = run({"rates", path_, "--bins=50"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("aggregate MiB/s"), std::string::npos);
}

TEST_F(EiotraceTest, DiagramRendersRaster) {
  auto [rc, out, err] = run({"diagram", path_, "--rows=8", "--cols=40"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("'#'=write"), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);  // reads present
}

TEST_F(EiotraceTest, DiagnoseRuns) {
  auto [rc, out, err] = run({"diagnose", path_});
  EXPECT_EQ(rc, 0);
  // Either findings or an explicit "no findings".
  EXPECT_FALSE(out.empty());
}

TEST_F(EiotraceTest, PatternsDetectsStridedReads) {
  auto [rc, out, err] = run({"patterns", path_});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("strided"), std::string::npos);
  EXPECT_NE(out.find("hint"), std::string::npos);
}

TEST_F(EiotraceTest, PhasesTableListsPhases) {
  auto [rc, out, err] = run({"phases", path_, "--op=read"});
  EXPECT_EQ(rc, 0);
  // Phases 0..5 (reads).
  EXPECT_NE(out.find("     0"), std::string::npos);
  EXPECT_NE(out.find("     5"), std::string::npos);
  EXPECT_NE(out.find("median"), std::string::npos);
}

TEST_F(EiotraceTest, CompareAgainstItselfIsNeutral) {
  auto [rc, out, err] = run({"compare", path_, path_});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("KS-D"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);  // B/A median ratio
  EXPECT_NE(out.find("0.0000"), std::string::npos); // KS distance
}

TEST_F(EiotraceTest, CompareNeedsTwoFiles) {
  auto [rc, out, err] = run({"compare", path_});
  EXPECT_EQ(rc, 1);
}

TEST_F(EiotraceTest, ConvertRoundTripsThroughBinary) {
  std::string bin = test::temp_path("eiotrace_test.bin");
  auto [rc, out, err] = run({"convert", path_, bin});
  EXPECT_EQ(rc, 0);
  // The binary file is analyzable like the original.
  auto [rc2, out2, err2] = run({"summary", bin});
  EXPECT_EQ(rc2, 0);
  EXPECT_NE(out2.find("write"), std::string::npos);
  std::remove(bin.c_str());
}

TEST_F(EiotraceTest, ConvertFormatFlagRoundTripsThroughV3) {
  std::string v3 = test::temp_path("eiotrace_test.v3");
  std::string back = test::temp_path("eiotrace_test_back.tsv");
  auto [rc, out, err] = run({"convert", path_, v3, "--format=v3"});
  EXPECT_EQ(rc, 0) << err;

  // The v3 file is analyzable, serially and in parallel.
  auto [rc2, out2, err2] = run({"summary", v3});
  EXPECT_EQ(rc2, 0) << err2;
  auto [rc3, out3, err3] = run({"summary", v3, "--jobs=4"});
  EXPECT_EQ(rc3, 0) << err3;
  EXPECT_EQ(out3, out2);  // parallel scan is byte-identical

  // And converts back to TSV with the same analysis output.
  auto [rc4, out4, err4] = run({"convert", v3, back, "--format=tsv"});
  EXPECT_EQ(rc4, 0) << err4;
  auto [rc5, out5, err5] = run({"summary", back});
  EXPECT_EQ(rc5, 0);
  EXPECT_EQ(out5, out2);
  std::remove(v3.c_str());
  std::remove(back.c_str());
}

TEST_F(EiotraceTest, ConvertToSameFormatIsACheckedByteCopy) {
  std::string v3 = test::temp_path("eiotrace_test_noop.v3");
  std::string copy = test::temp_path("eiotrace_test_noop_copy.v3");
  auto [rc, out, err] = run({"convert", path_, v3, "--format=v3"});
  ASSERT_EQ(rc, 0) << err;

  auto [rc2, out2, err2] = run({"convert", v3, copy, "--format=v3"});
  EXPECT_EQ(rc2, 0) << err2;
  // The no-op path says what it did — validated, then copied — rather
  // than silently re-encoding.
  EXPECT_NE(out2.find("already v3"), std::string::npos) << out2;
  EXPECT_NE(out2.find("byte-for-byte"), std::string::npos) << out2;

  std::ifstream a(v3, std::ios::binary), b(copy, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::remove(v3.c_str());
  std::remove(copy.c_str());
}

TEST_F(EiotraceTest, ConvertRejectsConflictingAndUnknownFormats) {
  std::string out_path = test::temp_path("eiotrace_test_bad.bin");
  auto [rc, out, err] = run({"convert", path_, out_path, "--format=v9"});
  EXPECT_NE(rc, 0);
  auto [rc2, out2, err2] =
      run({"convert", path_, out_path, "--format=v3", "--tsv"});
  EXPECT_NE(rc2, 0);
}

TEST_F(EiotraceTest, SimulateRunsAnEnsembleWithoutATraceFile) {
  auto [rc, out, err] = run({"simulate", "--runs=2", "--jobs=2", "--tasks=16",
                             "--block-mib=16", "--segments=1"});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("simulating 2 IOR runs"), std::string::npos);
  EXPECT_NE(out.find("pairwise KS"), std::string::npos);
  EXPECT_NE(out.find("0 vs 1"), std::string::npos);
}

TEST_F(EiotraceTest, SimulateSavesTraces) {
  std::string dir = test::temp_dir();
  auto [rc, out, err] =
      run({"simulate", "--runs=2", "--tasks=8", "--block-mib=8",
           "--segments=1", "--save-dir=" + dir});
  EXPECT_EQ(rc, 0) << err;
  // The saved traces are analyzable like any recorded one.
  std::string saved = dir + "/run0.tsv";
  auto [rc2, out2, err2] = run({"summary", saved});
  EXPECT_EQ(rc2, 0);
  EXPECT_NE(out2.find("write"), std::string::npos);
  std::remove(saved.c_str());
  std::remove((dir + "/run1.tsv").c_str());
}

/// One clean line on stderr, nothing on stdout: the fail-fast shape.
void expect_one_line_error(const std::string& out, const std::string& err,
                           const std::string& needle) {
  EXPECT_TRUE(out.empty()) << out;
  EXPECT_NE(err.find(needle), std::string::npos) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

TEST_F(EiotraceTest, SimulateIntoMissingSaveDirFailsBeforeSimulating) {
  const std::string missing = test::temp_path("missing");
  // Large enough that simulating first would print a run table.
  auto [rc, out, err] = run({"simulate", "--runs=2", "--tasks=64",
                             "--save-dir=" + missing});
  EXPECT_EQ(rc, 1);
  expect_one_line_error(out, err, "cannot write --save-dir");
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST_F(EiotraceTest, SimulateUnwritableSaveTargetFailsBeforeSimulating) {
  // The directory exists but run1's target is a directory: the check
  // must name it before any run starts, and leave run0 unwritten.
  const std::string dir = test::temp_dir();
  std::filesystem::create_directories(dir + "/run1.v3");
  auto [rc, out, err] =
      run({"simulate", "--tasks=16", "--segments=2", "--block-mib=1",
           "--runs=2", "--save-dir=" + dir, "--format=v3"});
  EXPECT_EQ(rc, 1);
  expect_one_line_error(out, err, "cannot write '" + dir + "/run1.v3'");
  EXPECT_FALSE(std::filesystem::exists(dir + "/run0.v3"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/run0.v3.tmp"));
}

TEST_F(EiotraceTest, ConvertOfCorruptChunkLeavesNoOutput) {
  // A 3-chunk v3 trace whose last chunk is damaged: the first two
  // chunks decode (and, streamed, would already be written) before
  // the decode throws.
  const std::string dir = test::temp_dir();
  auto [rc, out, err] =
      run({"simulate", "--tasks=256", "--segments=16", "--block-mib=1",
           "--runs=1", "--format=v3", "--save-dir=" + dir});
  ASSERT_EQ(rc, 0) << err;
  const std::string bad = dir + "/run0.v3";
  {
    std::ifstream in(bad, std::ios::binary);
    const ipm::TraceIndex index = ipm::read_index_v3(in);
    ASSERT_EQ(index.chunks.size(), 3u);
    std::fstream f(bad, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(index.chunks[2].offset));
    f.put('\x7f');  // not a chunk tag
  }
  for (const char* format : {"--format=tsv", "--format=v3"}) {
    const std::string target = dir + "/out." + (format + 9);
    auto [rc2, out2, err2] = run({"convert", bad, target, format});
    EXPECT_EQ(rc2, 2) << format;
    expect_one_line_error(out2, err2, "corrupt v3 trace");
    EXPECT_FALSE(std::filesystem::exists(target)) << format;
    EXPECT_FALSE(std::filesystem::exists(target + ".tmp")) << format;
    EXPECT_FALSE(std::filesystem::exists(target + ".rows.tmp")) << format;
  }
}

TEST_F(EiotraceTest, AnalyzeIncidentsIntoMissingDirFailsBeforeScanning) {
  const std::string log = test::temp_path("missing") + "/x.jsonl";
  for (const char* cmd : {"analyze", "monitor"}) {
    std::vector<std::string> args = {cmd, path_, "--incidents=" + log};
    if (std::string(cmd) == "analyze") args.push_back("--monitor");
    auto [rc, out, err] = run(args);
    EXPECT_EQ(rc, 1) << cmd;
    expect_one_line_error(out, err, "cannot write --incidents");
  }
  // The same guard covers the obs exports and convert's target.
  auto [rc, out, err] = run({"summary", path_, "--metrics", log});
  EXPECT_EQ(rc, 1);
  expect_one_line_error(out, err, "cannot write --metrics");
  auto [rc2, out2, err2] = run({"convert", path_, log});
  EXPECT_EQ(rc2, 1);
  expect_one_line_error(out2, err2, "cannot write");
  EXPECT_FALSE(std::filesystem::exists(log));
}

TEST_F(EiotraceTest, RetiredFormatsFailBeforeWork) {
  // The v1/v2 writers are gone, so a retired file is its 8-byte magic
  // plus junk: every trace command must reject it on open.
  for (const char* version : {"1", "2"}) {
    const std::string retired =
        test::temp_path(std::string("retired.v") + version);
    std::ofstream(retired, std::ios::binary)
        << "IPMIOB" << version << "\n" << "junk after the magic";
    const std::string target = test::temp_path("retired_out.v3");
    for (const std::vector<std::string>& args :
         std::vector<std::vector<std::string>>{
             {"report", retired},    {"summary", retired},
             {"analyze", retired},   {"monitor", retired},
             {"histogram", retired}, {"modes", retired},
             {"rates", retired},     {"diagram", retired},
             {"diagnose", retired},  {"patterns", retired},
             {"phases", retired},    {"compare", retired, path_},
             {"compare", path_, retired},
             {"convert", retired, target}}) {
      auto [rc, out, err] = run(args);
      EXPECT_NE(rc, 0) << args[0];
      expect_one_line_error(
          out, err, std::string("retired binary trace format v") + version);
      EXPECT_NE(err.find("reads TSV and v3"), std::string::npos) << err;
    }
    EXPECT_FALSE(std::filesystem::exists(target));
    std::remove(retired.c_str());
  }

  // Nor can anything still write them.
  const std::string target = test::temp_path("retired_out.bin");
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"convert", path_, target, "--format=v1"},
           {"convert", path_, target, "--format=v2"},
           {"convert", path_, target, "--v1"}}) {
    auto [rc, out, err] = run(args);
    EXPECT_EQ(rc, 1) << args.back();
    EXPECT_TRUE(out.empty()) << out;
  }
  EXPECT_FALSE(std::filesystem::exists(target));
  const std::string dir = test::temp_dir();
  // Large enough that simulating first would print a run table.
  auto [rc, out, err] = run({"simulate", "--runs=2", "--tasks=64",
                             "--save-dir=" + dir, "--format=v2"});
  EXPECT_EQ(rc, 1);
  expect_one_line_error(out, err, "unknown --format 'v2'");
  EXPECT_FALSE(std::filesystem::exists(dir + "/run0.v2"));
}

/// Every monitored command line, with one extra flag.
std::vector<std::vector<std::string>> monitored_commands(
    const std::string& trace, const std::string& flag) {
  return {{"monitor", trace, flag},
          {"analyze", trace, "--monitor", flag},
          // Large enough that simulating first would print a run table.
          {"simulate", "--monitor", "--runs=2", "--tasks=64", flag}};
}

TEST_F(EiotraceTest, ZeroMonitorWindowFailsBeforeWork) {
  for (const auto& args : monitored_commands(path_, "--window=0")) {
    auto [rc, out, err] = run(args);
    EXPECT_EQ(rc, 1) << args[0];
    expect_one_line_error(out, err, "--window must be at least 1");
  }
}

TEST_F(EiotraceTest, ZeroMonitorStrideFailsBeforeWork) {
  for (const auto& args : monitored_commands(path_, "--stride=0")) {
    auto [rc, out, err] = run(args);
    EXPECT_EQ(rc, 1) << args[0];
    expect_one_line_error(out, err, "--stride must be at least 1");
  }
}

TEST_F(EiotraceTest, OutOfRangeSizeValuesFailBeforeWork) {
  // Values the commands would narrow (or strtoull cannot hold) are
  // rejected while parsing, never wrapped: 4294967298 tasks is not 2.
  // So are sizes and scales below what the analysis kernels accept.
  const std::string ost = "--ost-count must be an integer in [0, 65536]";
  const std::string u32 = " must be an integer in [0, 4294967295]";
  const std::string hist_bins = "--bins must be at least 2";
  const std::string bandwidth = "--bandwidth must be greater than 0";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"simulate", "--tasks=4294967298"}, "--tasks" + u32},
       {{"simulate", "--segments=4294967296"}, "--segments" + u32},
       {{"diagnose", path_, "--ost-count=4294967344"}, ost},
       {{"diagnose", path_, "--ost-count=99999999999999999999999"}, ost},
       {{"monitor", path_, "--ost-count=4294967295"}, ost},
       {{"analyze", path_, "--monitor", "--ost-count=65537"}, ost},
       {{"summary", path_, "--jobs=99999999999999999999999"},
        "--jobs must be an integer in [0, 18446744073709551615]"},
       {{"histogram", path_, "--bins=0"}, hist_bins},
       {{"histogram", path_, "--bins=1"}, hist_bins},
       {{"analyze", path_, "--bins=0"}, hist_bins},
       {{"rates", path_, "--bins=0"}, "--bins must be at least 1"},
       {{"analyze", path_, "--rate-bins=0"}, "--rate-bins must be at least 1"},
       {{"diagram", path_, "--rows=0"}, "--rows must be at least 1"},
       {{"diagram", path_, "--cols=0"}, "--cols must be at least 1"},
       {{"modes", path_, "--bandwidth=-1"}, bandwidth},
       {{"modes", path_, "--bandwidth=0"}, bandwidth}};
  for (const auto& [args, needle] : cases) {
    auto [rc, out, err] = run(args);
    EXPECT_EQ(rc, 1) << args[0] << " " << args.back();
    expect_one_line_error(out, err, needle);
  }
  // The bound itself is accepted.
  auto [rc, out, err] = run({"diagnose", path_, "--ost-count=65536"});
  EXPECT_EQ(rc, 0) << err;
}

TEST_F(EiotraceTest, NonFiniteDoubleValuesFailBeforeWork) {
  for (const char* v : {"inf", "-inf", "nan", "1e999"}) {
    const std::string value(v);
    for (const auto& [args, flag] :
         std::vector<std::pair<std::vector<std::string>, std::string>>{
             {{"diagnose", path_, "--fair-share-mibs=" + value},
              "--fair-share-mibs"},
             {{"monitor", path_, "--drift-d=" + value}, "--drift-d"},
             {{"summary", path_, "--t-lo=" + value}, "--t-lo"}}) {
      auto [rc, out, err] = run(args);
      EXPECT_EQ(rc, 1) << args.back();
      expect_one_line_error(out, err, flag + " must be a finite number");
    }
  }
  auto [rc, out, err] = run({"diagnose", path_, "--fair-share-mibs=-3"});
  EXPECT_EQ(rc, 1);
  expect_one_line_error(out, err, "--fair-share-mibs must be at least 0");
}

TEST_F(EiotraceTest, SimulateRejectsUnknownMachine) {
  auto [rc, out, err] = run({"simulate", "--machine=bluegene"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("unknown machine"), std::string::npos);
}

TEST_F(EiotraceTest, UnknownFlagFailsWithPerCommandUsage) {
  auto [rc, out, err] = run({"summary", path_, "--bogus=1"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("unknown flag '--bogus'"), std::string::npos);
  EXPECT_NE(err.find("usage: eiotrace summary"), std::string::npos);
}

TEST_F(EiotraceTest, BadNumericValueFails) {
  auto [rc, out, err] = run({"histogram", path_, "--bins=many"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("bad value 'many' for --bins"), std::string::npos);
  auto [rc2, out2, err2] = run({"summary", path_, "--min-bytes=huge"});
  EXPECT_EQ(rc2, 1);
  auto [rc3, out3, err3] = run({"histogram", path_, "--bins=-4"});
  EXPECT_EQ(rc3, 1);
}

TEST_F(EiotraceTest, FlagValueMayBeASeparateArgument) {
  auto [rc, out, err] = run({"histogram", path_, "--op", "read", "--bins", "20"});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST_F(EiotraceTest, MissingFlagValueFails) {
  auto [rc, out, err] = run({"histogram", path_, "--bins"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("needs a value"), std::string::npos);
}

TEST_F(EiotraceTest, PerCommandUsageIsGeneratedFromTheOptionTables) {
  std::string diag = usage_for("diagnose");
  EXPECT_NE(diag.find("usage: eiotrace diagnose"), std::string::npos);
  EXPECT_NE(diag.find("--ost-count"), std::string::npos);
  EXPECT_NE(diag.find("--fair-share-mibs"), std::string::npos);
  std::string sim = usage_for("simulate");
  EXPECT_NE(sim.find("--scenario"), std::string::npos);
  EXPECT_NE(sim.find("--machine"), std::string::npos);
  EXPECT_NE(sim.find("default franklin"), std::string::npos);
  // Every flag a command parses appears in its usage; unknown commands
  // fall back to the global text.
  EXPECT_EQ(usage_for("frobnicate"), usage_text());
  std::string modes = usage_for("modes");
  EXPECT_NE(modes.find("--bandwidth"), std::string::npos);
  EXPECT_NE(modes.find("--op"), std::string::npos);
  EXPECT_NE(modes.find("--jobs"), std::string::npos);
}

TEST_F(EiotraceTest, HelpWithCommandShowsItsFlagTable) {
  auto [rc, out, err] = run({"help", "modes"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("--bandwidth"), std::string::npos);
}

TEST_F(EiotraceTest, SimulateScenarioFileEndToEnd) {
  std::string scen = test::temp_path("scenario.json");
  {
    std::ofstream f(scen);
    f << R"({
      "schema_version": 1,
      "name": "cli-scenario",
      "machine": "franklin",
      "runs": 2,
      "workload": {"kind": "ior", "tasks": 8, "block_mib": 4, "segments": 1},
      "faults": {"stragglers": {"ranks": [3], "slowdown": 3.0}}
    })";
  }
  auto [rc, out, err] = run({"simulate", "--scenario=" + scen, "--jobs=2"});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("simulating 2 IOR runs"), std::string::npos);
  EXPECT_NE(out.find("fault plan:"), std::string::npos);
  EXPECT_NE(out.find("fault injections:"), std::string::npos);
  std::remove(scen.c_str());
}

TEST_F(EiotraceTest, SimulateZeroRunsFailsBeforeAnyOutput) {
  auto [rc, out, err] = run({"simulate", "--runs=0", "--tasks=8"});
  EXPECT_EQ(rc, 1);
  expect_one_line_error(out, err, "--runs must be at least 1");

  std::string scen = test::temp_path("zero-runs.json");
  std::ofstream(scen) << R"({"schema_version": 1, "runs": 0,
      "workload": {"kind": "ior", "tasks": 8, "block_mib": 4, "segments": 1}})";
  auto [rc2, out2, err2] = run({"simulate", "--scenario=" + scen});
  EXPECT_EQ(rc2, 1);
  expect_one_line_error(out2, err2, "runs must be at least 1");
  std::remove(scen.c_str());
}

TEST_F(EiotraceTest, SimulateRejectsFaultTargetsOutsideTheJob) {
  // A slow OST past franklin's 48, or a straggler rank past an 8-task
  // job, used to print a fault plan and inject nothing.
  struct Case {
    const char* faults;
    const char* message;
  };
  std::string scen = test::temp_path("bad-target.json");
  for (const Case& c :
       {Case{R"({"slow_osts": [{"ost": 99}]})", "faults.slow_osts[0].ost = 99"},
        Case{R"({"stragglers": {"ranks": [100]}})",
             "faults.stragglers.ranks[0] = 100"}}) {
    std::ofstream(scen) << R"({"schema_version": 1, "machine": "franklin",
        "workload": {"kind": "ior", "tasks": 8, "block_mib": 4, "segments": 1},
        "faults": )" << c.faults
                        << "}";
    auto [rc, out, err] = run({"simulate", "--scenario=" + scen});
    EXPECT_EQ(rc, 1) << c.faults;
    expect_one_line_error(out, err, c.message);
  }
  std::remove(scen.c_str());
}

TEST_F(EiotraceTest, SimulateScenarioConflictsWithWorkloadFlags) {
  auto [rc, out, err] = run({"simulate", "--scenario=x.json", "--tasks=4"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("conflicts with --scenario"), std::string::npos);
}

TEST_F(EiotraceTest, SimulateMissingScenarioFileFails) {
  auto [rc, out, err] = run({"simulate", "--scenario=/nonexistent.json"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("cannot open scenario file"), std::string::npos);
}

TEST_F(EiotraceTest, SlowOstScenarioDiagnosesTheDegradedOst) {
  // The acceptance path: the checked-in slow-OST scenario, simulated
  // and fed back through diagnose, names the injected OST.
  std::string scen =
      std::string(EIO_SOURCE_DIR) + "/examples/scenarios/slow_ost.json";
  std::string dir = test::temp_dir();
  auto [rc, out, err] =
      run({"simulate", "--scenario=" + scen, "--runs=1", "--save-dir=" + dir});
  ASSERT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("ost-windows"), std::string::npos);
  std::string trace = dir + "/run0.tsv";
  auto [rc2, out2, err2] = run({"diagnose", trace, "--ost-count=48"});
  EXPECT_EQ(rc2, 0) << err2;
  EXPECT_NE(out2.find("degraded-ost"), std::string::npos);
  EXPECT_NE(out2.find("OST 5"), std::string::npos);
  std::remove(trace.c_str());
}

TEST_F(EiotraceTest, PhaseFilterNarrowsEvents) {
  auto [rc, out, err] = run({"summary", path_, "--phase=3"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("read"), std::string::npos);
  // Only the 8 phase-3 reads; writes (phases 10+) are filtered out.
  EXPECT_EQ(out.find("write"), std::string::npos);
}

TEST_F(EiotraceTest, AnalyzeBundlesAllSections) {
  auto [rc, out, err] = run({"analyze", path_});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("== summary =="), std::string::npos);
  EXPECT_NE(out.find("== phases =="), std::string::npos);
  EXPECT_NE(out.find("== histogram =="), std::string::npos);
  EXPECT_NE(out.find("== rates =="), std::string::npos);
  EXPECT_NE(out.find("write"), std::string::npos);
  EXPECT_NE(out.find("read"), std::string::npos);
  EXPECT_NE(out.find("aggregate MiB/s"), std::string::npos);
}

TEST_F(EiotraceTest, AnalyzeIsByteIdenticalAcrossJobsAndFormats) {
  // The fused one-pass bundle must print exactly what it printed
  // before fusing — for every --jobs value and every encoding.
  const std::string v3 = write_chunked("analyze_fmt");

  auto [rc, base, err] = run({"analyze", path_});
  ASSERT_EQ(rc, 0) << err;
  for (const char* jobs : {"", "--jobs=1", "--jobs=2", "--jobs=4"}) {
    std::vector<std::string> args{"analyze", v3};
    if (*jobs != '\0') args.push_back(jobs);
    auto [rc2, out2, err2] = run(args);
    EXPECT_EQ(rc2, 0) << err2;
    EXPECT_EQ(out2, base) << v3 << " " << jobs;
  }
  std::remove(v3.c_str());
}

TEST_F(EiotraceTest, SampledAnswersPastCapacityAreIdenticalAcrossFormats) {
  // Past the 65,536-sample reservoir capacity every answer is drawn
  // from a sample, and that sample must be the one of a serial pass
  // whatever the storage: TSV, default v3 or 64-event-chunk v3, at any
  // --jobs. The first 4,096 rows hold only phase-0 reads, so a write
  // or phase-1 sample first appears in a later chunk.
  constexpr std::size_t kLead = 4096;
  constexpr std::size_t kPairs = 66000;
  ipm::Trace t("past-capacity", 16);
  rng::Stream r(29);
  // Values rounded to the TSV's 9 significant digits, so the TSV and
  // the v3 files written from this trace hold the same doubles.
  auto tsv_exact = [](double x) {
    char digits[32];
    std::snprintf(digits, sizeof digits, "%.9g", x);
    return std::strtod(digits, nullptr);
  };
  auto add = [&](OpType op, std::int32_t phase, double start) {
    ipm::TraceEvent e;
    e.start = tsv_exact(start);
    // Two modes, so the sampled KDE and quantiles are sensitive to
    // which rows the sample keeps.
    e.duration = tsv_exact(r.chance(0.4) ? r.lognormal(-3.0, 0.5)
                                         : r.lognormal(0.0, 0.3));
    e.op = op;
    e.rank = static_cast<RankId>(t.size() % 16);
    e.file = 1;
    e.offset = static_cast<Bytes>(t.size()) * MiB;
    e.bytes = MiB;
    e.phase = phase;
    t.add(e);
  };
  for (std::size_t i = 0; i < kLead; ++i) {
    add(OpType::kRead, 0, 1e-3 * static_cast<double>(i));
  }
  for (std::size_t i = 0; i < kPairs; ++i) {
    const double start = 10.0 + 1e-3 * static_cast<double>(i);
    add(OpType::kWrite, 1, start);
    add(OpType::kRead, 1, start);
  }

  const std::string tsv = test::temp_path("past_capacity.tsv");
  const std::string v3 = test::temp_path("past_capacity.v3");
  const std::string v3_64 = test::temp_path("past_capacity_64.v3");
  t.save(tsv);
  t.save_binary_v3(v3);
  {
    std::ofstream out(v3_64, std::ios::binary);
    ipm::TraceWriterV3 w(out, t.experiment(), t.ranks(), {.chunk_events = 64});
    for (const ipm::TraceEvent& e : t.events()) w.add(e);
    w.finish();
  }

  const std::vector<std::vector<std::string>> commands = {
      {"summary", "--json"},
      {"modes", "--op=write"},
      {"modes", "--op=write", "--log"},
      {"phases"},
      {"analyze", "--json"},
  };
  for (const auto& cmd : commands) {
    std::string base;
    for (const std::string& file : {tsv, v3, v3_64}) {
      for (const char* jobs : {"--jobs=1", "--jobs=3"}) {
        std::vector<std::string> args{cmd[0], file, jobs};
        args.insert(args.end(), cmd.begin() + 1, cmd.end());
        auto [rc, out, err] = run(args);
        ASSERT_EQ(rc, 0) << cmd[0] << ": " << err;
        if (base.empty()) base = out;
        EXPECT_EQ(out, base) << cmd[0] << " " << file << " " << jobs;
      }
    }
  }
  for (const std::string& file : {tsv, v3, v3_64}) std::remove(file.c_str());
}

TEST_F(EiotraceTest, AnalyzeEmptyFilterFails) {
  auto [rc, out, err] = run({"analyze", path_, "--op=fsync"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("no events"), std::string::npos);
}

TEST_F(EiotraceTest, EveryAnalysisSubcommandScansTheTraceExactlyOnce) {
  // Regression for the histogram extrema+fill double scan (and a guard
  // against any future N-pass analysis): after one subcommand run, the
  // chunks-scanned + chunks-skipped counters must account for every
  // chunk exactly once. The fixture file has 80 events in 16-event
  // chunks, so a second pass would double the tally.
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const std::string v3 = write_chunked("one_scan");
  const std::size_t chunks = [&] {
    ipm::FileTraceSource source(v3);
    return source.index().chunks.size();
  }();
  ASSERT_GE(chunks, 5u);

  const std::vector<std::vector<std::string>> commands = {
      {"summary", v3, "--obs"},
      {"summary", v3, "--jobs=2", "--obs"},
      {"histogram", v3, "--op=read", "--obs"},
      {"histogram", v3, "--op=read", "--jobs=2", "--obs"},
      {"modes", v3, "--op=write", "--obs"},
      {"rates", v3, "--obs"},
      {"rates", v3, "--jobs=2", "--obs"},
      {"phases", v3, "--obs"},
      {"analyze", v3, "--obs"},
      {"analyze", v3, "--jobs=4", "--obs"},
      {"diagnose", v3, "--ost-count=8", "--obs"},
      {"diagnose", v3, "--ost-count=8", "--jobs=2", "--obs"},
      {"patterns", v3, "--obs"},
      {"patterns", v3, "--jobs=2", "--obs"},
  };
  for (const auto& cmd : commands) {
    auto [rc, out, err] = run(cmd);
    ASSERT_EQ(rc, 0) << cmd[0] << ": " << err;
    std::uint64_t scanned = 0, skipped = 0;
    for (const obs::CounterValue& c : obs::Registry::instance().snapshot().counters) {
      if (c.name == "scan.chunks_scanned") scanned = c.value;
      if (c.name == "scan.chunks_skipped") skipped = c.value;
    }
    EXPECT_EQ(scanned + skipped, chunks)
        << cmd[0] << (cmd.size() > 3 ? " (parallel)" : "")
        << ": scanned=" << scanned << " skipped=" << skipped;
    EXPECT_GT(scanned, 0u) << cmd[0];
  }
  std::remove(v3.c_str());
}

}  // namespace
}  // namespace eio::cli
