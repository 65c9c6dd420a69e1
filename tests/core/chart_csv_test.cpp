// Unit tests for the ASCII chart renderer and CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/units.h"
#include "core/ascii_chart.h"
#include "core/csv.h"
#include "support/temp_path.h"

namespace eio::analysis {
namespace {

TEST(AsciiChartTest, LineChartContainsGlyphsAndLabels) {
  Series s{.name = "rate", .x = {0, 1, 2, 3}, .y = {0, 10, 5, 20}};
  std::string out = render_lines(std::vector<Series>{s},
                                 {.width = 40, .height = 10,
                                  .x_label = "seconds", .title = "Rates"});
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("Rates"), std::string::npos);
  EXPECT_NE(out.find("seconds"), std::string::npos);
  EXPECT_NE(out.find("20"), std::string::npos);  // y max label
}

TEST(AsciiChartTest, MultiSeriesGetsLegend) {
  Series a{.name = "before", .x = {1, 2}, .y = {1, 2}};
  Series b{.name = "after", .x = {1, 2}, .y = {2, 1}};
  std::string out =
      render_lines(std::vector<Series>{a, b}, {.width = 20, .height = 6});
  EXPECT_NE(out.find("legend"), std::string::npos);
  EXPECT_NE(out.find("before"), std::string::npos);
  EXPECT_NE(out.find("after"), std::string::npos);
}

TEST(AsciiChartTest, LogAxesSkipNonPositivePoints) {
  Series s{.name = "x", .x = {0.0, 1.0, 10.0}, .y = {0.0, 1.0, 100.0}};
  std::string out = render_lines(std::vector<Series>{s},
                                 {.width = 20, .height = 6,
                                  .log_x = true, .log_y = true});
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiChartTest, AllNonDrawablePointsHandled) {
  Series s{.name = "x", .x = {0.0}, .y = {0.0}};
  std::string out = render_lines(std::vector<Series>{s},
                                 {.width = 20, .height = 6, .log_x = true});
  EXPECT_NE(out.find("no drawable"), std::string::npos);
}

TEST(AsciiChartTest, HistogramBarsScaleWithCounts) {
  stats::Histogram h(stats::BinScale::kLinear, 0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(5.5);
  h.add(1.5);
  std::string out = render_histogram(h, {.width = 40, .height = 8});
  EXPECT_NE(out.find('#'), std::string::npos);
  // The tall bar produces more '#' than the short one.
  EXPECT_GT(std::count(out.begin(), out.end(), '#'), 8);
}

TEST(AsciiChartTest, EmptyHistogramHandled) {
  stats::Histogram h(stats::BinScale::kLinear, 0.0, 10.0, 10);
  EXPECT_NE(render_histogram(h, {}).find("empty"), std::string::npos);
}

TEST(AsciiChartTest, OverlaidHistogramsShareAxes) {
  stats::Histogram a(stats::BinScale::kLog10, 0.1, 100.0, 16);
  stats::Histogram b(stats::BinScale::kLog10, 0.1, 100.0, 16);
  for (int i = 0; i < 50; ++i) {
    a.add(1.0);
    b.add(10.0);
  }
  std::vector<const stats::Histogram*> hs{&a, &b};
  std::vector<std::string> names{"before", "after"};
  std::string out = render_histograms(hs, names, {.width = 30, .height = 8});
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(AsciiChartTest, FormatRateUnits) {
  EXPECT_EQ(format_rate(2.0 * static_cast<double>(GiB)), "2.0 GiB/s");
  EXPECT_EQ(format_rate(3.5 * static_cast<double>(MiB)), "3.5 MiB/s");
  EXPECT_EQ(format_rate(512.0), "0.5 KiB/s");
}

TEST(AsciiChartTest, FormatSecondsUnits) {
  EXPECT_EQ(format_seconds(12.34), "12.3 s");
  EXPECT_EQ(format_seconds(0.0123), "12.300 ms");
  EXPECT_EQ(format_seconds(0.0000054), "5.400 us");
}

TEST(CsvTest, WritesHeaderAndRows) {
  CsvWriter w;
  w.column("t", {1.0, 2.0}).column("rate", {10.5, 20.25});
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(os.str(), "t,rate\n1,10.5\n2,20.25\n");
}

TEST(CsvTest, RaggedColumnsRejected) {
  CsvWriter w;
  w.column("a", {1.0}).column("b", {1.0, 2.0});
  std::ostringstream os;
  EXPECT_THROW(w.write(os), std::logic_error);
}

TEST(CsvTest, SaveToFile) {
  CsvWriter w;
  w.column("x", {1.0, 2.0, 3.0});
  std::string path = test::temp_path("eio_csv_test.csv");
  w.save(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eio::analysis
