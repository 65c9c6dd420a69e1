#include "ipm/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

namespace eio::ipm {

namespace {

Imbalance imbalance_of(const std::vector<double>& per_rank) {
  Imbalance im;
  if (per_rank.empty()) return im;
  im.min = per_rank[0];
  im.max = per_rank[0];
  double sum = 0.0;
  for (double v : per_rank) {
    im.min = std::min(im.min, v);
    im.max = std::max(im.max, v);
    sum += v;
  }
  im.mean = sum / static_cast<double>(per_rank.size());
  return im;
}

}  // namespace

JobReportAccumulator::JobReportAccumulator(std::string experiment,
                                           std::uint32_t ranks) {
  report_.experiment = std::move(experiment);
  report_.ranks = std::max<std::uint32_t>(ranks, 1);
  time_per_rank_.assign(report_.ranks, 0.0);
  bytes_per_rank_.assign(report_.ranks, 0.0);
}

void JobReportAccumulator::add_batch(const ColumnBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double duration = batch.duration[i];
    const Bytes bytes = batch.bytes[i];
    const RankId rank = batch.rank[i];
    report_.wall_time =
        std::max(report_.wall_time, batch.start[i] + duration);
    CallStats& s = report_.by_op[static_cast<posix::OpType>(batch.op[i])];
    ++s.count;
    s.bytes += bytes;
    s.total_time += duration;
    s.max_time = std::max(s.max_time, duration);
    report_.total_io_time += duration;
    if (rank < report_.ranks) {
      time_per_rank_[rank] += duration;
      bytes_per_rank_[rank] += static_cast<double>(bytes);
    }
  }
}

JobReport JobReportAccumulator::report() const {
  JobReport report = report_;
  report.io_time_per_rank = imbalance_of(time_per_rank_);
  report.bytes_per_rank = imbalance_of(bytes_per_rank_);
  report.busiest_rank = static_cast<RankId>(
      std::max_element(time_per_rank_.begin(), time_per_rank_.end()) -
      time_per_rank_.begin());
  return report;
}

JobReport summarize(const TraceSource& source) {
  JobReportAccumulator acc(source.meta().experiment, source.meta().ranks);
  source.for_each_columns(kColStart | kColDuration | kColOp | kColRank |
                              kColBytes,
                          [&acc](const ColumnBatch& b) { acc.add_batch(b); });
  return acc.report();
}

void print_report(std::ostream& out, const JobReport& report) {
  out << "##IPM-I/O######################################################\n";
  out << "# experiment : " << report.experiment << "\n";
  out << "# ranks      : " << report.ranks << "\n";
  out << std::fixed;
  out << "# wall time  : " << std::setprecision(2) << report.wall_time << " s\n";
  out << "# io time    : " << report.total_io_time << " rank-seconds ("
      << std::setprecision(1) << report.io_fraction() * 100.0
      << "% of rank-time)\n";
  out << "#\n";
  out << "# " << std::left << std::setw(8) << "call" << std::right
      << std::setw(10) << "count" << std::setw(14) << "bytes" << std::setw(12)
      << "time(s)" << std::setw(12) << "avg(s)" << std::setw(12) << "max(s)"
      << std::setw(14) << "MiB/s" << "\n";
  for (const auto& [op, s] : report.by_op) {
    out << "# " << std::left << std::setw(8) << posix::op_name(op) << std::right
        << std::setw(10) << s.count << std::setw(14) << s.bytes
        << std::setw(12) << std::setprecision(2) << s.total_time
        << std::setw(12) << std::setprecision(4) << s.avg_time()
        << std::setw(12) << std::setprecision(2) << s.max_time << std::setw(14)
        << std::setprecision(1) << to_mib_per_s(s.bandwidth()) << "\n";
  }
  out << "#\n";
  out << "# per-rank io time  [min/mean/max] : " << std::setprecision(2)
      << report.io_time_per_rank.min << " / " << report.io_time_per_rank.mean
      << " / " << report.io_time_per_rank.max << " s  (imbalance x"
      << report.io_time_per_rank.factor() << ")\n";
  out << "# per-rank io bytes [min/mean/max] : " << std::setprecision(0)
      << report.bytes_per_rank.min << " / " << report.bytes_per_rank.mean
      << " / " << report.bytes_per_rank.max << "\n";
  out << "# busiest rank : " << report.busiest_rank << "\n";
  out << "###############################################################\n";
}

std::string report_text(const TraceSource& source) {
  std::ostringstream os;
  print_report(os, summarize(source));
  return os.str();
}

}  // namespace eio::ipm
