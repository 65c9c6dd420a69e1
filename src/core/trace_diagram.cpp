#include "core/trace_diagram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace eio::analysis {

TraceDiagram::TraceDiagram(std::uint32_t ranks, double span, Options options) {
  EIO_CHECK(options.max_rows >= 1 && options.columns >= 1);
  ranks = std::max<std::uint32_t>(ranks, 1);
  rows_ = std::min<std::size_t>(options.max_rows, ranks);
  cols_ = options.columns;
  span_ = std::max(span, 1e-9);
  dt_ = span_ / static_cast<double>(cols_);

  write_.assign(rows_ * cols_, 0.0);
  read_.assign(rows_ * cols_, 0.0);
  meta_.assign(rows_ * cols_, 0.0);

  // ranks_per_row tasks share a row; cell "busy fraction" normalizes by
  // (ranks_per_row * dt) so a fully-busy row saturates at 1.
  ranks_per_row_ = static_cast<double>(ranks) / static_cast<double>(rows_);
}

TraceDiagram::TraceDiagram(const ipm::TraceSource& source, Options options)
    : TraceDiagram(source.meta().ranks, source.time_span(), options) {
  source.for_each_columns(
      ipm::kColStart | ipm::kColDuration | ipm::kColOp | ipm::kColRank,
      [this](const ipm::ColumnBatch& b) { add_batch(b); });
}

void TraceDiagram::add_batch(const ipm::ColumnBatch& batch) {
  using posix::OpType;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::vector<double>* plane = nullptr;
    switch (static_cast<OpType>(batch.op[i])) {
      case OpType::kWrite: plane = &write_; break;
      case OpType::kRead: plane = &read_; break;
      case OpType::kOpen:
      case OpType::kClose:
      case OpType::kSeek:
      case OpType::kFsync:
      case OpType::kFault: plane = &meta_; break;
    }
    if (plane == nullptr) continue;
    auto row = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(batch.rank[i]) / ranks_per_row_,
                         static_cast<double>(rows_ - 1)));
    const double start = batch.start[i];
    const double end = std::max(start + batch.duration[i], start + 1e-12);
    auto first = static_cast<std::size_t>(
        std::clamp(start / dt_, 0.0, static_cast<double>(cols_ - 1)));
    auto last = static_cast<std::size_t>(
        std::clamp(end / dt_, 0.0, static_cast<double>(cols_ - 1)));
    for (std::size_t c = first; c <= last; ++c) {
      double lo = dt_ * static_cast<double>(c);
      double hi = lo + dt_;
      double overlap = std::min(end, hi) - std::max(start, lo);
      if (overlap > 0.0) {
        cell(*plane, row, c) += overlap / (dt_ * ranks_per_row_);
      }
    }
  }
}

double TraceDiagram::write_fraction(std::size_t row, std::size_t col) const {
  EIO_CHECK(row < rows_ && col < cols_);
  return plane_at(write_, row, col);
}

double TraceDiagram::read_fraction(std::size_t row, std::size_t col) const {
  EIO_CHECK(row < rows_ && col < cols_);
  return plane_at(read_, row, col);
}

double TraceDiagram::idle_fraction() const {
  std::size_t idle = 0;
  for (std::size_t i = 0; i < write_.size(); ++i) {
    if (write_[i] + read_[i] + meta_[i] < 0.02) ++idle;
  }
  return static_cast<double>(idle) / static_cast<double>(write_.size());
}

std::vector<std::string> TraceDiagram::render() const {
  std::vector<std::string> lines;
  lines.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::string line(cols_, ' ');
    for (std::size_t c = 0; c < cols_; ++c) {
      double w = plane_at(write_, r, c);
      double rd = plane_at(read_, r, c);
      double m = plane_at(meta_, r, c);
      char ch = ' ';
      if (w >= 0.02 && rd >= 0.02) {
        ch = '+';
      } else if (w >= 0.02) {
        ch = '#';
      } else if (rd >= 0.02) {
        ch = 'o';
      } else if (m >= 0.02) {
        ch = '.';
      }
      line[c] = ch;
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string TraceDiagram::render_text() const {
  std::ostringstream os;
  for (const std::string& line : render()) os << '|' << line << "|\n";
  os << '+' << std::string(cols_, '-') << "+\n";
  os << " 0s" << std::string(cols_ > 16 ? cols_ - 14 : 0, ' ');
  os.precision(4);
  os << span_ << "s  ('#'=write 'o'=read '+'=both '.'=meta)\n";
  return os.str();
}

}  // namespace eio::analysis
