#include "core/histogram.h"

#include <algorithm>
#include <cmath>

namespace eio::stats {

Histogram::Histogram(BinScale scale, double lo, double hi, std::size_t bins)
    : scale_(scale), lo_(lo), hi_(hi), counts_(bins, 0) {
  EIO_CHECK_MSG(bins >= 1, "histogram needs at least one bin");
  EIO_CHECK_MSG(hi > lo, "empty histogram range");
  if (scale_ == BinScale::kLog10) {
    EIO_CHECK_MSG(lo > 0.0, "log-scale histogram needs positive lower bound");
    tlo_ = std::log10(lo_);
    thi_ = std::log10(hi_);
  } else {
    tlo_ = lo_;
    thi_ = hi_;
  }
}

Histogram::Range Histogram::padded_range(double sample_min, double sample_max,
                                         BinScale scale) {
  double lo = sample_min, hi = sample_max;
  if (scale == BinScale::kLog10) {
    lo = std::max(lo, 1e-12);
    hi = std::max(hi, lo * 1.0001);
    lo /= 1.05;
    hi *= 1.05;
  } else {
    double pad = std::max((hi - lo) * 0.01, 1e-12);
    lo -= pad;
    hi += pad;
  }
  return {lo, hi};
}

Histogram Histogram::from_samples(std::span<const double> samples, BinScale scale,
                                  std::size_t bins) {
  EIO_CHECK_MSG(!samples.empty(), "cannot infer range from no samples");
  double lo = samples[0], hi = samples[0];
  for (double s : samples) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  Range range = padded_range(lo, hi, scale);
  Histogram h(scale, range.lo, range.hi, bins);
  h.add_all(samples);
  return h;
}

Histogram Histogram::from_counts(BinScale scale, double lo, double hi,
                                 std::vector<std::uint64_t> counts) {
  Histogram h(scale, lo, hi, counts.size());
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  h.counts_ = std::move(counts);
  h.total_ = total;
  return h;
}

void Histogram::add_all(std::span<const double> samples) {
  // Batched fill: identical bin arithmetic to add(), but the running
  // under/overflow tallies stay in registers instead of bouncing
  // through memory on every event.
  std::uint64_t under = 0, over = 0;
  for (double s : samples) {
    if (s < lo_) {
      ++under;
    } else if (s >= hi_) {
      ++over;
    }
    ++counts_[bin_index(s)];
  }
  total_ += samples.size();
  underflow_ += under;
  overflow_ += over;
}

double Histogram::bin_lower(std::size_t bin) const {
  EIO_CHECK(bin < counts_.size());
  double t = tlo_ + (thi_ - tlo_) * static_cast<double>(bin) /
                        static_cast<double>(counts_.size());
  return scale_ == BinScale::kLog10 ? std::pow(10.0, t) : t;
}

double Histogram::bin_upper(std::size_t bin) const {
  EIO_CHECK(bin < counts_.size());
  double t = tlo_ + (thi_ - tlo_) * static_cast<double>(bin + 1) /
                        static_cast<double>(counts_.size());
  return scale_ == BinScale::kLog10 ? std::pow(10.0, t) : t;
}

double Histogram::bin_center(std::size_t bin) const {
  if (scale_ == BinScale::kLog10) {
    return std::sqrt(bin_lower(bin) * bin_upper(bin));
  }
  return 0.5 * (bin_lower(bin) + bin_upper(bin));
}

double Histogram::bin_width(std::size_t bin) const {
  return bin_upper(bin) - bin_lower(bin);
}

void Histogram::merge(const Histogram& other) {
  EIO_CHECK_MSG(other.scale_ == scale_ && other.counts_.size() == counts_.size() &&
                    other.lo_ == lo_ && other.hi_ == hi_,
                "histogram binning mismatch in merge");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
}

StreamingHistogram::StreamingHistogram(const Options& options)
    : options_(options) {
  // bins >= 2 guarantees the coarsening loops terminate: lattice
  // indices converge to the two cells straddling zero as k grows.
  EIO_CHECK_MSG(options_.bins >= 2, "streaming histogram needs at least 2 bins");
  EIO_CHECK_MSG(options_.exact_capacity >= 1,
                "streaming histogram needs a nonzero exact capacity");
}

int StreamingHistogram::rep_exponent(double t) {
  // Floor of -120 covers every transformed value this pipeline can
  // produce (log10 of 1e-300 is -300? no: clamped at 1e-300 gives
  // t >= -300, but |index| = |t|/2^k stays < 2^39 because k >=
  // ilogb(t) - 38). Zero has no exponent; any floor works since its
  // index is 0 at every k.
  constexpr int kFloor = -120;
  if (t == 0.0) return kFloor;
  return std::max(kFloor, std::ilogb(t) - 38);
}

std::int64_t StreamingHistogram::lattice_index(double t) const {
  return static_cast<std::int64_t>(std::floor(std::ldexp(t, -k_)));
}

void StreamingHistogram::coarsen() {
  // Pair up width-2^k cells into width-2^(k+1): new index = old >> 1
  // (arithmetic shift = floor division, exact for negatives in C++20),
  // which matches floor(t / 2^(k+1)) = floor(floor(t / 2^k) / 2).
  std::int64_t last = base_ + static_cast<std::int64_t>(counts_.size()) - 1;
  std::int64_t new_base = base_ >> 1;
  std::int64_t new_last = last >> 1;
  std::vector<std::uint64_t> folded(
      static_cast<std::size_t>(new_last - new_base + 1), 0);
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    std::int64_t idx = (base_ + static_cast<std::int64_t>(j)) >> 1;
    folded[static_cast<std::size_t>(idx - new_base)] += counts_[j];
  }
  counts_ = std::move(folded);
  base_ = new_base;
  ++k_;
  update_window();
}

void StreamingHistogram::update_window() {
  if (counts_.empty()) {
    win_lo_ = 0.0;
    win_hi_ = 0.0;
    return;
  }
  // Edge products are exact doubles (|index| < 2^39, see the class
  // notes), so the guard admits exactly the in-window values.
  double w = std::ldexp(1.0, k_);
  win_lo_ = static_cast<double>(base_) * w;
  win_hi_ =
      static_cast<double>(base_ + static_cast<std::int64_t>(counts_.size())) *
      w;
  win_scale_ = std::ldexp(1.0, -k_);
}

void StreamingHistogram::lattice_insert(double t, std::uint64_t weight) {
  int needed = rep_exponent(t);
  if (counts_.empty()) {
    k_ = needed;
    base_ = lattice_index(t);
    counts_.assign(1, weight);
    update_window();
    return;
  }
  while (k_ < needed) coarsen();
  // Predict the occupied span arithmetically and coarsen BEFORE
  // touching the vector, so a far-away value never materializes a
  // huge zero window.
  for (;;) {
    std::int64_t i = lattice_index(t);
    std::int64_t lo = std::min(i, base_);
    std::int64_t hi =
        std::max(i, base_ + static_cast<std::int64_t>(counts_.size()) - 1);
    if (static_cast<std::uint64_t>(hi - lo + 1) <= options_.bins) {
      if (i < base_) {
        counts_.insert(counts_.begin(), static_cast<std::size_t>(base_ - i), 0);
        base_ = i;
      } else if (i >= base_ + static_cast<std::int64_t>(counts_.size())) {
        counts_.resize(static_cast<std::size_t>(i - base_) + 1, 0);
      }
      counts_[static_cast<std::size_t>(i - base_)] += weight;
      update_window();
      return;
    }
    coarsen();
  }
}

void StreamingHistogram::spill() {
  overflowed_ = true;
  std::vector<double> raw = std::move(raw_);
  raw_.clear();
  raw_.shrink_to_fit();
  for (double v : raw) lattice_insert(transform(v), 1);
}

void StreamingHistogram::add_batch(std::span<const double> xs) {
  if (!overflowed_ && raw_.size() + xs.size() <= options_.exact_capacity) {
    raw_.insert(raw_.end(), xs.begin(), xs.end());
    count_ += xs.size();
    return;
  }
  for (double x : xs) add(x);
}

void StreamingHistogram::merge(StreamingHistogram&& other) {
  EIO_CHECK_MSG(other.options_.scale == options_.scale &&
                    other.options_.bins == options_.bins &&
                    other.options_.exact_capacity == options_.exact_capacity,
                "streaming histogram options mismatch in merge");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = std::move(other);
    return;
  }
  count_ += other.count_;
  if (!overflowed_ && !other.overflowed_) {
    raw_.insert(raw_.end(), other.raw_.begin(), other.raw_.end());
    if (raw_.size() > options_.exact_capacity) spill();
    return;
  }
  if (!overflowed_) spill();
  if (!other.overflowed_) {
    // Fold the other side's raw samples straight into this lattice.
    // The lattice's resolution and counts are a pure function of the
    // value multiset (see the class notes), so this lands bit-for-bit
    // where spill-then-align would — without building and coarsening a
    // second lattice per merge (the per-chunk cost of ordered merges).
    for (double v : other.raw_) lattice_add(transform(v));
    return;
  }
  while (k_ < other.k_) coarsen();
  while (other.k_ < k_) other.coarsen();
  for (;;) {
    std::int64_t lo = std::min(base_, other.base_);
    std::int64_t hi =
        std::max(base_ + static_cast<std::int64_t>(counts_.size()),
                 other.base_ + static_cast<std::int64_t>(other.counts_.size())) -
        1;
    if (static_cast<std::uint64_t>(hi - lo + 1) <= options_.bins) break;
    coarsen();
    other.coarsen();
  }
  std::int64_t lo = std::min(base_, other.base_);
  std::int64_t hi =
      std::max(base_ + static_cast<std::int64_t>(counts_.size()),
               other.base_ + static_cast<std::int64_t>(other.counts_.size())) -
      1;
  if (lo < base_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(base_ - lo), 0);
    base_ = lo;
  }
  if (hi >= base_ + static_cast<std::int64_t>(counts_.size())) {
    counts_.resize(static_cast<std::size_t>(hi - base_) + 1, 0);
  }
  for (std::size_t j = 0; j < other.counts_.size(); ++j) {
    std::int64_t idx = other.base_ + static_cast<std::int64_t>(j);
    counts_[static_cast<std::size_t>(idx - base_)] += other.counts_[j];
  }
  update_window();
}

std::optional<Histogram> StreamingHistogram::materialize() const {
  if (count_ == 0) return std::nullopt;
  if (!overflowed_) {
    return Histogram::from_samples(raw_, options_.scale, options_.bins);
  }
  // Lattice mode: bin edges are the occupied window in transform
  // space; products (base+j)*2^k are exact doubles (|index| < 2^39).
  double w = std::ldexp(1.0, k_);
  double tlo = static_cast<double>(base_) * w;
  double thi =
      static_cast<double>(base_ + static_cast<std::int64_t>(counts_.size())) * w;
  double lo = tlo, hi = thi;
  if (options_.scale == BinScale::kLog10) {
    lo = std::max(std::pow(10.0, tlo), 1e-300);
    hi = std::max(std::pow(10.0, thi), lo * 1.0001);
  }
  return Histogram::from_counts(options_.scale, lo, hi, counts_);
}

}  // namespace eio::stats
