#include "core/streaming.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eio::stats {

void StreamingMoments::merge(const StreamingMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double na = static_cast<double>(n_);
  double nb = static_cast<double>(other.n_);
  double n = na + nb;
  double delta = other.mean_ - mean_;
  double delta2 = delta * delta;

  double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  double m3 = m3_ + other.m3_ +
              delta * delta2 * na * nb * (na - nb) / (n * n) +
              3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  double m4 = m4_ + other.m4_ +
              delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) /
                  (n * n * n) +
              6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
              4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  mean_ += delta * nb / n;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  n_ += other.n_;
}

Moments StreamingMoments::moments() const {
  Moments m;
  m.count = n_;
  if (n_ == 0) return m;
  double n = static_cast<double>(n_);
  m.mean = mean_;
  if (n_ >= 2) {
    m.variance = m2_ / (n - 1.0);
    m.stddev = std::sqrt(m.variance);
  }
  double pop_var = m2_ / n;
  if (pop_var > 0.0 && n_ >= 3) {
    double sd = std::sqrt(pop_var);
    m.skewness = (m3_ / n) / (sd * sd * sd);
    m.kurtosis_excess = (m4_ / n) / (pop_var * pop_var) - 3.0;
  }
  return m;
}

ReservoirSampler::ReservoirSampler(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  EIO_CHECK_MSG(capacity >= 1, "reservoir needs capacity >= 1");
}

void ReservoirSampler::merge(const ReservoirSampler& other) {
  EIO_CHECK_MSG(capacity_ == other.capacity_,
                "reservoir merge needs matching capacities: "
                    << capacity_ << " vs " << other.capacity_);
  if (other.seen_ == 0) return;
  if (other.exact()) {
    // The other side still holds every value it saw, in stream order,
    // so this sampler continues over it (identical to per-element
    // add()s), also when it is empty: the merged sample is the one a
    // serial pass with this sampler's seed draws, whatever the other
    // side's seed. Chunk-sized partials always take this path.
    add_batch(other.samples_);
    return;
  }
  if (seen_ == 0) {
    // Nothing here to weigh against an overflowed other side: adopt it
    // wholesale, substream included.
    *this = other;
    return;
  }
  // Weighted draw: fill each output slot from side A with probability
  // wa/(wa+wb) where the weights start at the stream counts and shrink
  // as elements are consumed — every element of the combined stream
  // ends up in the result with equal probability capacity/(na+nb).
  // Removal is swap-pop, so the merge is O(capacity).
  std::vector<double> a = std::move(samples_);
  std::vector<double> b = other.samples_;
  std::uint64_t wa = seen_;
  std::uint64_t wb = other.seen_;
  std::vector<double> merged;
  merged.reserve(capacity_);
  while (merged.size() < capacity_ && (!a.empty() || !b.empty())) {
    bool from_a = !a.empty() && (b.empty() || rng_.index(wa + wb) < wa);
    std::vector<double>& src = from_a ? a : b;
    std::uint64_t& weight = from_a ? wa : wb;
    auto j = static_cast<std::size_t>(rng_.index(src.size()));
    merged.push_back(src[j]);
    src[j] = src.back();
    src.pop_back();
    if (weight > 1) --weight;
  }
  samples_ = std::move(merged);
  seen_ += other.seen_;
  // The pending gap was drawn for the pre-merge count; re-arm it for
  // the combined stream so subsequent add()s skip with the right
  // distribution.
  skip_ = 0;
  next_gap();
}

void StreamingSummary::merge(const StreamingSummary& other) {
  if (other.empty()) return;
  if (empty()) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  moments_.merge(other.moments_);
  reservoir_.merge(other.reservoir_);
}

double StreamingSummary::min() const {
  EIO_CHECK(!empty());
  return min_;
}

double StreamingSummary::max() const {
  EIO_CHECK(!empty());
  return max_;
}

double StreamingSummary::quantile(double q) const {
  EIO_CHECK(!empty());
  return select_quantile(reservoir_.samples(), q);
}

}  // namespace eio::stats
