#include "ipm/profile.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace eio::ipm {

int DurationBins::index(Seconds duration) noexcept {
  if (duration <= kFloor) return 0;
  double decades = std::log10(duration / kFloor);
  int bin = static_cast<int>(decades * kBinsPerDecade);
  return std::clamp(bin, 0, kBinCount - 1);
}

Seconds DurationBins::lower_edge(int bin) noexcept {
  return kFloor * std::pow(10.0, static_cast<double>(bin) / kBinsPerDecade);
}

Seconds DurationBins::center(int bin) noexcept {
  return kFloor *
         std::pow(10.0, (static_cast<double>(bin) + 0.5) / kBinsPerDecade);
}

std::uint32_t Profile::size_bucket(Bytes bytes) noexcept {
  if (bytes == 0) return 0;
  return static_cast<std::uint32_t>(std::bit_width(bytes));
}

void Profile::observe(posix::OpType op, Bytes bytes, Seconds duration) {
  Key key{op, size_bucket(bytes)};
  auto& bins = cells_[key];
  ++bins[static_cast<std::size_t>(DurationBins::index(duration))];
  ++total_;
}

std::uint64_t Profile::count(posix::OpType op) const {
  std::uint64_t n = 0;
  for (const auto& [key, bins] : cells_) {
    if (key.op != op) continue;
    for (std::uint64_t c : bins) n += c;
  }
  return n;
}

std::vector<Profile::WeightedSample> Profile::distribution(posix::OpType op) const {
  std::array<std::uint64_t, DurationBins::kBinCount> merged{};
  for (const auto& [key, bins] : cells_) {
    if (key.op != op) continue;
    for (std::size_t i = 0; i < bins.size(); ++i) merged[i] += bins[i];
  }
  std::vector<WeightedSample> out;
  for (int i = 0; i < DurationBins::kBinCount; ++i) {
    if (merged[static_cast<std::size_t>(i)] == 0) continue;
    out.push_back({DurationBins::center(i), merged[static_cast<std::size_t>(i)]});
  }
  return out;
}

Seconds Profile::approximate_mean(posix::OpType op) const {
  double weighted = 0.0;
  std::uint64_t n = 0;
  for (const WeightedSample& s : distribution(op)) {
    weighted += s.duration * static_cast<double>(s.count);
    n += s.count;
  }
  return n == 0 ? 0.0 : weighted / static_cast<double>(n);
}

}  // namespace eio::ipm
