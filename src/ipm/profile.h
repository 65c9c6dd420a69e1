// In-situ I/O profiling (the paper's future-work capture mode).
//
// Instead of storing every event, the profile keeps log-spaced duration
// histograms per (call type, transfer-size bucket). The paper's closing
// observation is that "it may not even be necessary to store a majority
// of the performance data, just enough to define the distribution" —
// this class is that data structure. Analysis code can reconstruct
// approximate distributions (bin centers weighted by counts) from it,
// and tests validate the reconstruction against the full trace.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/units.h"
#include "posix/hooks.h"

namespace eio::ipm {

/// Fixed log-spaced duration binning: `kBinsPerDecade` bins per decade
/// from 1 µs to 10^5 s (out-of-range durations clamp to the end bins).
class DurationBins {
 public:
  static constexpr int kBinsPerDecade = 8;
  static constexpr double kFloor = 1e-6;   // 1 µs
  static constexpr int kDecades = 11;      // up to 1e5 s
  static constexpr int kBinCount = kBinsPerDecade * kDecades;

  /// Bin index for a duration.
  [[nodiscard]] static int index(Seconds duration) noexcept;
  /// Geometric center of a bin.
  [[nodiscard]] static Seconds center(int bin) noexcept;
  /// Lower edge of a bin.
  [[nodiscard]] static Seconds lower_edge(int bin) noexcept;
};

/// Histogram-only capture of traced calls.
class Profile {
 public:
  /// Size buckets are powers of two of the byte count (0 for
  /// zero-byte/metadata calls).
  struct Key {
    posix::OpType op = posix::OpType::kRead;
    std::uint32_t size_bucket = 0;
    [[nodiscard]] auto operator<=>(const Key&) const = default;
  };

  /// A weighted sample reconstructed from one histogram bin.
  struct WeightedSample {
    Seconds duration = 0.0;
    std::uint64_t count = 0;
  };

  /// Record one call.
  void observe(posix::OpType op, Bytes bytes, Seconds duration);

  /// Total events recorded.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Events recorded for one op type (across all size buckets).
  [[nodiscard]] std::uint64_t count(posix::OpType op) const;

  /// All (key, bins) pairs, ordered by key.
  [[nodiscard]] const std::map<Key, std::array<std::uint64_t, DurationBins::kBinCount>>&
  cells() const noexcept {
    return cells_;
  }

  /// Reconstruct the duration distribution of an op type as weighted
  /// bin centers (all size buckets combined).
  [[nodiscard]] std::vector<WeightedSample> distribution(posix::OpType op) const;

  /// Approximate mean duration of an op from histogram contents.
  [[nodiscard]] Seconds approximate_mean(posix::OpType op) const;

  /// Size bucket for a byte count (log2, 0 for 0 bytes).
  [[nodiscard]] static std::uint32_t size_bucket(Bytes bytes) noexcept;

 private:
  std::map<Key, std::array<std::uint64_t, DurationBins::kBinCount>> cells_;
  std::uint64_t total_ = 0;
};

}  // namespace eio::ipm
