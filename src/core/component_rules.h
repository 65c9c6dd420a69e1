// The component-fault rules shared by the post-hoc diagnoser
// (core/diagnose) and the online health monitor (monitor/health):
// is one OST class collectively slow, and does the same rank finish
// phase after phase far behind the second-slowest? The diagnoser asks
// over the whole trace, the monitor over a sliding window or the
// phases closed so far; each rule is written once, here, and each
// caller formats its own message. No caller tunes the thresholds, so
// they are constants: one value keeps the two layers in step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace eio::analysis::rules {

inline constexpr std::size_t kMinEvents = 32;  ///< fewer bulk events: silent
inline constexpr double kDegradedRatio = 2.5;  ///< class vs fleet median
inline constexpr double kStragglerGap = 1.5;   ///< slowest / 2nd-slowest

/// OST class of a file: the creation-order round-robin, exact for
/// single-stripe file-per-process layouts. Callers handle kInvalidFile
/// and ost_count == 0. A file id that fits 32 bits (every one in
/// practice) takes the 32-bit modulo, several times cheaper per row
/// than the 64-bit one.
[[nodiscard]] inline std::uint32_t ost_class(FileId file,
                                             std::uint32_t ost_count) noexcept {
  const FileId id = file - 1;
  return id <= std::numeric_limits<std::uint32_t>::max()
             ? static_cast<std::uint32_t>(id) % ost_count
             : static_cast<std::uint32_t>(id % ost_count);
}

struct DegradedOst {
  std::uint32_t ost = 0;
  double ratio = 0.0;      ///< class median / median of class medians
  double runner_up = 0.0;  ///< the next-slowest class's ratio
  std::size_t events = 0;  ///< samples in the slow class
  double severity = 0.0;
};

/// Reused so repeated evaluations allocate only while growing.
struct DegradedScratch {
  std::vector<std::pair<std::uint32_t, double>> medians;
  std::vector<double> meds;
};

/// `classes[c]` holds class c's bulk durations (reordered in place);
/// `events` counts every admitted bulk event, classed or not. Fires on
/// a lone class (of those with >= 6 samples, at least three) whose
/// median is kDegradedRatio past the median of class medians and 1.5x
/// past the runner-up.
[[nodiscard]] std::optional<DegradedOst> degraded_ost(
    std::size_t events, std::span<const std::span<double>> classes,
    DegradedScratch& scratch);

/// Start and latest completion per rank of one barrier-bounded phase.
struct PhaseEnds {
  double start = 0.0;
  bool any = false;
  /// Indexed by rank, -1 = unseen: the per-event update is an array
  /// store, and the closing scan walks ranks ascending (ties resolve
  /// to the lowest rank).
  std::vector<double> end_by_rank;
  std::size_t ranks = 0;  ///< slots >= 0 in end_by_rank

  void add(double event_start, double event_end, RankId rank) {
    if (!any || event_start < start) start = event_start;
    any = true;
    if (end_by_rank.size() <= rank) {
      end_by_rank.resize(static_cast<std::size_t>(rank) + 1, -1.0);
    }
    double& end = end_by_rank[rank];
    if (end < 0.0) {
      ++ranks;
      end = event_end;
    } else if (end < event_end) {
      end = event_end;
    }
  }
  /// Fold another partial of the same phase in (exact min and max).
  void merge(const PhaseEnds& other);
};

struct Straggler {
  RankId rank = kInvalidRank;
  std::size_t votes = 0;   ///< stretched phases it finished last in
  std::size_t firing = 0;  ///< stretched phases overall
  double worst_gap = 1.0;
  double severity = 0.0;
};

/// The straggler-rank rule, fed closed phases in ascending order.
class StragglerTally {
 public:
  /// Considers a phase with at least four ranks (returns false
  /// otherwise); a kStragglerGap between its top two completion
  /// offsets votes for the slowest rank.
  bool add_phase(const PhaseEnds& phase);
  /// Fires when, over `events` bulk events, at least three phases were
  /// considered, at least two (and half) of them stretched, and one
  /// rank was slowest in 2/3 of those.
  [[nodiscard]] std::optional<Straggler> verdict(std::size_t events) const;
  [[nodiscard]] double worst_gap() const noexcept { return worst_gap_; }

 private:
  std::size_t considered_ = 0;
  std::size_t firing_ = 0;
  std::map<RankId, std::size_t> votes_;
  double worst_gap_ = 1.0;
};

}  // namespace eio::analysis::rules
