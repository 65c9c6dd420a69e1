// Automatic bottleneck diagnosis from ensemble statistics.
//
// The paper closes by proposing that IPM-I/O "will be expanded to
// detect an application's I/O patterns". This module implements that
// extension: each detector encodes one of the paper's diagnostic
// arguments as a rule over the trace's ensemble statistics, and
// returns a structured finding when it fires.
//
//  * kHarmonicModes      — Figure 1c: completion-time modes at T, T/2,
//                          T/4 ⇒ intra-node stream serialization;
//  * kReadDeterioration  — Figure 5a: per-phase read times strictly
//                          worsening across phases ⇒ middleware
//                          (read-ahead) pathology;
//  * kHeavyReadTail      — Figure 4c: a read tail orders of magnitude
//                          past the median mode;
//  * kMetadataSerialization — Figure 6g: small ops concentrated on one
//                          rank occupying a large share of run time
//                          ⇒ aggregate/defer metadata;
//  * kSubFairShare       — Figure 6c/f: per-task rate mass far below
//                          fair share with unaligned offsets present
//                          ⇒ align transfers to the stripe size;
//  * kSplittingOpportunity — Figure 2: one large transfer per barrier
//                          phase ⇒ split calls / collective buffering
//                          (LLN narrowing);
//  * kDegradedOst        — §IV degraded-component signature: a slow
//                          duration mode concentrated on the files of
//                          one OST ⇒ failing disk / RAID rebuild on
//                          that OST (needs DiagnoserOptions::ost_count);
//  * kStragglerRank      — order-statistics signature: the same rank
//                          finishes phases far behind the second-
//                          slowest ⇒ a slow host, not random noise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/units.h"
#include "core/component_rules.h"
#include "ipm/columns.h"
#include "ipm/trace.h"

namespace eio::analysis {

/// Detector identities.
enum class FindingCode : std::uint8_t {
  kHarmonicModes,
  kReadDeterioration,
  kHeavyReadTail,
  kMetadataSerialization,
  kSubFairShare,
  kSplittingOpportunity,
  kDegradedOst,
  kStragglerRank,
};

[[nodiscard]] const char* finding_name(FindingCode code) noexcept;

/// One diagnostic result.
struct Finding {
  FindingCode code{};
  double severity = 0.0;  ///< 0..1, how strongly the rule fired
  std::string message;    ///< human-readable diagnosis + suggested fix
  double metric = 0.0;    ///< detector-specific headline number
};

/// Tunables for the detectors. Every other threshold is a constant of
/// its rule (see core/component_rules.h for the two rules the online
/// monitor shares).
struct DiagnoserOptions {
  Rate fair_share_rate = 0.0;  ///< per-task fair-share bytes/s (0 = skip
                               ///< the sub-fair-share detector)
  Bytes stripe_size = 1 * MiB;
  /// OSTs on the machine the trace came from (0 = skip the degraded-OST
  /// detector). File ids are attributed to OSTs by the creation-order
  /// round-robin `(file - 1) % ost_count` — exact for the single-stripe
  /// file-per-process layouts where per-OST attribution is meaningful.
  std::uint32_t ost_count = 0;
};

/// The eight detectors as one mergeable kernel (models
/// analysis::Kernel), so `diagnose` is a single columnar scan at any
/// --jobs value. The state is exact — at most one duration per
/// admitted event and detector, never a sample or an event copy — and
/// merging per-chunk partials in chunk order appends every sample
/// after the earlier ones, so each statistic sees the samples in trace
/// order and the findings match one serial pass byte for byte.
class DiagnoseKernel {
 public:
  explicit DiagnoseKernel(const DiagnoserOptions& options = {});

  void add_batch(const ipm::ColumnBatch& b);
  void merge(DiagnoseKernel&& later);
  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept;

  /// Run every detector over the folded state; findings sorted by
  /// severity. Consumes the state (selections reorder it in place).
  [[nodiscard]] std::vector<Finding> finish();

 private:
  void detect_harmonics(std::vector<Finding>& findings) const;
  void detect_read_phases(std::vector<Finding>& findings);
  void detect_metadata_serialization(std::vector<Finding>& findings) const;
  void detect_sub_fair_share(std::vector<Finding>& findings) const;
  void detect_splitting_opportunity(std::vector<Finding>& findings) const;
  void detect_degraded_ost(std::vector<Finding>& findings);
  void detect_straggler_rank(std::vector<Finding>& findings) const;

  DiagnoserOptions opt_;
  double span_ = 0.0;  ///< latest event end, every op (Trace::span())
  /// Writes of at least a stripe, in trace order (harmonic modes).
  std::vector<double> writes_;
  /// Reads of at least a stripe by phase, each in trace order (read
  /// deterioration per phase; all of them for the heavy tail).
  std::map<std::int32_t, std::vector<double>> reads_;
  /// Small-transfer durations by rank, in trace order: the per-rank
  /// sums must add in trace order to match the serial answer.
  std::map<RankId, std::vector<double>> small_by_rank_;
  /// Writes of at least 64 stripes by rank, in trace order.
  std::map<RankId, std::vector<double>> big_by_rank_;
  // Bulk (>= stripe / 4) transfers: the degraded-OST and straggler
  // population, plus the sub-fair-share counts over bulk writes.
  std::size_t bulk_ = 0;
  std::size_t bulk_writes_ = 0;
  std::size_t below_share_ = 0;
  std::size_t unaligned_ = 0;
  std::vector<std::vector<double>> by_class_;  ///< durations per OST class
  std::unordered_set<FileId> files_;           ///< bulk-transfer files
  std::map<std::int32_t, rules::PhaseEnds> phases_;
};

/// Run every detector over the trace in one pass on one thread
/// (run_kernels with jobs = 1); findings sorted by severity.
[[nodiscard]] std::vector<Finding> diagnose(const ipm::TraceSource& source,
                                            const DiagnoserOptions& options = {});

}  // namespace eio::analysis
