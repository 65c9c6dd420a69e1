// Application I/O access-pattern detection from traces.
//
// The paper's closing direction: "the IPM-I/O framework will be
// expanded to detect an application's I/O patterns; thus providing key
// information to the underlying file system that can be leveraged for
// improving I/O behavior."  This module classifies each (rank, file,
// direction) access stream from the trace into sequential / strided /
// random, recovers the dominant stride, and emits file-system hints
// (prefetch distance, alignment advice) that a smarter middleware
// could apply.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "ipm/columns.h"
#include "ipm/trace.h"

namespace eio::analysis {

/// Classification of one access stream.
enum class AccessPattern : std::uint8_t {
  kSequential,  ///< each access starts where the previous ended
  kStrided,     ///< constant positive gap between access starts
  kRandom,      ///< no dominant stride
};

[[nodiscard]] const char* pattern_name(AccessPattern pattern) noexcept;

/// One detected stream.
struct StreamPattern {
  RankId rank = 0;
  FileId file = kInvalidFile;
  posix::OpType op = posix::OpType::kRead;  ///< kRead or kWrite
  AccessPattern pattern = AccessPattern::kRandom;
  std::size_t accesses = 0;
  Bytes typical_size = 0;       ///< median access size
  std::int64_t stride = 0;      ///< dominant start-to-start stride
  double confidence = 0.0;      ///< fraction of gaps matching the stride
  bool stripe_aligned = true;   ///< all accesses stripe-aligned?
};

/// Hints a pattern-aware file system could consume.
struct FsHint {
  FileId file = kInvalidFile;
  posix::OpType op = posix::OpType::kRead;
  /// Suggested read-ahead distance (bytes beyond the current access)
  /// for sequential/strided read streams; 0 = disable read-ahead.
  Bytes prefetch_bytes = 0;
  /// True when transfers should be padded/aligned to the stripe size.
  bool advise_alignment = false;
  std::string rationale;
};

/// Every (rank, file, op) access stream as a mergeable kernel (models
/// analysis::Kernel), so `patterns` is one columnar scan at any --jobs
/// value. The grouped state is exact: one {offset, bytes} pair per data
/// call, per stream in trace order — merging chunk partials in chunk
/// order appends each stream's later accesses after its earlier ones.
class PatternsKernel {
 public:
  void add_batch(const ipm::ColumnBatch& b);
  void merge(PatternsKernel&& later);
  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return ipm::kColOp | ipm::kColRank | ipm::kColFile | ipm::kColOffset |
           ipm::kColBytes;
  }

  /// Classify every stream with enough accesses, in (rank, file, op)
  /// order.
  [[nodiscard]] std::vector<StreamPattern> finish();

 private:
  struct StreamKey {
    RankId rank;
    FileId file;
    posix::OpType op;
    [[nodiscard]] auto operator<=>(const StreamKey&) const = default;
  };
  struct Access {
    Bytes offset;
    Bytes bytes;
  };
  struct Row {
    StreamKey key;
    Access access;
  };

  /// Group the last batch's rows into their streams.
  void flush();

  std::map<StreamKey, std::vector<Access>> streams_;
  /// The latest batch's data calls, in trace order, not yet grouped: a
  /// chunk partial (one batch) merges them straight into the earlier
  /// partial's streams, so it never builds stream vectors of its own.
  std::vector<Row> pending_;
};

/// Classify every (rank, file, op) stream with enough accesses, in
/// one pass on one thread (run_kernels with jobs = 1).
[[nodiscard]] std::vector<StreamPattern> detect_patterns(
    const ipm::TraceSource& source);

/// Derive per-(file, op) hints from detected streams: prefetch sizing
/// for coherent read streams, alignment advice for unaligned writes,
/// and read-ahead disabling for random reads.
[[nodiscard]] std::vector<FsHint> derive_hints(
    const std::vector<StreamPattern>& patterns);

}  // namespace eio::analysis
