// The event record and the job metadata every trace carries.
//
// IPM-I/O "collects timestamped trace entries containing the libc
// call, its arguments, and its duration", associating events on the
// same file through a table of open descriptors. TraceEvent carries
// exactly that, plus the IPM region (phase) active when the call
// completed. TraceMeta is the job-level header any trace — in memory,
// TSV or v3 — reports beside its events.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/ids.h"
#include "common/units.h"
#include "posix/hooks.h"

namespace eio::ipm {

/// One traced POSIX call.
struct TraceEvent {
  Seconds start = 0.0;
  Seconds duration = 0.0;
  posix::OpType op = posix::OpType::kRead;
  RankId rank = 0;
  FileId file = kInvalidFile;
  Bytes offset = 0;
  Bytes bytes = 0;
  std::int32_t phase = 0;

  [[nodiscard]] Seconds end() const noexcept { return start + duration; }
};

/// Job-level metadata: the experiment name and rank count of any
/// trace, plus the event count a file format declares.
struct TraceMeta {
  std::string experiment;
  std::uint32_t ranks = 0;
  /// Total events, when the format declares it (TSV header field, v3
  /// footer); validated against the events actually parsed.
  std::optional<std::uint64_t> declared_events;
};

}  // namespace eio::ipm
