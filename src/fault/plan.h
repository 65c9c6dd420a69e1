// Declarative fault plans.
//
// A fault::Plan names the pathologies a run should suffer, in the
// vocabulary of the paper's case studies: a degraded OST whose
// throughput is scaled down over a time window (failing disk, RAID
// rebuild), per-op latency jitter and stalls on the storage servers,
// transient op failures that the client retries with timeout+backoff,
// and straggler ranks whose host does everything slower. Plans are
// pure data — deterministic behaviour comes from fault::Injector,
// which seeds every draw from the run's sim::RunContext — and they
// serialize to/from the scenario JSON schema (schema_version'd, see
// DESIGN.md §5f) so a pathology is a checked-in, versioned document.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/json.h"
#include "common/units.h"

namespace eio::fault {

/// "Until the end of the run" sentinel for fault windows.
inline constexpr Seconds kForever = 1e18;

/// Scale one OST's service bandwidth by `factor` over [from, until).
struct SlowOst {
  OstId ost = 0;
  double factor = 0.25;    ///< capacity multiplier while degraded
  Seconds from = 0.0;      ///< window start (simulated seconds)
  Seconds until = kForever;
};

/// Per-data-op latency jitter: with `probability`, an op stalls for an
/// exponential extra delay before the storage system services it
/// (server hiccup, RPC resend, lock contention).
struct OpJitter {
  double probability = 0.0;
  Seconds mean_stall = 0.02;  ///< mean of the exponential stall
  bool reads = true;          ///< jitter applies to reads
  bool writes = true;         ///< jitter applies to writes
};

/// Transient op failures, retried client-side: each attempt fails with
/// `probability`; a failed attempt costs `timeout` (detection) plus an
/// exponential-backoff wait that doubles per retry. After `max_retries`
/// failures the next attempt always succeeds (the fault is transient),
/// so workloads never see a hard error — just stretched calls.
struct TransientFaults {
  double probability = 0.0;
  std::uint32_t max_retries = 4;
  Seconds timeout = 0.05;
  Seconds backoff = 0.01;  ///< first retry wait; doubles per retry
};

/// Straggler ranks: the chosen ranks' hosts run slow, stretching every
/// data op by `slowdown`x (charged as a stall before the rank's next
/// op, so the lag is visible in the trace and the barrier order
/// statistic alike). Explicit `ranks` win; otherwise `count` ranks are
/// drawn deterministically from the run's plan stream.
struct Stragglers {
  std::uint32_t count = 0;
  std::vector<RankId> ranks;
  double slowdown = 4.0;
};

/// The full fault plan of one scenario.
struct Plan {
  std::vector<SlowOst> slow_osts;
  OpJitter jitter;
  TransientFaults transient;
  Stragglers stragglers;

  /// True when any clause can perturb a run. An empty plan draws no
  /// random numbers and injects nothing — runs are byte-identical to
  /// runs without a fault subsystem at all.
  [[nodiscard]] bool enabled() const noexcept {
    return !slow_osts.empty() || jitter.probability > 0.0 ||
           transient.probability > 0.0 || stragglers.count > 0 ||
           !stragglers.ranks.empty();
  }
};

/// Parse the "faults" object of a scenario document. Unknown keys are
/// rejected (a typo'd clause must not silently produce a healthy run).
[[nodiscard]] Plan plan_from_json(const json::Value& v);

/// Serialize a plan as a JSON object (the inverse of plan_from_json).
[[nodiscard]] std::string plan_to_json(const Plan& plan,
                                       const std::string& indent = "");

/// The kinds of injected events a run reports.
enum class Kind : std::uint8_t {
  kOstDegraded = 0,    ///< slow-OST window opened
  kOstRestored = 1,    ///< slow-OST window closed
  kStall = 2,          ///< jitter stall before a data op
  kRetry = 3,          ///< transient failure(s) + client retries
  kStragglerStall = 4, ///< straggler rank charged its slowdown lag
};

/// One injected fault, as surfaced to observability: markers become
/// OpType::kFault trace events (file = component, offset = kind,
/// duration = detail seconds) so they flow through every trace format
/// and scan unchanged.
struct Marker {
  Seconds time = 0.0;           ///< when the fault bit
  Kind kind = Kind::kStall;
  std::uint64_t component = 0;  ///< OST id / retry count, by kind
  RankId rank = 0;              ///< affected rank (0 for OST windows)
  Seconds detail = 0.0;         ///< injected delay in seconds
};

/// Aggregate injection counters (per run; deterministic).
struct Counts {
  std::uint64_t ost_degradations = 0;
  std::uint64_t ost_restorations = 0;
  std::uint64_t stalls = 0;
  Seconds stall_seconds = 0.0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t ops_retried = 0;
  Seconds retry_seconds = 0.0;
  std::uint64_t straggler_stalls = 0;
  Seconds straggler_seconds = 0.0;

  [[nodiscard]] std::uint64_t total_injections() const noexcept {
    return ost_degradations + stalls + ops_retried + straggler_stalls;
  }
};

}  // namespace eio::fault
