// The IPM-I/O monitor: interposed call recording.
//
// Attach a Monitor to the POSIX layer and it stamps every completed
// call with the rank's current IPM region (phase) and emits it into a
// chain of EventSinks. The built-in sinks match the paper's present
// and future-work capture paradigms:
//
//  * full tracing (default): a TraceSink keeps every event — "by
//    default IPM-I/O emits the entire trace";
//  * in-situ profiling (`Mode::kProfile`): a ProfileSink keeps only
//    per-(op, size-bucket) duration histograms, the paper's proposed
//    transition "from an I/O tracing paradigm to an I/O profiling
//    paradigm".
//
// Callers can add further sinks (streaming statistics accumulators,
// an indexed-file TraceWriterV3, ...) with add_sink(). The monitor
// appends each call to a columnar buffer of
// TraceSource::kDefaultBatchEvents rows and hands the full buffer to
// every sink as one ColumnBatch, so each sink sees every event exactly
// once, in completion order, through its one entry point. The monitor
// also accounts its own overhead (a fixed cost per intercepted call)
// so the "lightweight" claim is checkable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "ipm/columns.h"
#include "ipm/profile.h"
#include "ipm/sink.h"
#include "ipm/trace.h"
#include "posix/hooks.h"
#include "posix/vfs.h"

namespace eio::ipm {

/// Capture paradigm.
enum class Mode : std::uint8_t {
  kTrace,    ///< keep every event
  kProfile,  ///< keep only histograms (scalable future-work mode)
  kBoth,     ///< keep both (used to validate profile against trace)
};

class Monitor final : public posix::IoObserver {
 public:
  struct Config {
    Mode mode = Mode::kTrace;
    Seconds per_event_overhead = us(1.5);  ///< cost of one interception
    bool record_metadata_calls = true;     ///< include open/close/seek/fsync
  };

  explicit Monitor(Config config);
  ~Monitor() override;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Start observing a POSIX layer (detaches automatically on
  /// destruction).
  void attach(posix::PosixIo& io);
  void detach();

  /// Set the IPM region subsequent events of `rank` are tagged with.
  void set_phase(RankId rank, std::int32_t phase);

  /// Append a sink to the chain (non-owning; must outlive capture).
  /// Added sinks receive every subsequent event after the built-ins.
  void add_sink(EventSink* sink);

  /// Capture is over: hand on the pending batch, then finish() every
  /// sink in the chain. Idempotent; called by the destructor, but
  /// explicit calls are preferred for sinks whose finish can fail
  /// (e.g. file writers).
  void finish();

  /// IoObserver hook.
  void on_call(const posix::CallRecord& record) override;

  /// The built-in collectors, after the pending batch is handed on so
  /// they hold every event captured so far.
  [[nodiscard]] Trace& trace();
  [[nodiscard]] const Profile& profile();

  /// Number of intercepted calls.
  [[nodiscard]] std::uint64_t intercepted() const noexcept { return intercepted_; }

  /// Total accounted monitoring overhead (intercepted * per-event cost).
  [[nodiscard]] Seconds accounted_overhead() const noexcept {
    return static_cast<double>(intercepted_) * config_.per_event_overhead;
  }

 private:
  Config config_;
  posix::PosixIo* attached_ = nullptr;
  Trace trace_;
  Profile profile_;
  TraceSink trace_sink_{trace_};
  ProfileSink profile_sink_{profile_};
  std::vector<EventSink*> sinks_;    ///< the dispatch chain
  ColumnScratch pending_;            ///< calls not yet handed on
  std::vector<std::int32_t> phase_;  ///< per-rank current region
  std::uint64_t intercepted_ = 0;
  bool finished_ = false;

  /// Hand the pending batch to every sink.
  void dispatch();
};

}  // namespace eio::ipm
