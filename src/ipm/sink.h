// Streaming event sinks: the capture side of the trace pipeline.
//
// The paper's §VI argues the tracing paradigm must give way to
// scalable statistical capture — "from events to ensembles" as an
// architecture. An EventSink receives every completed call exactly
// once, in completion order, as columnar batches (the Monitor buffers
// one chunk of calls and hands it on), and decides what bounded state
// to keep. The Monitor drives a chain of sinks, so full tracing,
// in-situ profiling, on-line statistics and streaming file emission
// are all the same mechanism: one batch dispatched to N accumulators,
// none of which needs the whole trace in memory. The analysis kernels
// take the same batches from a trace file, so a sink computes the same
// state live as it does offline.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "ipm/columns.h"
#include "ipm/profile.h"
#include "ipm/trace.h"

namespace eio::ipm {

/// Receives every captured event once, in completion order.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// The next run of completed, phase-tagged calls, every column
  /// present. Batch boundaries carry no meaning: a sink's state must
  /// not depend on how the stream was cut.
  virtual void add_batch(const ColumnBatch& batch) = 0;

  /// Capture is over; flush any buffered state (e.g. a trailing chunk
  /// and footer index for file writers). Must be idempotent.
  virtual void finish() {}
};

/// Full-trace sink: appends every event to a Trace (O(events) memory —
/// the paper's default capture mode).
class TraceSink final : public EventSink {
 public:
  explicit TraceSink(Trace& trace) : trace_(&trace) {}
  void add_batch(const ColumnBatch& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      trace_->add(batch.event_at(i));
    }
  }

 private:
  Trace* trace_;
};

/// In-situ profile sink: folds each event into the (op, size-bucket)
/// duration histograms (O(1) memory — the paper's future-work mode).
class ProfileSink final : public EventSink {
 public:
  explicit ProfileSink(Profile& profile) : profile_(&profile) {}
  void add_batch(const ColumnBatch& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      profile_->observe(static_cast<posix::OpType>(batch.op[i]),
                        batch.bytes[i], batch.duration[i]);
    }
  }

 private:
  Profile* profile_;
};

/// Fan-out: one batch dispatched to N member sinks in order. Members
/// are borrowed shared_ptrs so a caller can keep a typed handle to
/// each (e.g. a SummarySink plus a monitor::HealthKernel on one run).
class FanoutSink final : public EventSink {
 public:
  explicit FanoutSink(std::vector<std::shared_ptr<EventSink>> sinks)
      : sinks_(std::move(sinks)) {}

  void add_batch(const ColumnBatch& batch) override {
    for (const auto& s : sinks_) s->add_batch(batch);
  }
  void finish() override {
    for (const auto& s : sinks_) s->finish();
  }

 private:
  std::vector<std::shared_ptr<EventSink>> sinks_;
};

}  // namespace eio::ipm
