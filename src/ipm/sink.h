// Streaming event sinks: the capture side of the trace pipeline.
//
// The paper's §VI argues the tracing paradigm must give way to
// scalable statistical capture — "from events to ensembles" as an
// architecture. An EventSink receives each completed call exactly once,
// as it happens, and decides what bounded state to keep. The Monitor
// drives a chain of sinks, so full tracing, in-situ profiling, on-line
// statistics and streaming file emission are all the same mechanism:
// one event dispatched to N accumulators, none of which needs the
// whole trace in memory.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "ipm/profile.h"
#include "ipm/trace.h"

namespace eio::ipm {

/// Receives every captured event once, in completion order.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// One completed, phase-tagged call.
  virtual void on_event(const TraceEvent& event) = 0;

  /// Capture is over; flush any buffered state (e.g. a trailing chunk
  /// and footer index for file writers). Must be idempotent.
  virtual void finish() {}
};

/// Full-trace sink: appends every event to a Trace (O(events) memory —
/// the paper's default capture mode).
class TraceSink final : public EventSink {
 public:
  explicit TraceSink(Trace& trace) : trace_(&trace) {}
  void on_event(const TraceEvent& event) override { trace_->add(event); }

 private:
  Trace* trace_;
};

/// In-situ profile sink: folds each event into the (op, size-bucket)
/// duration histograms (O(1) memory — the paper's future-work mode).
class ProfileSink final : public EventSink {
 public:
  explicit ProfileSink(Profile& profile) : profile_(&profile) {}
  void on_event(const TraceEvent& event) override {
    profile_->observe(event.op, event.bytes, event.duration);
  }

 private:
  Profile* profile_;
};

/// Fan-out: one event dispatched to N member sinks in order. Members
/// are borrowed shared_ptrs so a caller can keep a typed handle to
/// each (e.g. a SummarySink plus a monitor::HealthSink on one run).
class FanoutSink final : public EventSink {
 public:
  explicit FanoutSink(std::vector<std::shared_ptr<EventSink>> sinks)
      : sinks_(std::move(sinks)) {}

  void on_event(const TraceEvent& event) override {
    for (const auto& s : sinks_) s->on_event(event);
  }
  void finish() override {
    for (const auto& s : sinks_) s->finish();
  }

 private:
  std::vector<std::shared_ptr<EventSink>> sinks_;
};

/// Adapter for ad-hoc consumers (tests, lambdas).
class FunctionSink final : public EventSink {
 public:
  explicit FunctionSink(std::function<void(const TraceEvent&)> fn)
      : fn_(std::move(fn)) {}
  void on_event(const TraceEvent& event) override { fn_(event); }

 private:
  std::function<void(const TraceEvent&)> fn_;
};

}  // namespace eio::ipm
