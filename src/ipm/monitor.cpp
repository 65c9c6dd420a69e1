#include "ipm/monitor.h"

#include "common/check.h"
#include "ipm/trace_source.h"
#include "obs/registry.h"

namespace eio::ipm {

Monitor::Monitor(Config config) : config_(config) {
  if (config_.mode == Mode::kTrace || config_.mode == Mode::kBoth) {
    sinks_.push_back(&trace_sink_);
  }
  if (config_.mode == Mode::kProfile || config_.mode == Mode::kBoth) {
    sinks_.push_back(&profile_sink_);
  }
}

Monitor::~Monitor() {
  detach();
  finish();
}

void Monitor::attach(posix::PosixIo& io) {
  EIO_CHECK_MSG(attached_ == nullptr, "monitor already attached");
  attached_ = &io;
  io.add_observer(this);
}

void Monitor::detach() {
  if (attached_ != nullptr) {
    attached_->remove_observer(this);
    attached_ = nullptr;
  }
}

void Monitor::set_phase(RankId rank, std::int32_t phase) {
  if (phase_.size() <= rank) phase_.resize(rank + 1, 0);
  phase_[rank] = phase;
}

void Monitor::add_sink(EventSink* sink) {
  EIO_CHECK(sink != nullptr);
  sinks_.push_back(sink);
}

void Monitor::finish() {
  if (finished_) return;
  OBS_SPAN("monitor.finish");
  finished_ = true;
  dispatch();
  for (EventSink* sink : sinks_) sink->finish();
}

Trace& Monitor::trace() {
  dispatch();
  return trace_;
}

const Profile& Monitor::profile() {
  dispatch();
  return profile_;
}

void Monitor::dispatch() {
  if (pending_.size() == 0) return;
  const ColumnBatch batch = pending_.view();
  for (EventSink* sink : sinks_) sink->add_batch(batch);
  pending_.clear();
}

void Monitor::on_call(const posix::CallRecord& record) {
  using posix::OpType;
  ++intercepted_;
  OBS_COUNTER_ADD("ipm.calls_intercepted", 1);
  bool is_data = record.op == OpType::kRead || record.op == OpType::kWrite;
  if (!is_data && !config_.record_metadata_calls) return;

  TraceEvent e;
  e.start = record.start;
  e.duration = record.duration;
  e.op = record.op;
  e.rank = record.rank;
  e.file = record.file;
  e.offset = record.offset;
  e.bytes = record.bytes;
  e.phase = record.rank < phase_.size() ? phase_[record.rank] : 0;
  pending_.push_back(e);
  if (pending_.size() == TraceSource::kDefaultBatchEvents) dispatch();
}

}  // namespace eio::ipm
