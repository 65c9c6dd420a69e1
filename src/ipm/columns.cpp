#include "ipm/columns.h"

#include "common/check.h"

namespace eio::ipm {

void ColumnScratch::clear() noexcept {
  start.clear();
  duration.clear();
  op.clear();
  rank.clear();
  file.clear();
  offset.clear();
  bytes.clear();
  phase.clear();
}

void ColumnScratch::push_back(const TraceEvent& e) {
  start.push_back(e.start);
  duration.push_back(e.duration);
  op.push_back(static_cast<std::uint8_t>(e.op));
  rank.push_back(e.rank);
  file.push_back(e.file);
  offset.push_back(e.offset);
  bytes.push_back(e.bytes);
  phase.push_back(e.phase);
}

ColumnBatch ColumnScratch::view(ColumnMask mask) const {
  ColumnBatch batch;
  batch.events = size();
  if (mask & kColStart) batch.start = start;
  if (mask & kColDuration) batch.duration = duration;
  if (mask & kColOp) batch.op = op;
  if (mask & kColRank) batch.rank = rank;
  if (mask & kColFile) batch.file = file;
  if (mask & kColOffset) batch.offset = offset;
  if (mask & kColBytes) batch.bytes = bytes;
  if (mask & kColPhase) batch.phase = phase;
  return batch;
}

ColumnBatch ColumnBatch::slice(std::size_t first, std::size_t count) const {
  EIO_CHECK_MSG(first + count <= events, "ColumnBatch::slice out of range");
  auto cut = [first, count](auto column) {
    return column.empty() ? column : column.subspan(first, count);
  };
  ColumnBatch out;
  out.events = count;
  out.start = cut(start);
  out.duration = cut(duration);
  out.op = cut(op);
  out.rank = cut(rank);
  out.file = cut(file);
  out.offset = cut(offset);
  out.bytes = cut(bytes);
  out.phase = cut(phase);
  return out;
}

ColumnBatch shred(std::span<const TraceEvent> events, ColumnScratch& scratch,
                  ColumnMask mask) {
  scratch.clear();
  for (const TraceEvent& e : events) scratch.push_back(e);
  return scratch.view(mask);
}

}  // namespace eio::ipm
