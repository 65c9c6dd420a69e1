// Discrete-event simulation engine.
//
// A binary-heap calendar of cancellable events, built for zero heap
// allocations per event in steady state:
//
//  - Actions are InlineFunction (fixed-size in-place captures; a
//    too-large capture is a compile error, never a hidden allocation).
//  - Live actions sit in a slot slab with a free list. An EventId
//    packs (generation << 32) | (slot + 1); schedule, cancel, pending
//    and step are O(1) array operations, and a stale heap entry is
//    recognized by a generation mismatch instead of a hash probe.
//
// Cancellation is lazy: the heap entry stays behind, but releasing the
// slot bumps its generation, so popping skips it. When dead entries
// outnumber live ones the heap is compacted in place, so schedule/
// cancel churn keeps the calendar bounded by the live event count
// instead of growing monotonically. Events at equal times fire in
// scheduling order (FIFO tie-break via a monotone sequence number
// carried in the heap entry — recycled EventIds are not monotone),
// which keeps runs deterministic.
//
// Keyed events: a component that keeps its own timer queue (the fluid
// network's flow completions) takes sequence numbers with
// reserve_seq() at the moment it would have scheduled, and arms one
// event for its earliest timer with schedule_keyed() under that
// timer's own (time, seq) key. Ties against every other event then
// resolve exactly as if each timer were its own calendar event.
//
// Passive keyed timers go one step further: a timer whose only effect
// is to mark its moment as past (the filesystem's residue reclaim)
// takes its key with reserve_passive() and never enters the calendar.
// Its owner asks passed(when, seq), which is true iff the key sorts
// before the running event's key, exactly when the timer's own event
// would already have run. When the calendar drains, the clock still
// advances to the latest passive timer, where running it would have
// left it.
//
// Generation counters are 32-bit and wrap modularly: an id could alias
// a later event in the same slot only after 2^32 reuses of that slot
// while the stale id is still held, which no simulation approaches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "obs/registry.h"
#include "sim/inline_function.h"

namespace eio::sim {

/// Handle to a scheduled event; used for cancellation. Packs
/// (generation << 32) | (slot index + 1), so 0 stays the sentinel.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

class EngineTestPeer;

/// The event calendar and simulation clock.
class Engine {
 public:
  /// Inline capture budget for scheduled actions. Sized for the
  /// largest hot-path caller (lustre sync-write launch closures and
  /// deferred FlowSpec captures); growing a capture past this is a
  /// static_assert in InlineFunction, not a silent heap fallback.
  static constexpr std::size_t kActionCapacity = 256;

  using Action = InlineFunction<void(), kActionCapacity>;

  Engine() = default;
  /// Flushes the run's cancel count (sim.calendar_cancels) and live
  /// event high-water (sim.calendar_live_peak) to obs once, so the hot
  /// paths never touch an atomic.
  ~Engine() {
    OBS_COUNTER_ADD("sim.calendar_cancels", cancels_);
    OBS_COUNTER_ADD("sim.calendar_live_peak", live_peak_);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time.
  [[nodiscard]] Seconds now() const noexcept { return now_; }

  /// Schedule `action` to run at absolute time `when` (>= now).
  /// Returns a handle that can be passed to cancel().
  EventId schedule_at(Seconds when, Action action) {
    check_not_past(when);
    return insert(when, ++next_seq_, std::move(action));
  }

  /// Schedule `action` to run `delay` seconds from now.
  EventId schedule_in(Seconds delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Take the next FIFO sequence number without scheduling anything.
  /// The number orders a later schedule_keyed() exactly where a
  /// schedule_at() made now would have been ordered.
  [[nodiscard]] std::uint64_t reserve_seq() noexcept { return ++next_seq_; }

  /// Schedule `action` at `when` under a sequence number previously
  /// returned by reserve_seq(). Does not advance the sequence counter.
  EventId schedule_keyed(Seconds when, std::uint64_t seq, Action action) {
    check_not_past(when);
    EIO_CHECK_MSG(seq != 0 && seq <= next_seq_, "unreserved sequence number " << seq);
    return insert(when, seq, std::move(action));
  }

  /// Reserve the key of a passive timer due at `when`: the sequence
  /// number a schedule_at(when, ...) made now would have drawn, with no
  /// calendar entry. The owner keeps (when, seq) and asks passed().
  [[nodiscard]] std::uint64_t reserve_passive(Seconds when) {
    check_not_past(when);
    passive_horizon_ = std::max(passive_horizon_, when);
    return reserve_seq();
  }

  /// True iff an event keyed (when, seq) would already have run: the key
  /// sorts before the running (or last run) event's key. After
  /// run_until(deadline), or once the calendar drains, every key
  /// reserved so far at or before now() has passed.
  [[nodiscard]] bool passed(Seconds when, std::uint64_t seq) const noexcept {
    return when < now_ || (when == now_ && seq < cursor_seq_);
  }

  /// Cancel a previously scheduled event. Returns true if the event was
  /// still pending (false if it already ran or was cancelled).
  bool cancel(EventId id) {
    if (!pending(id)) return false;
    release_slot(slot_of(id));
    --live_count_;
    ++cancels_;
    maybe_compact();
    return true;
  }

  /// True if an event is still pending. O(1): bounds + generation
  /// check (only ids returned by schedule_* are meaningful here).
  [[nodiscard]] bool pending(EventId id) const {
    if (id == kInvalidEvent) return false;
    std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].generation == gen_of(id);
  }

  /// Number of live (not-yet-run, not-cancelled) events. Passive
  /// timers are not events and never count.
  [[nodiscard]] std::size_t live_events() const noexcept { return live_count_; }

  /// Number of calendar entries, live or cancelled-but-not-yet-reaped.
  /// Compaction keeps this within 2x of live_events() (plus a small
  /// constant below which compaction is not worth the scan).
  [[nodiscard]] std::size_t calendar_entries() const noexcept {
    return heap_.size();
  }

  /// Run a single event. Returns false if the calendar is empty, after
  /// advancing the clock past every passive timer.
  bool step() {
    while (!heap_.empty()) {
      Entry top = heap_.front();
      pop_entry();
      std::uint32_t slot = slot_of(top.id);
      if (slots_[slot].generation != gen_of(top.id)) {
        continue;  // cancelled — stale entry discarded
      }
      now_ = top.when;
      cursor_seq_ = top.seq;
      // Move the action out and free the slot *before* invoking: the
      // action may schedule (possibly reusing this slot or growing the
      // slab) and the slot reference would not survive that.
      Action action = std::move(slots_[slot].action);
      release_slot(slot);
      --live_count_;
      ++events_run_;
      action();
      return true;
    }
    pass_through(passive_horizon_);
    return false;
  }

  /// Run until the calendar drains. Returns the final time.
  Seconds run() {
    OBS_SPAN("sim.run");
    std::uint64_t before = events_run_;
    while (step()) {
    }
    OBS_COUNTER_ADD("sim.events_run", events_run_ - before);
    return now_;
  }

  /// Run until the calendar drains or the clock passes `deadline`.
  Seconds run_until(Seconds deadline) {
    while (!heap_.empty()) {
      // Peek at the next live event's time without running it.
      Entry top = heap_.front();
      if (slots_[slot_of(top.id)].generation != gen_of(top.id)) {
        pop_entry();
        continue;
      }
      if (top.when > deadline) break;
      step();
    }
    pass_through(deadline);
    return now_;
  }

  /// Total number of events executed so far.
  [[nodiscard]] std::uint64_t events_run() const noexcept { return events_run_; }

 private:
  friend class EngineTestPeer;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    Action action;
    std::uint32_t generation = 0;  ///< matches live ids; bumped on release
    std::uint32_t next_free = kNoSlot;
  };

  struct Entry {
    Seconds when;
    std::uint64_t seq;  ///< monotone schedule order (FIFO tie-break)
    EventId id;
    // Min-heap by (time, schedule order).
    [[nodiscard]] bool operator>(const Entry& o) const noexcept {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  [[nodiscard]] static constexpr EventId pack(std::uint32_t slot,
                                              std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) |
           static_cast<EventId>(slot + 1);
  }
  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  [[nodiscard]] static constexpr std::uint32_t gen_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Move the clock to `t` (if not past it) as if every event keyed at
  /// or before `t` had run, passive timers included.
  void pass_through(Seconds t) noexcept {
    if (now_ > t) return;
    now_ = t;
    cursor_seq_ = next_seq_ + 1;
  }

  void check_not_past(Seconds when) const {
    EIO_CHECK_MSG(when >= now_, "scheduling into the past: when=" << when
                                                                  << " now=" << now_);
  }

  EventId insert(Seconds when, std::uint64_t seq, Action action) {
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.action = std::move(action);
    EventId id = pack(slot, s.generation);
    heap_.push_back(Entry{when, seq, id});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++live_count_;
    live_peak_ = std::max(live_peak_, live_count_);
    return id;
  }

  /// Return a slot to the free list; the generation bump invalidates
  /// every outstanding id (and stale heap entry) pointing at it.
  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.action.reset();
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// Pop the root of the min-heap.
  void pop_entry() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }

  /// Reap cancelled entries once they exceed the live ones. Linear in
  /// the heap, but amortized O(1) per cancel: a compaction halves the
  /// heap, so the next one needs at least that many new dead entries.
  void maybe_compact() {
    if (heap_.size() < kCompactMinEntries) return;
    if (heap_.size() - live_count_ <= live_count_) return;
    OBS_COUNTER_ADD("sim.calendar_compactions", 1);
    OBS_COUNTER_ADD("sim.calendar_entries_reaped", heap_.size() - live_count_);
    std::erase_if(heap_, [this](const Entry& e) {
      return slots_[slot_of(e.id)].generation != gen_of(e.id);
    });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  /// Below this calendar size compaction is not worth the scan.
  static constexpr std::size_t kCompactMinEntries = 64;

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cursor_seq_ = 0;  ///< seq of the running (or last run) event
  Seconds passive_horizon_ = 0.0;  ///< latest passive timer reserved
  std::uint64_t events_run_ = 0;
  std::uint64_t cancels_ = 0;
  std::size_t live_count_ = 0;
  std::size_t live_peak_ = 0;
  // Min-heap via std::*_heap with std::greater (see Entry::operator>).
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace eio::sim
