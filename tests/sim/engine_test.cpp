// Unit tests for the discrete-event engine.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/registry.h"

namespace eio::sim {

/// White-box access for slot-recycling tests: lets a test fast-forward
/// a free slot's generation counter to exercise wraparound without
/// 2^32 schedule/cancel cycles.
class EngineTestPeer {
 public:
  static std::uint32_t slot_index(EventId id) { return Engine::slot_of(id); }
  static std::uint32_t generation(EventId id) { return Engine::gen_of(id); }
  static void set_slot_generation(Engine& e, std::uint32_t slot,
                                  std::uint32_t gen) {
    e.slots_[slot].generation = gen;
  }
};

namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.events_run(), 0u);
}

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(EngineTest, EqualTimesRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, ScheduleInIsRelative) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(5.0, [&] {
    e.schedule_in(2.5, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  EventId id = e.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(e.pending(id));
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.pending(id));
  e.run();
  EXPECT_FALSE(ran);
}

TEST(EngineTest, CancelTwiceReturnsFalse) {
  Engine e;
  EventId id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(EngineTest, CancelAfterRunReturnsFalse) {
  Engine e;
  EventId id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(EngineTest, StepRunsExactlyOneEvent) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.step());
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine e;
  std::vector<double> seen;
  e.schedule_at(1.0, [&] { seen.push_back(1.0); });
  e.schedule_at(5.0, [&] { seen.push_back(5.0); });
  e.run_until(3.0);
  EXPECT_EQ(seen, (std::vector<double>{1.0}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  e.run();
  EXPECT_EQ(seen.size(), 2u);
}

TEST(EngineTest, EventsCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_in(1.0, recurse);
  };
  e.schedule_in(1.0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(e.now(), 100.0);
}

TEST(EngineTest, SchedulingIntoThePastThrows) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(1.0, [] {}), std::logic_error);
}

TEST(EngineTest, LiveEventCountTracksCancellation) {
  Engine e;
  EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.live_events(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.live_events(), 1u);
  e.run();
  EXPECT_EQ(e.live_events(), 0u);
}

TEST(EngineTest, CancelledEventsDoNotAdvanceClock) {
  Engine e;
  EventId id = e.schedule_at(10.0, [] {});
  e.schedule_at(1.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(EngineTest, EventsRunCountsOnlyExecuted) {
  Engine e;
  EventId id = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.events_run(), 1u);
}

TEST(EngineTest, ZeroDelayEventRunsAtCurrentTime) {
  Engine e;
  double when = -1.0;
  e.schedule_at(4.0, [&] {
    e.schedule_in(0.0, [&] { when = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(when, 4.0);
}

TEST(EngineTest, CalendarStaysBoundedUnderScheduleCancelChurn) {
  // Lazy cancellation must not let dead heap entries accumulate: the
  // timeout-heavy protocols (readahead timers, retry guards) schedule
  // and cancel constantly. Compaction keeps the calendar within a
  // constant factor of the live set.
  Engine e;
  for (int round = 0; round < 200; ++round) {
    std::vector<EventId> doomed;
    for (int i = 0; i < 50; ++i) {
      EventId id = e.schedule_at(1e6 + round * 50.0 + i, [] {});
      if (i > 0) doomed.push_back(id);  // one survivor per round
    }
    // Cancel 49 of the 50 — ~98% churn.
    for (EventId id : doomed) e.cancel(id);
    EXPECT_LE(e.calendar_entries(), 2 * e.live_events() + 64)
        << "round " << round;
  }
  EXPECT_EQ(e.live_events(), 200u);  // one survivor per round
  e.run();
  EXPECT_EQ(e.calendar_entries(), 0u);
}

TEST(EngineTest, CompactionPreservesOrderAndFifo) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Interleave survivors with a large doomed population so compaction
  // definitely triggers, then check ordering semantics survive it.
  for (int i = 0; i < 500; ++i) {
    doomed.push_back(e.schedule_at(2.0, [] {}));
  }
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(1.0, [&] { order.push_back(11); });  // FIFO tie-break
  for (EventId id : doomed) e.cancel(id);
  EXPECT_LE(e.calendar_entries(), 2 * e.live_events() + 64);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 3}));
}

TEST(EngineTest, ManyEventsStressOrdering) {
  Engine e;
  std::vector<double> times;
  // Deterministic pseudo-random times.
  std::uint64_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    double t = static_cast<double>(x % 100000) / 100.0;
    e.schedule_at(t, [&times, &e] { times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(times.size(), 2000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST(EngineTest, CancelAfterFireOnRecycledSlotStaysFalse) {
  // After an event fires, its slot goes back on the free list and the
  // next schedule reuses it. A stale cancel with the old id must not
  // kill the new tenant.
  Engine e;
  EventId a = e.schedule_in(1.0, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.pending(a));
  EXPECT_FALSE(e.cancel(a));

  bool b_ran = false;
  EventId b = e.schedule_in(1.0, [&] { b_ran = true; });
  ASSERT_EQ(EngineTestPeer::slot_index(b), EngineTestPeer::slot_index(a))
      << "expected the freed slot to be recycled";
  EXPECT_NE(a, b);  // generation differs
  EXPECT_FALSE(e.cancel(a)) << "stale id cancelled the recycled slot";
  EXPECT_TRUE(e.pending(b));
  e.run();
  EXPECT_TRUE(b_ran);
}

TEST(EngineTest, PendingOnRecycledIdDistinguishesGenerations) {
  Engine e;
  EventId a = e.schedule_in(1.0, [] {});
  EXPECT_TRUE(e.cancel(a));
  EventId b = e.schedule_in(2.0, [] {});
  ASSERT_EQ(EngineTestPeer::slot_index(b), EngineTestPeer::slot_index(a));
  EXPECT_FALSE(e.pending(a));
  EXPECT_TRUE(e.pending(b));
  EXPECT_FALSE(e.pending(kInvalidEvent));
}

TEST(EngineTest, SlotGenerationWraparoundIsModular) {
  // Generations are 32-bit and wrap; the contract is modular equality,
  // so an id one generation behind must read dead across the wrap too.
  Engine e;
  EventId a = e.schedule_in(1.0, [] {});
  EXPECT_TRUE(e.cancel(a));
  std::uint32_t slot = EngineTestPeer::slot_index(a);
  EngineTestPeer::set_slot_generation(e, slot, 0xffffffffu);

  bool b_ran = false;
  EventId b = e.schedule_in(1.0, [&] { b_ran = true; });
  ASSERT_EQ(EngineTestPeer::slot_index(b), slot);
  EXPECT_EQ(EngineTestPeer::generation(b), 0xffffffffu);
  EXPECT_TRUE(e.pending(b));
  EXPECT_TRUE(e.cancel(b));  // release wraps the generation to 0

  bool c_ran = false;
  EventId c = e.schedule_in(1.0, [&] { c_ran = true; });
  ASSERT_EQ(EngineTestPeer::slot_index(c), slot);
  EXPECT_EQ(EngineTestPeer::generation(c), 0u);
  EXPECT_FALSE(e.pending(b)) << "pre-wrap id alive after the wrap";
  EXPECT_TRUE(e.pending(c));
  e.run();
  EXPECT_FALSE(b_ran);
  EXPECT_TRUE(c_ran);
}

TEST(EngineTest, CompactionObsCountersAccurateUnderFreelist) {
  // sim.calendar_entries_reaped must account for every dead entry that
  // compaction removed: with no events executed, dead entries are only
  // created by cancel() and only destroyed by compaction, so
  //   reaped == cancels - (calendar_entries - live_events).
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  Engine e;
  std::size_t cancels = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> doomed;
    for (int i = 0; i < 40; ++i) {
      EventId id = e.schedule_at(1e6 + round * 40.0 + i, [] {});
      if (i > 0) doomed.push_back(id);
    }
    for (EventId id : doomed) e.cancel(id);
    cancels += doomed.size();
  }
  obs::Snapshot snap = obs::Registry::instance().snapshot();
  obs::set_enabled(false);

  std::uint64_t compactions = 0;
  std::uint64_t reaped = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "sim.calendar_compactions") compactions = c.value;
    if (c.name == "sim.calendar_entries_reaped") reaped = c.value;
  }
  EXPECT_GE(compactions, 1u) << "98% churn never triggered compaction";
  std::size_t dead_in_heap = e.calendar_entries() - e.live_events();
  EXPECT_EQ(reaped, cancels - dead_in_heap);
  EXPECT_EQ(e.live_events(), 50u);
}

TEST(EngineTest, KeyedEventFiresWhereItsReservationWasMade) {
  // A keyed event armed late, under a sequence number reserved early,
  // runs where a schedule_at() made at reservation time would have.
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(1); });
  std::uint64_t reserved = e.reserve_seq();
  e.schedule_at(1.0, [&] { order.push_back(3); });
  e.schedule_keyed(1.0, reserved, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, ScheduleKeyedRejectsUnreservedSeqAndPast) {
  Engine e;
  EXPECT_THROW(e.schedule_keyed(1.0, 0, [] {}), std::logic_error);
  EXPECT_THROW(e.schedule_keyed(1.0, 5, [] {}), std::logic_error);
  std::uint64_t seq = e.reserve_seq();
  e.schedule_at(2.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_keyed(1.0, seq, [] {}), std::logic_error);
}

TEST(EngineTest, CancelCountIsFlushedOncePerEngine) {
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  {
    Engine e;
    for (int i = 0; i < 10; ++i) {
      EventId id = e.schedule_at(1.0 + i, [] {});
      if (i % 2 == 0) e.cancel(id);
    }
    e.cancel(kInvalidEvent);  // not pending: not a cancel
    e.run();
  }
  obs::Snapshot snap = obs::Registry::instance().snapshot();
  obs::set_enabled(false);
  std::uint64_t cancels = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "sim.calendar_cancels") cancels = c.value;
  }
  EXPECT_EQ(cancels, 5u);
}

TEST(EngineTest, LivePeakIsFlushedOncePerEngine) {
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  {
    Engine e;
    for (int i = 0; i < 7; ++i) e.schedule_at(1.0 + i, [] {});
    e.run();
    e.schedule_at(20.0, [] {});  // below the high-water: no change
    e.run();
  }
  obs::Snapshot snap = obs::Registry::instance().snapshot();
  obs::set_enabled(false);
  std::uint64_t peak = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "sim.calendar_live_peak") peak = c.value;
  }
  EXPECT_EQ(peak, 7u);
}

TEST(EngineTest, PassiveTimerPassesWhereItsEventWouldHaveRun) {
  Engine e;
  std::vector<bool> seen;
  // An event keyed before the passive timer at the same instant runs
  // first and sees it pending; one keyed after sees it passed.
  std::uint64_t timer = 0;
  e.schedule_at(2.0, [&] { seen.push_back(e.passed(2.0, timer)); });
  timer = e.reserve_passive(2.0);
  e.schedule_at(2.0, [&] { seen.push_back(e.passed(2.0, timer)); });
  EXPECT_FALSE(e.passed(2.0, timer));
  EXPECT_EQ(e.live_events(), 2u);  // the passive timer is not an event
  e.run();
  EXPECT_EQ(seen, (std::vector<bool>{false, true}));
}

TEST(EngineTest, DrainingAdvancesTheClockToTheLatestPassiveTimer) {
  Engine e;
  std::uint64_t timer = e.reserve_passive(5.0);
  e.schedule_at(1.0, [] {});
  EXPECT_DOUBLE_EQ(e.run(), 5.0);  // where the timer's event would have left it
  EXPECT_TRUE(e.passed(5.0, timer));
  EXPECT_EQ(e.events_run(), 1u);
}

TEST(EngineTest, RunUntilPassesEveryKeyAtOrBeforeTheDeadline) {
  Engine e;
  std::uint64_t at = e.reserve_passive(3.0);
  std::uint64_t after = e.reserve_passive(3.5);
  e.run_until(3.0);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_TRUE(e.passed(3.0, at));
  EXPECT_FALSE(e.passed(3.5, after));
  // A key reserved after the deadline was reached is still pending,
  // as an event scheduled now would be.
  std::uint64_t late = e.reserve_passive(3.0);
  EXPECT_FALSE(e.passed(3.0, late));
  e.run_until(4.0);
  EXPECT_TRUE(e.passed(3.0, late));
  EXPECT_TRUE(e.passed(3.5, after));
}

}  // namespace
}  // namespace eio::sim
