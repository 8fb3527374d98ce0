#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

namespace s4d::sim {
namespace {

TEST(Engine, StartsAtZeroAndIdle) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.idle());
  EXPECT_FALSE(engine.Step());
}

TEST(Engine, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(30, [&] { order.push_back(3); });
  engine.ScheduleAt(10, [&] { order.push_back(1); });
  engine.ScheduleAt(20, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine engine;
  SimTime fired_at = -1;
  engine.ScheduleAt(100, [&] {
    engine.ScheduleAfter(50, [&] { fired_at = engine.now(); });
  });
  engine.Run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(engine.Cancel(id));
  EXPECT_FALSE(engine.Cancel(id));  // second cancel is a no-op
  engine.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.now(), 0);  // cancelled events do not advance time
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  for (SimTime t = 10; t <= 100; t += 10) {
    engine.ScheduleAt(t, [&] { ++fired; });
  }
  engine.RunUntil(50);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(engine.now(), 50);
  engine.RunUntil(100);
  EXPECT_EQ(fired, 10);
}

TEST(Engine, RunUntilAdvancesClockWhenQueueDrains) {
  Engine engine;
  engine.ScheduleAt(10, [] {});
  engine.RunUntil(500);
  EXPECT_EQ(engine.now(), 500);
  // The latest deadline there is: everything fires, and the run returns.
  int fired = 0;
  engine.ScheduleAt(600, [&] { ++fired; });
  engine.ScheduleAt(700, [&] { ++fired; });
  engine.RunUntil(Engine::kNoEvent);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), Engine::kNoEvent);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine engine;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) engine.ScheduleAfter(1, chain);
  };
  engine.ScheduleAt(0, chain);
  engine.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(engine.now(), 99);
  EXPECT_EQ(engine.events_fired(), 100u);
}

TEST(Engine, CancelFromInsideCallback) {
  Engine engine;
  bool victim_fired = false;
  bool late_fired = false;
  EventId victim = engine.ScheduleAt(20, [&] { victim_fired = true; });
  engine.ScheduleAt(10, [&] { EXPECT_TRUE(engine.Cancel(victim)); });
  // Cancelling an event scheduled at the *current* time (ring fast path)
  // from a callback firing at that same time must also work.
  engine.ScheduleAt(30, [&] {
    const EventId sibling =
        engine.ScheduleAt(engine.now(), [&] { late_fired = true; });
    EXPECT_TRUE(engine.Cancel(sibling));
  });
  engine.Run();
  EXPECT_FALSE(victim_fired);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(engine.now(), 30);
  EXPECT_TRUE(engine.idle());
}

TEST(Engine, SameTimestampFifoAcrossManyEvents) {
  // >= 1000 events at one timestamp, scheduled from a mix of paths (some
  // up-front, some from a callback at that very timestamp) must fire in
  // exact schedule order.
  Engine engine;
  std::vector<int> order;
  order.reserve(1500);
  for (int i = 0; i < 1000; ++i) {
    engine.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  engine.ScheduleAt(100, [&] {
    // Runs as event #1000; the events it schedules at now() were scheduled
    // later than everything above, so they fire after all of it.
    for (int i = 1001; i <= 1500; ++i) {
      engine.ScheduleAt(engine.now(), [&order, i] { order.push_back(i); });
    }
    order.push_back(1000);
  });
  engine.Run();
  ASSERT_EQ(order.size(), 1501u);
  for (int i = 0; i <= 1500; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "at index " << i;
  }
}

TEST(Engine, PendingEventsAndQueueDepthAreExact) {
  Engine engine;
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.queue_depth(), 0u);
  const EventId a = engine.ScheduleAt(10, [] {});
  engine.ScheduleAt(20, [] {});
  const EventId c = engine.ScheduleAt(30, [] {});
  EXPECT_EQ(engine.pending_events(), 3u);
  EXPECT_EQ(engine.queue_depth(), 3u);
  // Cancel drops pending_events immediately; the heap entry lingers until
  // popped, so queue_depth (a capacity/diagnostic measure) may exceed it.
  engine.Cancel(a);
  engine.Cancel(c);
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_GE(engine.queue_depth(), engine.pending_events());
  engine.Run();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.now(), 20);
}

TEST(Engine, PendingEventsExactWithCancelledHead) {
  // A cancelled event at the queue head must not stall RunUntil or distort
  // the pending count.
  Engine engine;
  int fired = 0;
  const EventId head = engine.ScheduleAt(5, [&] { ++fired; });
  engine.ScheduleAt(50, [&] { ++fired; });
  engine.Cancel(head);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.RunUntil(10);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.now(), 10);
  engine.RunUntil(100);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, NextEventTimeSkipsCancelledEntries) {
  Engine engine;
  EXPECT_EQ(engine.NextEventTime(), Engine::kNoEvent) << "idle";
  int fired = 0;
  engine.ScheduleAt(40, [&] { ++fired; });
  const EventId head = engine.ScheduleAt(5, [&] { ++fired; });
  engine.ScheduleAt(60, [&] { ++fired; });
  engine.Cancel(head);  // not the last heap entry: it stays at the top
  EXPECT_EQ(engine.queue_depth(), 3u);
  EXPECT_EQ(engine.NextEventTime(), 40);
  EXPECT_EQ(engine.queue_depth(), 2u) << "the cancelled head is dropped";
  engine.RunUntil(40);
  EXPECT_EQ(fired, 1);
  // A same-time event is next, however early the heap's top.
  const EventId now_event = engine.ScheduleAfter(0, [&] { ++fired; });
  EXPECT_EQ(engine.NextEventTime(), 40);
  engine.Cancel(now_event);
  EXPECT_EQ(engine.NextEventTime(), 60);
  EXPECT_EQ(engine.now(), 40) << "a query runs nothing";
  engine.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.NextEventTime(), Engine::kNoEvent);
}

TEST(Engine, GenerationWraparound) {
  // Force the generation counter to the top of its 40-bit range; ids must
  // stay distinct across the wrap and cancel must not confuse them.
  Engine engine;
  engine.set_next_generation_for_test(Engine::kMaxGeneration - 1);
  int fired = 0;
  const EventId a = engine.ScheduleAt(10, [&] { ++fired; });
  const EventId b = engine.ScheduleAt(10, [&] { ++fired; });
  const EventId c = engine.ScheduleAt(10, [&] { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, kInvalidEvent);
  EXPECT_NE(b, kInvalidEvent);
  EXPECT_NE(c, kInvalidEvent);
  EXPECT_TRUE(engine.Cancel(b));
  EXPECT_FALSE(engine.Cancel(b));
  engine.Run();
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace s4d::sim
