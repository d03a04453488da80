// Tests for the discrete-event engine: ordering, determinism,
// cancellation, slot reuse, horizons and periodic processes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace sphinx::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, "c", [&] { order.push_back(3); });
  e.schedule_at(1.0, "a", [&] { order.push_back(1); });
  e.schedule_at(2.0, "b", [&] { order.push_back(2); });
  e.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5.0, "tie", [&order, i] { order.push_back(i); });
  }
  e.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ScheduleInUsesCurrentTime) {
  Engine e;
  double fired_at = -1;
  e.schedule_at(10.0, "outer", [&] {
    e.schedule_in(5.0, "inner", [&] { fired_at = e.now(); });
  });
  e.run_until();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Engine, PastSchedulingClampsToNow) {
  Engine e;
  double fired_at = -1;
  e.schedule_at(10.0, "outer", [&] {
    e.schedule_at(3.0, "late", [&] { fired_at = e.now(); });
  });
  e.run_until();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Engine, NegativeDelayClampsToZero) {
  Engine e;
  bool fired = false;
  e.schedule_in(-5.0, "neg", [&] { fired = true; });
  e.run_until();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  const EventHandle h = e.schedule_at(1.0, "x", [&] { fired = true; });
  EXPECT_TRUE(e.pending(h));
  e.cancel(h);
  EXPECT_FALSE(e.pending(h));
  e.run_until();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine e;
  const EventHandle h = e.schedule_at(1.0, "x", [] {});
  e.run_until();
  EXPECT_FALSE(e.pending(h));
  EXPECT_NO_THROW(e.cancel(h));
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, CancelInvalidHandleIsNoop) {
  Engine e;
  EXPECT_NO_THROW(e.cancel(EventHandle{}));
}

TEST(Engine, RunUntilHorizonStopsEarly) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, "a", [&] { ++fired; });
  e.schedule_at(100.0, "b", [&] { ++fired; });
  const std::size_t n = e.run_until(10.0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);  // clock advanced to the horizon
  // Remaining event still fires later.
  e.run_until(200.0);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilBehindTheClockNeverRewinds) {
  Engine e;
  std::vector<double> fired;
  e.schedule_at(10.0, "a", [&] { fired.push_back(e.now()); });
  e.schedule_at(20.0, "b", [&] { fired.push_back(e.now()); });
  e.run_until(15.0);
  EXPECT_DOUBLE_EQ(e.now(), 15.0);
  EXPECT_EQ(e.run_until(5.0), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 15.0);  // a horizon behind the clock
  e.schedule_in(1.0, "c", [&] { fired.push_back(e.now()); });
  e.run_until();
  EXPECT_EQ(fired, (std::vector<double>{10.0, 16.0, 20.0}));
}

TEST(Engine, EventsPendingExcludesCancelledEvents) {
  Engine e;
  e.schedule_at(1.0, "a", [] {});
  const EventHandle b = e.schedule_at(2.0, "b", [] {});
  const EventHandle c = e.schedule_at(30.0, "c", [] {});
  e.schedule_at(40.0, "d", [] {});
  EXPECT_EQ(e.events_pending(), 4u);
  e.cancel(b);
  EXPECT_EQ(e.events_pending(), 3u);
  e.cancel(b);  // already cancelled
  EXPECT_EQ(e.events_pending(), 3u);
  e.cancel(c);
  EXPECT_EQ(e.events_pending(), 2u);
  // c stays queued past the horizon, still excluded.
  EXPECT_EQ(e.run_until(10.0), 1u);
  EXPECT_EQ(e.events_pending(), 1u);
  EXPECT_EQ(e.run_until(), 1u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, StaleHandleNeverTouchesTheEventReusingItsSlot) {
  Engine e;
  const EventHandle a = e.schedule_at(1.0, "a", [] {});
  e.run_until();
  bool b_fired = false;
  // The only free slot is a's, so b takes it.
  const EventHandle b = e.schedule_at(2.0, "b", [&] { b_fired = true; });
  EXPECT_NE(a, b);
  e.cancel(a);
  EXPECT_FALSE(e.pending(a));
  EXPECT_TRUE(e.pending(b));
  EXPECT_EQ(e.events_pending(), 1u);
  e.run_until();
  EXPECT_TRUE(b_fired);
}

TEST(Engine, CancelOwnHandleDuringDispatchIsNoop) {
  Engine e;
  EventHandle self;
  EventHandle next;
  int fired = 0;
  self = e.schedule_at(1.0, "self", [&] {
    ++fired;
    EXPECT_FALSE(e.pending(self));
    e.cancel(self);
    // Reuses the slot self just released; the stale handle must miss it.
    next = e.schedule_in(1.0, "next", [&] { ++fired; });
    e.cancel(self);
    EXPECT_TRUE(e.pending(next));
  });
  e.run_until();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, CallbackCancelsSiblingAtSameTimestamp) {
  Engine e;
  bool sibling_fired = false;
  EventHandle sibling;
  e.schedule_at(5.0, "first", [&] { e.cancel(sibling); });
  sibling = e.schedule_at(5.0, "sibling", [&] { sibling_fired = true; });
  EXPECT_EQ(e.run_until(), 1u);
  EXPECT_FALSE(sibling_fired);
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_NO_THROW(e.check_invariants());
}

TEST(Engine, CancelReleasesCapturedStateAtOnce) {
  Engine e;
  auto token = std::make_shared<int>(0);
  const EventHandle h = e.schedule_at(1.0, "x", [token] {});
  EXPECT_EQ(token.use_count(), 2);
  e.cancel(h);
  EXPECT_EQ(token.use_count(), 1);
}

/// A callable that counts its copies; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  void operator()() const {}
  int* copies;
};

TEST(Engine, DispatchNeverCopiesTheCallback) {
  Engine e;
  int copies = 0;
  for (int i = 64; i > 0; --i) {
    e.schedule_at(static_cast<double>(i), "x", CopyCounter(&copies));
  }
  EXPECT_EQ(e.run_until(), 64u);
  EXPECT_EQ(copies, 0);
}

TEST(Engine, StopRequestHaltsRun) {
  Engine e;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    e.schedule_at(i, "tick", [&] {
      ++fired;
      if (fired == 3) e.stop();
    });
  }
  e.run_until();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(1.0, "x", [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, EventsFiredCounter) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, "x", [] {});
  e.run_until();
  EXPECT_EQ(e.events_fired(), 5u);
}

TEST(Engine, CurrentLabelVisibleDuringDispatch) {
  Engine e;
  std::string seen;
  e.schedule_at(1.0, "my-event", [&] { seen = e.current_label(); });
  e.run_until();
  EXPECT_EQ(seen, "my-event");
  EXPECT_TRUE(e.current_label().empty());
}

TEST(Engine, NullCallbackRejected) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1.0, "bad", nullptr), AssertionError);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.schedule_in(1.0, "chain", chain);
  };
  e.schedule_in(1.0, "chain", chain);
  e.run_until();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(e.now(), 100.0);
}

TEST(PeriodicProcess, FiresAtPeriod) {
  Engine e;
  int count = 0;
  PeriodicProcess p(e, "tick", 10.0, [&] { ++count; });
  p.start();
  e.run_until(35.0);
  EXPECT_EQ(count, 4);  // t=0, 10, 20, 30
}

TEST(PeriodicProcess, InitialJitterOffsetsFirstFiring) {
  Engine e;
  std::vector<double> times;
  PeriodicProcess p(e, "tick", 10.0, [&] { times.push_back(e.now()); }, 3.0);
  p.start();
  e.run_until(25.0);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 3.0);
  EXPECT_DOUBLE_EQ(times[1], 13.0);
}

TEST(PeriodicProcess, StopHaltsFiring) {
  Engine e;
  int count = 0;
  PeriodicProcess p(e, "tick", 1.0, [&] { ++count; });
  p.start();
  e.run_until(5.5);
  p.stop();
  e.run_until(100.0);
  EXPECT_EQ(count, 6);
  EXPECT_FALSE(p.running());
}

TEST(PeriodicProcess, BodyMayStopItself) {
  Engine e;
  int count = 0;
  PeriodicProcess p(e, "tick", 1.0, [&] {
    if (++count == 3) p.stop();
  });
  p.start();
  e.run_until();
  EXPECT_EQ(count, 3);
}

TEST(PeriodicProcess, DestructorCancelsPending) {
  Engine e;
  int count = 0;
  {
    PeriodicProcess p(e, "tick", 1.0, [&] { ++count; });
    p.start();
    e.run_until(2.5);
  }
  e.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicProcess, StartIsIdempotent) {
  Engine e;
  int count = 0;
  PeriodicProcess p(e, "tick", 10.0, [&] { ++count; });
  p.start();
  p.start();
  e.run_until(5.0);
  EXPECT_EQ(count, 1);
}

TEST(PeriodicProcess, InvalidConstructionRejected) {
  Engine e;
  EXPECT_THROW(PeriodicProcess(e, "x", 0.0, [] {}), AssertionError);
  EXPECT_THROW(PeriodicProcess(e, "x", 1.0, nullptr), AssertionError);
}

}  // namespace
}  // namespace sphinx::sim
