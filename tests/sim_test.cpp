#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace switchboard::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(milliseconds(3), 3000);
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(from_ms(1.5), 1500);
  EXPECT_DOUBLE_EQ(to_ms(2500), 2.5);
  EXPECT_DOUBLE_EQ(to_seconds(500'000), 0.5);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(Simulator, SameTimestampFiresInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(milliseconds(1), [&] {
    ++fired;
    sim.schedule(milliseconds(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), milliseconds(2));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule(milliseconds(5), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator sim;
  const EventHandle h = sim.schedule(milliseconds(5), [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  sim.run();
}

TEST(Simulator, CancelInvalidHandleFails) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
  EXPECT_FALSE(sim.cancel(EventHandle{999}));
}

// Cancelling an event that already fired is a no-op: it returns false and
// leaves no lazy-deletion record behind to skew pending_events().
TEST(Simulator, CancelAfterFiringFailsAndLeavesNoRecord) {
  Simulator sim;
  const EventHandle first = sim.schedule(milliseconds(5), [] {});
  const EventHandle second = sim.schedule(milliseconds(10), [] {});
  sim.run_until(milliseconds(6));
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.cancel(second));
  EXPECT_FALSE(sim.cancel(second));
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.check_invariants();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule(milliseconds(30), [&] { order.push_back(2); });
  sim.run_until(milliseconds(20));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), milliseconds(20));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilSkipsCancelledBeyondDeadline) {
  Simulator sim;
  bool late_fired = false;
  const EventHandle h = sim.schedule(milliseconds(5), [] {});
  sim.schedule(milliseconds(50), [&] { late_fired = true; });
  sim.cancel(h);
  sim.run_until(milliseconds(10));
  EXPECT_FALSE(late_fired);   // the 50 ms event must not run early
  EXPECT_EQ(sim.now(), milliseconds(10));
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule(milliseconds(1), [&] { ++fired; });
  sim.schedule(milliseconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PendingEventsCountsUncancelled) {
  Simulator sim;
  const EventHandle a = sim.schedule(milliseconds(1), [] {});
  sim.schedule(milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.schedule(milliseconds(7), [&] {
    sim.schedule(0, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, milliseconds(7));
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule((i * 7919) % 1000, [&] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

/// Counts its copies; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* counter) : copies{counter} {}
  CopyCounter(const CopyCounter& other) : copies{other.copies} { ++*copies; }
  CopyCounter(CopyCounter&& other) noexcept = default;
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&& other) noexcept = default;
  int* copies;
};

TEST(Simulator, StepMovesTheCallbackInsteadOfCopyingIt) {
  // A callback's captures (bus messages, reports, nested callbacks) are
  // handed from schedule() to the firing step without one copy.
  Simulator sim;
  int copies = 0;
  int fired = 0;
  for (int i = 0; i < 8; ++i) {
    sim.schedule(milliseconds(8 - i),
                 [probe = CopyCounter{&copies}, &fired] {
                   (void)probe;
                   ++fired;
                 });
  }
  while (sim.step()) {
  }
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace switchboard::sim
