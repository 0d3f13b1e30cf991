#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace dasched {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimeEventsFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime inner_fire = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { inner_fire = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fire, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int count = 0;
  EventHandle h = sim.schedule_at(10, [&] { ++count; });
  sim.run();
  h.cancel();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilStopsAfterACancelledHead) {
  // The cancelled head at 10 is discarded; the live event at 100 lies past
  // `until` and must wait for the next run.
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; }).cancel();
  sim.schedule_at(100, [&] { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
  EXPECT_EQ(sim.events_executed(), 100);
}

TEST(Simulator, IdleReflectsQueueState) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  sim.schedule_at(5, [] {});
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace dasched
