// Unit tests: discrete-event simulator ordering, cancellation, periodics.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "sim/simulator.hpp"

namespace swish::sim {
namespace {

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

TEST(Simulator, FifoAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(5, [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator sim;
  TimeNs fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto h = sim.schedule_at(10, [&] { fired = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(h.active());
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  auto h = sim.schedule_at(10, [] {});
  h.cancel();
  h.cancel();
  sim.run();
  SUCCEED();
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(40);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilStopsAtDeadlineAfterCancelledHead) {
  // A cancelled event at or before the deadline must not let a later live
  // event run in its place.
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; }).cancel();
  sim.schedule_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(30);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, PeriodicFiresAtPeriodUntilCancelled) {
  Simulator sim;
  std::vector<TimeNs> fires;
  auto h = sim.schedule_periodic(10, [&] { fires.push_back(sim.now()); });
  sim.run_until(35);
  EXPECT_EQ(fires, (std::vector<TimeNs>{10, 20, 30}));
  h.cancel();
  sim.run_until(100);
  EXPECT_EQ(fires.size(), 3u);
}

TEST(Simulator, PeriodicRejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_periodic(0, [] {}), std::invalid_argument);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i + 1, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, PostAtRunsFireAndForgetEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.post_at(20, [&] { order.push_back(2); });
  sim.post_at(10, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Simulator, PostAfterUsesNow) {
  Simulator sim;
  TimeNs fired_at = -1;
  sim.post_at(100, [&] {
    sim.post_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, PostInPastThrows) {
  Simulator sim;
  sim.post_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.post_at(5, [] {}), std::invalid_argument);
}

TEST(Simulator, PostAndScheduleInterleaveFifo) {
  // post_* and schedule_* share the same (time, seq) total order: events at
  // an equal timestamp fire in submission order regardless of which API
  // enqueued them.
  Simulator sim;
  std::vector<int> order;
  sim.post_at(5, [&] { order.push_back(0); });
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.post_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, MoveOnlyCallablesAreAccepted) {
  // EventFn is move-only type erasure: a callable owning a unique_ptr (which
  // std::function cannot hold) must work on both the post_* and schedule_*
  // paths, including the heap fallback for large captures.
  Simulator sim;
  int total = 0;
  auto small = std::make_unique<int>(7);
  sim.post_at(1, [&total, v = std::move(small)] { total += *v; });
  auto big = std::make_unique<int>(35);
  std::array<std::byte, 128> pad{};  // force the heap path (> inline buffer)
  sim.schedule_at(2, [&total, v = std::move(big), pad] { total += *v + int(pad.size()) - 128; });
  sim.run();
  EXPECT_EQ(total, 42);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4);
}

}  // namespace
}  // namespace swish::sim
