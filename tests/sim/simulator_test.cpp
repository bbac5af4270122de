#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

namespace cicero::sim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.at(milliseconds(30), [&] { order.push_back(3); });
  s.at(milliseconds(10), [&] { order.push_back(1); });
  s.at(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  int fired = 0;
  s.at(milliseconds(1), [&] {
    s.after(milliseconds(1), [&] {
      ++fired;
      s.after(milliseconds(1), [&] { ++fired; });
    });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), milliseconds(3));
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator s;
  s.at(milliseconds(10), [] {});
  s.run();
  EXPECT_THROW(s.at(milliseconds(5), [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  int fired = 0;
  s.at(milliseconds(10), [&] { ++fired; });
  s.at(milliseconds(30), [&] { ++fired; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), milliseconds(20));
  s.run_until(milliseconds(40));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.at(0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, CountsEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(SimulatorCancel, CancelledCallbackNeverRuns) {
  Simulator s;
  bool fired = false;
  const Simulator::TimerId id = s.after_cancellable(10, [&] { fired = true; });
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.events_cancelled(), 1u);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(SimulatorCancel, CancelAfterFireAndDoubleCancelReturnFalse) {
  Simulator s;
  const Simulator::TimerId id = s.after_cancellable(5, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));  // already fired
  const Simulator::TimerId id2 = s.after_cancellable(5, [] {});
  EXPECT_TRUE(s.cancel(id2));
  EXPECT_FALSE(s.cancel(id2));  // already cancelled
  EXPECT_FALSE(s.cancel(Simulator::TimerId{}));  // never armed
}

TEST(SimulatorCancel, SlotReuseDoesNotConfuseStaleIds) {
  // After a cancel, the arena slot is recycled for the next timer; the
  // stale id's generation must not cancel the new tenant.
  Simulator s;
  const Simulator::TimerId old_id = s.after_cancellable(10, [] {});
  EXPECT_TRUE(s.cancel(old_id));
  bool fired = false;
  const Simulator::TimerId new_id = s.after_cancellable(20, [&] { fired = true; });
  EXPECT_EQ(new_id.slot, old_id.slot);  // recycled
  EXPECT_NE(new_id.gen, old_id.gen);
  EXPECT_FALSE(s.cancel(old_id));  // stale handle is inert
  s.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorCancel, SurvivingEventsKeepDeterministicOrder) {
  // Cancel every other same-time event: survivors must still run in
  // insertion order, exactly as if the cancelled ones were never armed.
  Simulator s;
  std::vector<int> ran;
  std::vector<Simulator::TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(s.at_cancellable(50, [&ran, i] { ran.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(s.cancel(ids[static_cast<std::size_t>(i)]));
  s.run();
  std::vector<int> expected;
  for (int i = 1; i < 100; i += 2) expected.push_back(i);
  EXPECT_EQ(ran, expected);
}

TEST(SimulatorCancel, HeavyChurnCompactsAndStaysOrdered) {
  // The retransmit pattern at scale: arm a far-out timer, cancel it
  // shortly after, thousands of times.  Exercises lazy pruning and bulk
  // compaction; live events must be unaffected.
  Simulator s;
  std::uint64_t live_fired = 0;
  SimTime last_time = 0;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = 10 + i;
    const Simulator::TimerId timer = s.at_cancellable(t + 1'000'000, [] { FAIL(); });
    s.at(t, [&, timer, t] {
      EXPECT_TRUE(s.cancel(timer));
      EXPECT_GE(t, last_time);
      last_time = t;
      ++live_fired;
    });
  }
  s.run();
  EXPECT_EQ(live_fired, 5000u);
  EXPECT_EQ(s.events_cancelled(), 5000u);
  EXPECT_EQ(s.events_processed(), 5000u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorCancel, RunUntilAdvancesPastCancelledTail) {
  // A queue holding only cancelled entries is logically empty: run_until
  // must land exactly on the horizon and empty() must agree.
  Simulator s;
  const Simulator::TimerId id = s.at_cancellable(100, [] { FAIL(); });
  EXPECT_TRUE(s.cancel(id));
  s.run_until(50);
  EXPECT_EQ(s.now(), 50);
  EXPECT_TRUE(s.empty());
}

/// Counts its own destruction; a moved-from instance does not count.
struct DestroyCounter {
  int* destroyed;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

/// A capture too large for the inline buffer.
using Ballast = std::array<std::uint64_t, 16>;

TEST(Callback, MoveOnlyCaptureRuns) {
  Simulator s;
  int seen = 0;
  auto owned = std::make_unique<int>(7);
  auto fn = [&seen, owned = std::move(owned)] { seen = *owned; };
  static_assert(Callback::fits_inline<decltype(fn)>);
  s.after(milliseconds(1), std::move(fn));
  s.run();
  EXPECT_EQ(seen, 7);
}

TEST(Callback, LargeCaptureFallsBackToHeapAndRuns) {
  Simulator s;
  std::uint64_t sum = 0;
  Ballast ballast;
  ballast.fill(3);
  auto fn = [&sum, ballast] {
    for (const std::uint64_t v : ballast) sum += v;
  };
  static_assert(!Callback::fits_inline<decltype(fn)>);
  Callback cb(std::move(fn));
  Callback moved(std::move(cb));  // moves the heap pointer, not the capture
  s.after(milliseconds(1), std::move(moved));
  s.run();
  EXPECT_EQ(sum, 48u);
}

TEST(Callback, CancelDestroysCaptureAtOnce) {
  Simulator s;
  int inline_gone = 0;
  int heap_gone = 0;
  auto small = [c = DestroyCounter(&inline_gone)] {};
  auto large = [c = DestroyCounter(&heap_gone), b = Ballast{}] { (void)b; };
  static_assert(Callback::fits_inline<decltype(small)>);
  static_assert(!Callback::fits_inline<decltype(large)>);
  const Simulator::TimerId a = s.after_cancellable(milliseconds(5), std::move(small));
  const Simulator::TimerId b = s.after_cancellable(milliseconds(5), std::move(large));
  EXPECT_EQ(inline_gone, 0);
  EXPECT_EQ(heap_gone, 0);
  EXPECT_TRUE(s.cancel(a));
  EXPECT_EQ(inline_gone, 1);
  EXPECT_TRUE(s.cancel(b));
  EXPECT_EQ(heap_gone, 1);
  s.run();
  EXPECT_EQ(inline_gone, 1);
  EXPECT_EQ(heap_gone, 1);
}

TEST(Callback, MovedFromIsEmpty) {
  int runs = 0;
  Callback small([&runs] { ++runs; });
  Callback large([&runs, b = Ballast{}] { runs += 1 + static_cast<int>(b[0]); });
  EXPECT_TRUE(small);
  EXPECT_TRUE(large);
  Callback small_to(std::move(small));
  Callback large_to;
  large_to = std::move(large);
  EXPECT_FALSE(small);  // NOLINT(bugprone-use-after-move): the point of the test
  EXPECT_FALSE(large);  // NOLINT(bugprone-use-after-move)
  small_to();
  large_to();
  EXPECT_EQ(runs, 2);
  large_to = nullptr;
  EXPECT_FALSE(large_to);
  EXPECT_FALSE(Callback());
}

}  // namespace
}  // namespace cicero::sim
