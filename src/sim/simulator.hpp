// Discrete-event simulation core.
//
// A single-threaded, deterministic event loop: callbacks are executed in
// (time, insertion-sequence) order, so two events scheduled for the same
// instant run in the order they were scheduled — this tie-break is what
// makes whole-protocol runs bit-reproducible.
//
// The queue is an indexed 4-ary heap over 24-byte plain entries, with the
// callbacks parked in a slot arena off to the side:
//   * each callback is a `sim::Callback` (sim/callback.hpp), a move-only
//     closure that keeps captures of up to 56 bytes inline, so scheduling
//     a typical event (a message delivery, a timer, a CPU completion)
//     allocates nothing;
//   * sift operations move only (time, seq, slot) triples, never a
//     closure, so pushes/pops stay inside a few cache lines even
//     with hundreds of thousands of pending events (the thousand-switch
//     topologies of bench_scale);
//   * `cancel()` is O(1): it frees the callback and bumps the slot's
//     generation, turning the heap entry into a tombstone that pop
//     discards.  Ack/retransmit timers — armed per update, cancelled on
//     the ack that almost always arrives first — stop costing a deferred
//     no-op wakeup each.
//   Tombstones are compacted in bulk (one O(n) heapify) when they
//   outnumber live events, so a cancel-heavy run's queue stays dense.
//
// The simulator replaces the paper's DeterLab testbed (DESIGN.md §1): all
// latency, bandwidth and CPU effects are modeled as scheduled events.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace cicero::sim {

class Simulator {
 public:
  using Callback = sim::Callback;

  /// Handle to a cancellable scheduled event.  Value type; a default
  /// constructed id is invalid and cancel() on it is a no-op.
  struct TimerId {
    std::uint32_t slot = UINT32_MAX;
    std::uint32_t gen = 0;
    bool valid() const { return slot != UINT32_MAX; }
  };

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  void at(SimTime t, Callback fn) { schedule(t, std::move(fn)); }

  /// Schedules `fn` `delay` nanoseconds from now (delay >= 0).
  void after(SimTime delay, Callback fn) { schedule(now_ + delay, std::move(fn)); }

  /// As `at`/`after`, but the returned id can cancel the event later.
  TimerId at_cancellable(SimTime t, Callback fn) { return schedule(t, std::move(fn)); }
  TimerId after_cancellable(SimTime delay, Callback fn) {
    return schedule(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event in O(1).  Returns true if the event was still
  /// pending (it will never fire); false if it already fired, was already
  /// cancelled, or the id is invalid.  The callback is destroyed
  /// immediately, so captured resources are released at cancel time.
  bool cancel(TimerId id);

  /// Runs the next event; returns false if the queue is empty.
  bool step();

  /// Runs events until the queue empties or the next event is after `t`;
  /// leaves now() at min(t, completion time).
  void run_until(SimTime t);

  /// Runs until the event queue is empty.
  void run();

  /// Timestamp of the next pending event, or kNever when the queue is
  /// empty.  Used by the parallel engine to compute the global window
  /// floor; prunes tombstones off the top as a side effect.
  SimTime next_time();

  /// Runs every event with time strictly before `end` (the parallel
  /// engine's half-open window [floor, floor + lookahead)); unlike
  /// run_until, now() is left at the last executed event, NOT advanced to
  /// `end` — cross-shard arrivals may still land inside the window.
  void run_window(SimTime end);

  bool empty() const { return live_ == 0; }
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t events_cancelled() const { return events_cancelled_; }
  /// Pending (armed, uncancelled) events.
  std::size_t pending_events() const { return live_; }

 private:
  /// Heap entries are tombstoned by a generation mismatch with their slot.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  TimerId schedule(SimTime t, Callback fn);
  bool entry_live(const Entry& e) const { return gens_[e.slot] == e.gen; }
  void release_slot(std::uint32_t slot);
  /// Drops tombstones off the heap top; afterwards heap_ is empty or its
  /// root is live.
  void prune_top();
  void maybe_compact();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::size_t live_ = 0;  ///< armed entries in heap_ (heap_.size() - tombstones)
  std::vector<Entry> heap_;
  /// Slot arena, two parallel arrays: the pending callbacks, and the
  /// generations that liveness checks read without touching a callback.
  std::vector<Callback> fns_;
  std::vector<std::uint32_t> gens_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace cicero::sim
