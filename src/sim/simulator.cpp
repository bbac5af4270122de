#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cicero::sim {

namespace {
// 4-ary: shallower than binary for the same size, and the four children
// share one or two cache lines of 24-byte entries.
constexpr std::size_t kArity = 4;
}  // namespace

Simulator::TimerId Simulator::schedule(SimTime t, Callback fn) {
  if (t < now_) throw std::invalid_argument("Simulator::at: time in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(fns_.size());
    fns_.emplace_back();
    gens_.push_back(0);
  }
  fns_[slot] = std::move(fn);
  heap_.push_back(Entry{t, next_seq_++, slot, gens_[slot]});
  sift_up(heap_.size() - 1);
  ++live_;
  return TimerId{slot, gens_[slot]};
}

bool Simulator::cancel(TimerId id) {
  if (!id.valid() || id.slot >= gens_.size() || gens_[id.slot] != id.gen) {
    return false;
  }
  release_slot(id.slot);
  --live_;
  ++events_cancelled_;
  maybe_compact();
  return true;
}

void Simulator::release_slot(std::uint32_t slot) {
  // The generation bump invalidates both the heap entry and any
  // outstanding TimerId; destroying the callback now breaks capture
  // cycles without waiting for the tombstone to surface.
  fns_[slot] = nullptr;
  ++gens_[slot];
  free_slots_.push_back(slot);
}

void Simulator::prune_top() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

void Simulator::maybe_compact() {
  // Cancel-heavy phases (every acked update kills a retransmit timer)
  // would otherwise let tombstones dominate the array; one linear filter
  // plus heapify restores density at amortized O(1) per cancel.
  if (heap_.size() < 64 || heap_.size() < live_ * 2) return;
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (entry_live(heap_[i])) heap_[out++] = heap_[i];
  }
  heap_.resize(out);
  if (out > 1) {
    for (std::size_t i = (out - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
}

bool Simulator::step() {
  prune_top();
  if (heap_.empty()) return false;
  const Entry e = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  // Moved out first: the callback may schedule events, which can
  // reallocate the arena under a callback still running in place.
  Callback fn = std::move(fns_[e.slot]);
  release_slot(e.slot);
  --live_;
  now_ = e.time;
  ++events_processed_;
  fn();
  return true;
}

void Simulator::run_until(SimTime t) {
  while (true) {
    prune_top();
    if (heap_.empty() || heap_.front().time > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

void Simulator::run() {
  while (step()) {
  }
}

SimTime Simulator::next_time() {
  prune_top();
  return heap_.empty() ? kNever : heap_.front().time;
}

void Simulator::run_window(SimTime end) {
  while (true) {
    prune_top();
    if (heap_.empty() || heap_.front().time >= end) break;
    step();
  }
}

void Simulator::sift_up(std::size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Entry e = heap_[i];
  while (true) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace cicero::sim
