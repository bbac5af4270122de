// Simulation-time tracing with a Chrome trace-event JSON exporter.
//
// Spans and instant events are stamped with the *simulated* clock (an
// injectable now() hook, wired to Simulator::now() by core::Deployment),
// so a trace opened in Perfetto / chrome://tracing shows exactly where
// simulated time goes: one "process" per simulated node (switch or
// controller), one "thread" per component on that node.
//
// Two span flavours:
//   * complete ("X") events — a closed [start, start+dur] interval on one
//     node/component row; emitted at completion time with an explicit
//     start, which suits event-driven code where begin and end happen in
//     different callbacks.
//   * async ("b"/"e") events — keyed by (category, id-string); used for
//     the per-update lifecycle track (submit -> order -> sign -> apply ->
//     ack) that crosses nodes.  Perfetto nests same-id begin/end pairs by
//     time, which renders the lifecycle as a span tree.
//
// Causal flow events ("s"/"t"/"f") draw arrows between spans: the
// critical-path profiler uses them to link a signed update leaving its
// controller to the switch-side receive/apply and back to the ack, and
// to mark dependency-tracker release edges, so Perfetto renders the
// causal chain an update actually waited on.
//
// The tracer buffers events in memory and serializes on demand.  A
// large run would otherwise grow the buffer without bound, so `push`
// enforces an event cap (default one million events, ~100s of MB when
// serialized): past it events are counted in `dropped_events()` instead
// of retained.  When disabled every record call is a cheap early-out.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cicero::obs {

using TracePid = std::uint32_t;  ///< simulated node id
using TraceTid = std::uint32_t;  ///< component row within a node

/// Numeric key/value pairs attached to an event ("args" in the JSON).
using TraceArgs = std::vector<std::pair<const char*, std::int64_t>>;

class Tracer {
 public:
  using Clock = std::function<std::int64_t()>;  ///< simulated ns

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_clock(Clock clock) { clock_ = std::move(clock); }
  std::int64_t now() const { return clock_ ? clock_() : 0; }

  // --- metadata ---
  void set_process_name(TracePid pid, std::string name);
  void set_thread_name(TracePid pid, TraceTid tid, std::string name);

  // --- recording (no-ops while disabled) ---
  /// Closed span [start_ns, start_ns + dur_ns] on a node/component row.
  void complete(TracePid pid, TraceTid tid, const char* name, std::int64_t start_ns,
                std::int64_t dur_ns, TraceArgs args = {});
  /// Zero-duration marker at the current sim time.
  void instant(TracePid pid, TraceTid tid, const char* name, TraceArgs args = {});
  /// Nestable async span keyed by (cat, id); `ts_ns` defaults to now().
  void async_begin(const char* cat, const std::string& id, const char* name, TracePid pid,
                   TraceTid tid, TraceArgs args = {}, std::int64_t ts_ns = -1);
  void async_end(const char* cat, const std::string& id, const char* name, TracePid pid,
                 TraceTid tid, std::int64_t ts_ns = -1);
  /// Causal flow arrow keyed by (cat, id): start at the emitting span,
  /// optional steps, finish binds to the enclosing slice end ("bp":"e").
  void flow_start(const char* cat, const std::string& id, const char* name, TracePid pid,
                  TraceTid tid, std::int64_t ts_ns = -1);
  void flow_step(const char* cat, const std::string& id, const char* name, TracePid pid,
                 TraceTid tid, std::int64_t ts_ns = -1);
  void flow_end(const char* cat, const std::string& id, const char* name, TracePid pid,
                TraceTid tid, std::int64_t ts_ns = -1);

  std::size_t event_count() const { return events_.size(); }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Retention bound on the in-memory buffer; 0 means unlimited.  Events
  /// past the cap are dropped (and counted) rather than buffered.
  void set_event_cap(std::size_t cap) { event_cap_ = cap; }
  std::size_t event_cap() const { return event_cap_; }
  std::uint64_t dropped_events() const { return dropped_; }

  /// Chrome trace-event JSON ("traceEvents" object form); loadable in
  /// Perfetto and chrome://tracing.
  void write_chrome_trace(std::ostream& out) const;
  /// Convenience: writes to `path`; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    char phase = 'X';  // X, i, b, e, s, t, f, M
    TracePid pid = 0;
    TraceTid tid = 0;
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = 0;   // X only
    std::string name;
    const char* cat = nullptr;  // b/e and s/t/f only
    std::string id;             // b/e and s/t/f only; M: metadata string value
    TraceArgs args;
  };

  static constexpr std::size_t kDefaultEventCap = 1u << 20;

  void push(Event e);
  /// Async ("b"/"e") and flow ("s"/"t"/"f") events, keyed by (cat, id).
  void keyed(char phase, const char* cat, const std::string& id, const char* name, TracePid pid,
             TraceTid tid, std::int64_t ts_ns, TraceArgs args = {});

  bool enabled_ = false;
  Clock clock_;
  std::vector<Event> events_;
  std::size_t event_cap_ = kDefaultEventCap;
  std::uint64_t dropped_ = 0;
};

}  // namespace cicero::obs
