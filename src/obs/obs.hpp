// Observability bundle: one Tracer + one MetricsRegistry per deployment.
//
// Instrumented components (sim::NetworkSim, sim::CpuServer,
// bft::PbftReplica, core::Controller, core::SwitchRuntime) take a nullable
// `Observability*`; a null pointer or a disabled sub-system makes every
// record call a no-op, so tests and cost-only sweeps pay nothing.
//
// Component thread-row convention (one simulated node = one trace
// process; rows within it):
//   kTidMain   protocol logic (controller app / switch pipeline)
//   kTidBft    PBFT ordering
//   kTidCrypto sign / verify / aggregate work
//   kTidNet    network send/receive markers
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cicero::obs {

inline constexpr TraceTid kTidMain = 0;
inline constexpr TraceTid kTidBft = 1;
inline constexpr TraceTid kTidCrypto = 2;
inline constexpr TraceTid kTidNet = 3;

struct Observability {
  explicit Observability(bool metrics_enabled = true, bool trace_enabled = false)
      : metrics(metrics_enabled) {
    trace.set_enabled(trace_enabled);
    critpath.set_enabled(metrics_enabled);
  }

  Tracer trace;
  MetricsRegistry metrics;
  CritPath critpath;
};

/// One per-node fact counted once: the node's own tally answers its stats
/// accessor, and the same increment feeds the deployment-wide registry
/// cell of that name (shared by every node of a kind).
class NodeCounter {
 public:
  explicit NodeCounter(Counter shared) : shared_(shared) {}
  void inc(std::uint64_t delta = 1) {
    own_ += delta;
    shared_.inc(delta);
  }
  std::uint64_t value() const { return own_; }

 private:
  std::uint64_t own_ = 0;
  Counter shared_;
};

/// The one per-node recorder of the update lifecycle (controllers,
/// switches, PBFT replicas): each call records one protocol fact, its
/// critical-path milestone and its trace events together.  Null-safe.
///
/// Leader rule, applied here only: an event's or update's milestones,
/// lifecycle track ("e:<origin>:<seq>", "u:<domain>:<id>") and causal
/// arrows ("u:<id>", "d:<parent>:<id>") are recorded by one node per
/// control plane, its aggregator (lowest live id), so each exists once
/// deployment-wide.  Switches and replicas keep the default leader role
/// (exactly one switch applies a given update).  Phase bytes and the
/// retry, abandonment and view-change instants are recorded by every node.
class NodeHooks {
 public:
  NodeHooks(Observability* obs, TracePid node, std::uint32_t domain, Tracer::Clock now)
      : obs_(obs), node_(node), domain_(domain), now_(std::move(now)) {}

  void set_leader(bool leader) { leader_ = leader; }

  /// Registry handles; null (no-op) without an obs sink.
  Counter counter(const std::string& name) const;
  Histogram latency_histogram(const std::string& name) const;

  void event_submitted(std::uint32_t origin, std::uint64_t seq);
  void event_ordered(std::uint32_t origin, std::uint64_t seq);
  /// Opens the update's lifecycle track (closed by acked or abandoned).
  void update_scheduled(std::uint64_t id, std::uint32_t origin, std::uint64_t seq,
                        std::uint32_t switch_node, std::size_t deps);
  /// `parent`: the acked predecessor that released `id`; its dependency
  /// arrow closes at sign_end.
  void update_released(std::uint64_t id, std::optional<std::uint64_t> parent = std::nullopt);
  void sign_begin(std::uint64_t id);
  void sign_end(std::uint64_t id);
  /// A signed message for `id` left for the switches, counted in `phase`.
  /// A first send (any phase but retransmit) opens the flow arrow, and in
  /// the propagate phase also ends the sign phase.
  void update_sent(std::uint64_t id, CritPhase phase, std::size_t bytes);
  void update_resent(std::uint64_t id);
  /// The ack timer fired; retransmission `attempt` follows.
  void update_retry(std::uint64_t id, std::uint32_t attempt);
  void update_rx(std::uint64_t id);
  void update_peer_ready(std::uint64_t id);
  void apply_begin(std::uint64_t id);
  void update_applied(std::uint64_t id);
  /// The in-network aggregate was born here and fanned out (`bytes`).
  void update_aggregated(std::uint64_t id, std::size_t bytes);
  /// `close` ends the lifecycle track, `arrow_end` the flow arrow.
  void update_acked(std::uint64_t id, bool close, bool arrow_end);
  void update_abandoned(std::uint64_t id);
  void view_change(std::uint64_t target);
  void phase_bytes(CritPhase phase, std::size_t bytes);

 private:
  using Stamp = void (CritPath::*)(std::uint64_t, std::int64_t);
  using Arrow = void (Tracer::*)(const char*, const std::string&, const char*, TracePid,
                                 TraceTid, std::int64_t);
  bool tracing() const;
  void stamp(Stamp milestone, std::uint64_t id);
  void arrow(Arrow mark, std::uint64_t id, const char* name, TraceTid tid);
  void close_track(std::uint64_t id, bool arrow_end);

  Observability* obs_;
  TracePid node_;
  std::uint32_t domain_;
  Tracer::Clock now_;
  bool leader_ = true;
  /// Released dependent -> acked parent, while its arrow is open.
  std::map<std::uint64_t, std::uint64_t> open_dep_arrows_;
};

}  // namespace cicero::obs
