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

/// The observability hooks every protocol node (controller, switch)
/// shares; nodes inherit them privately.  All are null-safe.
class NodeHooks {
 public:
  NodeHooks(Observability* obs, std::uint32_t domain) : obs_(obs), domain_(domain) {}

  bool tracing() const { return obs_ != nullptr && obs_->trace.enabled(); }
  /// Critical-path profiler sink, or nullptr when obs is absent/disabled.
  CritPath* critpath() const {
    return obs_ != nullptr && obs_->critpath.enabled() ? &obs_->critpath : nullptr;
  }
  /// An update's async lifecycle track, named within the node's domain.
  std::string update_track_id(std::uint64_t id) const {
    return "u:" + std::to_string(domain_) + ":" + std::to_string(id);
  }
  /// Deployment-wide flow-arrow track of one update ("u:<id>"; update ids
  /// are unique across domains, see core::update_id_base).
  static std::string flow_track_id(std::uint64_t id) { return "u:" + std::to_string(id); }

 private:
  Observability* obs_;
  std::uint32_t domain_;
};

}  // namespace cicero::obs
