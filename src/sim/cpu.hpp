// Per-node CPU modeling.
//
// Every simulated node (switch or controller) owns a `CpuServer`: a
// single-server FIFO queue of work items.  Protocol code charges simulated
// CPU cost for expensive operations (signature verification, aggregation,
// flow-table updates); the server serializes them, so a busy switch
// naturally delays later updates — this queueing is what produces the
// paper's Fig. 11d CPU-utilisation curves and the latency inflation of
// switch-side aggregation.
//
// Observability: call sites name the cost-model op they charge
// (`execute(cost, "update.sign", ...)`); with an attached
// obs::Observability the server records a per-op cost histogram
// (`cpu.op.<name>_ms`, whose sum is busy-time-per-op) plus queue-wait, and
// emits one trace span per work item on this node's row — so a Perfetto
// view of a node shows exactly what its CPU did and when.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/flat_hash.hpp"

namespace cicero::sim {

class CpuServer {
 public:
  explicit CpuServer(Simulator& simulator);

  /// Attaches metrics/tracing; `pid`/`tid` locate this server's trace row.
  void set_obs(obs::Observability* obs, obs::TracePid pid, obs::TraceTid tid);

  /// Enqueues `cost` nanoseconds of work; `done` fires when the work
  /// completes (after queueing behind earlier work).  cost >= 0.  `op`
  /// names the cost-model operation for metrics/tracing; it is keyed by
  /// CONTENT (hashed), so the same name used from different translation
  /// units lands in the same histogram — keying by `const char*` literal
  /// identity used to register duplicate handles per TU.  `done` is
  /// handed to the simulator as is, so a capture that fits
  /// `Callback::kInlineSize` costs no allocation.
  void execute(SimTime cost, std::string_view op, Callback done);
  void execute(SimTime cost, Callback done) {
    execute(cost, "task", std::move(done));
  }

  /// Convenience: charge cost with no completion action.
  void charge(SimTime cost, std::string_view op = "task") {
    execute(cost, op, [] {});
  }

  /// Total busy nanoseconds so far.
  SimTime busy_total() const { return busy_total_; }

  /// Time the server will next be idle (>= now).
  SimTime busy_until() const { return busy_until_; }

  /// Exact busy fraction over [from, to] (clips work intervals).
  double utilisation(SimTime from, SimTime to) const;

  /// Per-window busy fractions covering [0, horizon] with the given window
  /// width; this is the Fig. 11d series for one node.
  std::vector<double> utilisation_windows(SimTime window, SimTime horizon) const;

 private:
  obs::Histogram& op_histogram(std::string_view op);

  Simulator& sim_;
  SimTime busy_until_ = 0;
  SimTime busy_total_ = 0;
  std::vector<std::pair<SimTime, SimTime>> intervals_;  // (start, duration)

  obs::Observability* obs_ = nullptr;
  obs::TracePid pid_ = 0;
  obs::TraceTid tid_ = 0;
  obs::Counter tasks_;
  obs::Histogram queue_wait_ms_;
  /// Keyed by operation-name content (heterogeneous string_view lookup on
  /// owned std::string keys), so the hot path neither allocates on a hit
  /// nor splits histograms across identical literals in different TUs.
  util::FlatHashMap<std::string, obs::Histogram, util::StringHash> op_hist_;
};

}  // namespace cicero::sim
