// Per-layer replay ladder: times each module's public entry points on one
// workload's own inputs (its topology, flow pairs, the updates the
// reverse-path scheduler derives from them, and its control-plane size),
// so a run's operation counts can be turned into estimated busy time per
// layer.
#pragma once

#include <cstddef>
#include <vector>

#include "net/topology.hpp"
#include "spans.hpp"
#include "workload/workload.hpp"

namespace perfbench {

struct ReplayInputs {
  const cicero::net::Topology* topo = nullptr;
  const std::vector<cicero::workload::Flow>* flows = nullptr;
  std::size_t controllers = 4;  ///< control-plane size n
  bool real_crypto = false;     ///< codec sizes: real signatures or placeholders
  cicero::sim::SimTime ack_timeout = 0;
  bool small = false;           ///< fewer samples (self-test)
};

/// Per-operation host costs.
struct ReplayCosts {
  double path_us = 0.0;             ///< Topology::shortest_path
  double build_us = 0.0;            ///< ReversePathScheduler::build, per intent
  double tracker_ns = 0.0;          ///< DependencyTracker add + complete, per update
  double timer_ns = 0.0;            ///< Simulator after_cancellable + cancel
  double order_us = 0.0;            ///< bare PbftReplica group, per ordered request
  double schnorr_sign_us = 0.0;
  double schnorr_verify_us = 0.0;
  double partial_sign_us = 0.0;
  double partial_verify_us = 0.0;
  double aggregate_us = 0.0;
  double threshold_verify_us = 0.0;
  double dkg_ms = 0.0;              ///< crypto::run_dkg at n
  double append_us = 0.0;           ///< AuditLog::append
  double encode_MBps = 0.0;         ///< Update/Manifest/PartialShare/AggregatedUpdate codecs
  double decode_MBps = 0.0;
};

ReplayCosts replay_ladder(const ReplayInputs& in, Spans& spans);

}  // namespace perfbench
