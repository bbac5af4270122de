// Shared builders for the integration suites: small deployments that run
// in well under a second each while exercising the full protocol stack
// with real cryptography.
#pragma once

#include <memory>

#include "core/deployment.hpp"

namespace cicero::testing {

inline net::FabricParams small_pod() {
  net::FabricParams p;
  p.racks_per_pod = 3;
  p.hosts_per_rack = 2;
  return p;
}

inline std::unique_ptr<core::Deployment> make_deployment(
    core::FrameworkKind framework, net::Topology topo, bool real_crypto = true,
    bool teardown = false, std::size_t controllers = 4) {
  core::DeploymentParams dp;
  dp.framework = framework;
  dp.controllers_per_domain = controllers;
  dp.real_crypto = real_crypto;
  dp.teardown_after_flow = teardown;
  dp.seed = 12345;
  return std::make_unique<core::Deployment>(std::move(topo), dp);
}

inline std::vector<workload::Flow> small_workload(const net::Topology& topo,
                                                  std::size_t flows = 40,
                                                  workload::WorkloadKind kind =
                                                      workload::WorkloadKind::kHadoop) {
  workload::WorkloadParams wp;
  wp.kind = kind;
  wp.flow_count = flows;
  wp.arrival_rate_per_sec = 150.0;
  wp.seed = 77;
  return workload::WorkloadGenerator(topo, wp).generate();
}

inline std::size_t completed_count(const core::Deployment& d) {
  std::size_t done = 0;
  for (const auto& r : d.flow_records()) done += r.completed;
  return done;
}

/// Updates given up after retry exhaustion, summed over every controller.
inline std::uint64_t abandoned_count(core::Deployment& d) {
  std::uint64_t abandoned = 0;
  for (const auto id : d.controller_ids()) abandoned += d.controller(id).updates_abandoned();
  return abandoned;
}

}  // namespace cicero::testing
