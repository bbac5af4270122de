// Membership demo — growing and shrinking a live control plane (§4.3).
//
// Starts a 4-member Cicero domain, adds a fifth controller mid-traffic,
// then removes one — each change ordered through the domain's consensus
// and installed via a real share re-deal.  The headline property is
// printed after every change: the group public key (the one every switch
// verifies against) NEVER changes.
#include <cstdio>

#include "core/deployment.hpp"

using namespace cicero;

namespace {

void show_plane(core::Deployment& dep) {
  const auto ids = dep.domain_controller_ids(0);
  std::printf("  members (%zu): ", ids.size());
  for (const auto id : ids) std::printf("c%u ", id);
  std::printf("| quorum t=%u | group key %s...\n",
              dep.controller(ids.front()).quorum(),
              dep.group_pk(0).to_hex().substr(0, 18).c_str());
}

}  // namespace

int main() {
  net::FabricParams fabric;
  fabric.racks_per_pod = 3;
  fabric.hosts_per_rack = 2;
  core::DeploymentParams params;
  params.framework = core::FrameworkKind::kCicero;
  params.controllers_per_domain = 4;
  params.real_crypto = true;  // DKG + re-deals below are real crypto
  params.seed = 17;
  core::Deployment dep(net::build_pod(fabric), params);

  const auto pk0 = dep.group_pk(0);
  std::printf("initial control plane (keys from joint-Feldman DKG):\n");
  show_plane(dep);

  // Continuous traffic across all three phases.
  workload::WorkloadParams wl;
  wl.flow_count = 120;
  wl.arrival_rate_per_sec = 30.0;  // ~4 s of traffic
  wl.seed = 3;
  const auto flows = workload::WorkloadGenerator(dep.topology(), wl).generate();
  dep.inject(flows);

  std::uint32_t newcomer = 0;
  dep.simulator().at(sim::seconds(1), [&] {
    std::printf("\n[t=1s] bootstrap proposes ADD of a new controller...\n");
    newcomer = dep.add_controller(0);
  });
  dep.run(sim::seconds(2));
  std::printf("after ADD (share re-deal complete, phase bumped):\n");
  show_plane(dep);
  std::printf("  group key unchanged: %s\n", dep.group_pk(0) == pk0 ? "YES" : "NO (bug!)");

  dep.simulator().at(sim::seconds(3), [&] {
    const auto victim = dep.domain_controller_ids(0).front();
    std::printf("\n[t=3s] proposing REMOVE of controller c%u...\n", victim);
    dep.remove_controller(victim);
  });
  dep.run(sim::seconds(60));

  std::printf("after REMOVE:\n");
  show_plane(dep);
  std::printf("  group key unchanged: %s\n", dep.group_pk(0) == pk0 ? "YES" : "NO (bug!)");

  std::size_t done = 0;
  for (const auto& r : dep.flow_records()) done += r.completed;
  std::printf("\ntraffic through all three membership phases: %zu / %zu flows completed\n",
              done, flows.size());
  std::printf("(events arriving during a change were queued and drained afterwards;\n");
  std::printf(" the new member signs with a share dealt to it without any switch\n");
  std::printf(" ever learning a new public key — the paper's §4.3 guarantee.)\n");
  return 0;
}
