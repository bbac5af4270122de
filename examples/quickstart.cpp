// Quickstart: deploy Cicero on a server pod, push traffic through it, and
// read the metrics — the 60-second tour of the public API.
//
//   1. build a topology            (net::build_pod / build_datacenter / ...)
//   2. deploy a framework on it    (core::Deployment)
//   3. generate a workload         (workload::WorkloadGenerator)
//   4. inject + run                (deterministic discrete-event simulation)
//   5. inspect results             (flow records, CDFs, switch/controller stats)
//   6. export observability        (Perfetto trace + JSON run report)
#include <cstdio>

#include "core/deployment.hpp"
#include "obs/report.hpp"

int main() {
  using namespace cicero;

  // 1. A small Facebook-style server pod: 4 racks, 4 edge switches.
  net::FabricParams fabric;
  fabric.racks_per_pod = 4;
  fabric.hosts_per_rack = 2;
  net::Topology topo = net::build_pod(fabric);
  std::printf("topology: %zu switches, %zu hosts, %zu links\n", topo.switches().size(),
              topo.hosts().size(), topo.link_count());

  // 2. Deploy the full Cicero protocol (BFT-ordered control plane of 4,
  //    threshold-signed updates, switch-side aggregation) with REAL
  //    cryptography end to end.
  core::DeploymentParams params;
  params.framework = core::FrameworkKind::kCicero;
  params.controllers_per_domain = 4;
  params.real_crypto = true;
  params.seed = 2026;
  params.trace = true;  // record sim-time spans for the Perfetto export below
  core::Deployment dep(std::move(topo), params);
  std::printf("control plane: %zu controllers, quorum %u, group key %s...\n",
              dep.controller_ids().size(), dep.controller(0).quorum(),
              dep.group_pk(0).to_hex().substr(0, 18).c_str());

  // 3. A Hadoop-like workload of 200 flows.
  workload::WorkloadParams wl;
  wl.kind = workload::WorkloadKind::kHadoop;
  wl.flow_count = 200;
  wl.arrival_rate_per_sec = 150.0;
  wl.seed = 7;
  const auto flows = workload::WorkloadGenerator(dep.topology(), wl).generate();

  // 4. Inject and run the simulation to quiescence.
  dep.inject(flows);
  dep.run(sim::seconds(30));

  // 5. Results.
  std::size_t completed = 0, reused = 0;
  for (const auto& r : dep.flow_records()) {
    completed += r.completed;
    reused += r.rule_reused;
  }
  const auto setup = dep.setup_cdf();
  const auto completion = dep.completion_cdf();
  std::printf("\nflows completed:   %zu / %zu (%zu reused installed rules)\n", completed,
              flows.size(), reused);
  std::printf("flow setup:        mean %.2f ms, p99 %.2f ms\n", setup.mean(), setup.p99());
  std::printf("flow completion:   mean %.2f ms, p99 %.2f ms\n", completion.mean(),
              completion.p99());

  std::uint64_t events = 0, updates = 0;
  for (const auto sw : dep.topology().switches()) {
    events += dep.switch_at(sw).events_emitted();
    updates += dep.switch_at(sw).updates_applied();
  }
  std::printf("data plane:        %llu events emitted, %llu quorum-verified updates applied\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(updates));
  std::printf("network:           %llu control messages, %llu bytes\n",
              static_cast<unsigned long long>(dep.network().messages_sent()),
              static_cast<unsigned long long>(dep.network().bytes_sent()));
  std::printf("\nevery update above carried a (t=%u, n=%zu) threshold signature;\n",
              dep.controller(0).quorum(), dep.controller_ids().size());
  std::printf("re-run with params.framework = kCentralized to feel the difference.\n");

  // 6. Export the run's observability: a Chrome trace-event file (open in
  //    https://ui.perfetto.dev — every span sits at its SIMULATED time,
  //    one process per node) and a machine-readable run report.
  if (dep.obs().trace.write_chrome_trace("quickstart.trace.json")) {
    std::printf("\ntrace:  quickstart.trace.json (%zu events; open in Perfetto)\n",
                dep.obs().trace.event_count());
  }
  obs::RunReport report("quickstart");
  report.set_meta("framework", "cicero");
  report.set_meta("flows", static_cast<std::int64_t>(flows.size()));
  report.set_meta("seed", static_cast<std::int64_t>(params.seed));
  report.add_metrics(dep.obs().metrics);
  report.add_crypto_ops(obs::crypto_ops());
  report.add_cdf("setup_ms", setup);
  report.add_cdf("completion_ms", completion);
  if (report.write("quickstart.report.json")) {
    std::printf("report: quickstart.report.json (schema %s)\n", obs::kRunReportSchema);
  }
  return 0;
}
