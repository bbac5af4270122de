// Plumbing shared by the deployment benches: `bench_figures` (every
// paper figure and ablation, one per name) and `bench_scale`.
//
// Each bench prints its experiment id and setup as a header, then plain
// text rows, then writes a machine-readable run report
// (BENCH_<id>.report.json) and prints its path on the last line.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/deployment.hpp"
#include "obs/report.hpp"

namespace cicero::bench {

inline void print_header(const std::string& experiment, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

/// Builds a deployment in cost-model mode (real crypto validated by the
/// test suite; sweeps use calibrated simulated costs for tractable runs).
/// `threads > 1` enables the sharded parallel engine when the topology
/// has enough domains; otherwise the sequential fast path runs.
inline std::unique_ptr<core::Deployment> make_dep(core::FrameworkKind fw, net::Topology topo,
                                                  std::size_t controllers = 4,
                                                  bool teardown = false,
                                                  std::uint32_t threads = 1) {
  core::DeploymentParams dp;
  dp.framework = fw;
  dp.controllers_per_domain = controllers;
  dp.real_crypto = false;
  dp.teardown_after_flow = teardown;
  dp.seed = 42;
  dp.threads = threads;
  return std::make_unique<core::Deployment>(std::move(topo), dp);
}

/// Monotonic wall clock in seconds, for the `wall_sec` report fields.
inline double wall_clock_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Writes the report as BENCH_<id>.report.json in the working directory
/// (or $CICERO_REPORT_DIR when set) and prints the path, so scripts can
/// pick the file up from the bench's stdout.
inline void write_report(const obs::RunReport& report, const std::string& id) {
  std::string dir = ".";
  if (const char* env = std::getenv("CICERO_REPORT_DIR")) dir = env;
  const std::string path = dir + "/BENCH_" + id + ".report.json";
  if (report.write(path)) {
    std::printf("\n# report: %s\n", path.c_str());
  } else {
    std::printf("\n# report: FAILED to write %s\n", path.c_str());
  }
}

}  // namespace cicero::bench
