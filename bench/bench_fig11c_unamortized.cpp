// Fig. 11c — Hadoop flow completion CDF with unamortized setup/teardown:
// every flow installs its route before starting and removes it on
// completion, so no rule is ever reused.
//
// Paper anchors: flows last ≈33.6 ms on average; Cicero adds 16 % overhead
// with switch aggregation and 29 % with controller aggregation over the
// centralized baseline.
#include "bench_common.hpp"

int main() {
  using namespace cicero;
  using namespace cicero::bench;

  print_header("Fig. 11c", "Hadoop completion CDF, unamortized setup/teardown");
  // Arrival rate kept below the aggregator's saturation point: controller
  // aggregation funnels every update through ONE controller's CPU, which
  // saturates near ~150 events/s in this configuration — a concrete
  // instance of the paper's §3.3 aggregation trade-off (and the reason
  // the paper's aggregator latency grows with load).

  obs::RunReport report("fig11c_unamortized");
  report.set_meta("workload", "hadoop");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));
  report.set_meta("teardown_after_flow", std::int64_t{1});
  obs::crypto_ops().reset();

  std::printf("%-16s %10s %12s %12s\n", "framework", "flows", "compl_ms", "overhead%");
  double centralized_mean = 0.0;
  std::vector<std::pair<std::string, util::CdfCollector>> series;
  std::vector<double> means;
  for (const auto fw :
       {core::FrameworkKind::kCentralized, core::FrameworkKind::kCrashTolerant,
        core::FrameworkKind::kCicero, core::FrameworkKind::kCiceroAgg}) {
    auto dep = make_dep(fw, net::build_pod(bench_pod()), 4, /*teardown=*/true);
    run_workload(*dep, workload::WorkloadKind::kHadoop, kBenchFlows, 7, 80.0);
    const auto completion = dep->completion_cdf();
    if (fw == core::FrameworkKind::kCentralized) centralized_mean = completion.mean();
    const double overhead =
        centralized_mean > 0 ? (completion.mean() / centralized_mean - 1.0) * 100.0 : 0.0;
    std::printf("%-16s %10zu %12.2f %11.1f%%\n", core::framework_name(fw),
                completion.count(), completion.mean(), overhead);
    series.emplace_back(core::framework_name(fw), completion);
    means.push_back(completion.mean());
    report_run(report, *dep, core::framework_name(fw));
  }
  std::printf("\n");
  for (const auto& [name, cdf] : series) print_cdf_series(name, cdf);

  std::printf("\n# paper-vs-measured:\n");
  std::printf("#   centralized mean flow time: paper ~33.6 ms, measured %.1f ms\n", means[0]);
  std::printf("#   Cicero overhead:     paper ~16%%, measured %.1f%%\n",
              (means[2] / means[0] - 1.0) * 100.0);
  std::printf("#   Cicero Agg overhead: paper ~29%%, measured %.1f%%\n",
              (means[3] / means[0] - 1.0) * 100.0);
  write_report(report, "fig11c");
  return 0;
}
