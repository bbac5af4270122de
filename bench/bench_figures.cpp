// Every figure and table of the paper's evaluation, plus two Fig. 12a
// variants and two ablations, from one driver:
//
//   bench_figures <name>      e.g. bench_figures fig11a
//
// Each figure prints (a) the experiment id and setup, (b) the series/rows
// the paper's figure or table reports, and (c) a short "paper vs
// measured" summary that EXPERIMENTS.md quotes.  Figures that measure
// deployments also write BENCH_<name>.report.json (see write_report).
// Output is deterministic; `ctest -L figures` compares each figure's
// stdout byte for byte with tests/golden/<name>.stdout.
//
// Scale: the paper uses 40-rack pods and 5000 flows; the benches use
// 8-rack pods and 1500 flows, which keep the CDF shapes.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "net/checker.hpp"
#include "sched/depgraph.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace {

using namespace cicero;
using namespace cicero::bench;

constexpr std::size_t kBenchFlows = 1500;  // paper: 5000 (scaled; same CDF shape)

net::FabricParams bench_pod() {
  net::FabricParams p;
  p.racks_per_pod = 8;  // paper: 40 racks/pod; scaled for simulation speed
  p.hosts_per_rack = 3;
  return p;
}

/// Injects a workload and runs to (near-)quiescence.
void run_workload(core::Deployment& dep, workload::WorkloadKind kind, std::size_t flows,
                  std::uint64_t seed = 7, double rate_per_sec = 400.0) {
  workload::WorkloadParams wp;
  wp.kind = kind;
  wp.flow_count = flows;
  wp.arrival_rate_per_sec = rate_per_sec;
  wp.seed = seed;
  workload::WorkloadGenerator gen(dep.topology(), wp);
  dep.inject(gen.generate());
  const double horizon_sec = static_cast<double>(flows) / rate_per_sec + 30.0;
  dep.run(sim::from_sec(horizon_sec));
}

using Series = std::vector<std::pair<std::string, util::CdfCollector>>;

/// A blank line, then each labelled CDF as a block of (value, F) rows.
void print_cdf_series(const Series& series, std::size_t points = 20) {
  std::printf("\n");
  for (const auto& [label, cdf] : series) {
    std::printf("# series: %s (n=%zu, mean=%.2f ms, p50=%.2f, p99=%.2f)\n", label.c_str(),
                cdf.count(), cdf.mean(), cdf.median(), cdf.p99());
    std::printf("#   %-14s %s\n", "value(ms)", "CDF");
    for (const auto& [x, q] : cdf.cdf_series(points)) {
      std::printf("    %-14.3f %.3f\n", x, q);
    }
  }
}

/// Lowercases a human label into a metric-name prefix component
/// ("Crash Tolerant" -> "crash_tolerant").
std::string metric_slug(const std::string& label) {
  std::string s;
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!s.empty() && s.back() != '_') {
      s += '_';
    }
  }
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s;
}

/// Folds one finished deployment run into `report` under a
/// `<slug(label)>.` prefix: the full metrics registry, the process-wide
/// crypto op counters (reset afterwards so runs don't bleed into each
/// other), the completion/setup CDFs, the critical-path attribution
/// summary, and the per-shard engine telemetry.
/// Every run carries two standard fields so reports stay comparable
/// across thread counts and machines: `<slug>.threads` (worker shards
/// backing run(); 1 = sequential fast path) and, when the caller
/// measured one, `<slug>.wall_sec` (wall-clock duration of the run).
void report_run(obs::RunReport& report, core::Deployment& dep, const std::string& label,
                double wall_sec = -1.0) {
  const std::string slug = metric_slug(label);
  const std::string prefix = slug + ".";
  report.add_metrics(dep.obs().metrics, prefix);
  report.add_crypto_ops(obs::crypto_ops(), prefix);
  obs::crypto_ops().reset();
  report.add_cdf(prefix + "completion_ms", dep.completion_cdf());
  report.add_cdf(prefix + "setup_ms", dep.setup_cdf());
  report.add_critical_path(slug, dep.obs().critpath.summarize());
  report.add_shards(slug, dep.shard_telemetry());
  obs::MetricsRegistry standard;
  standard.gauge(prefix + "threads").set(static_cast<double>(dep.worker_shards()));
  if (wall_sec >= 0.0) standard.gauge(prefix + "wall_sec").set(wall_sec);
  standard.counter(prefix + "trace.dropped_events").inc(dep.obs().trace.dropped_events());
  report.add_metrics(standard);
}

std::uint64_t updates_applied(core::Deployment& dep) {
  std::uint64_t applied = 0;
  for (const net::NodeIndex sw : dep.topology().switches()) {
    applied += dep.switch_at(sw).updates_applied();
  }
  return applied;
}

/// Total switch CPU busy time, in ms across all switches.
double switch_busy_ms(core::Deployment& dep) {
  double total = 0.0;
  for (const net::NodeIndex sw : dep.topology().switches()) {
    total += static_cast<double>(dep.switch_at(sw).cpu().busy_total());
  }
  return total / 1e6;
}

/// Figs. 11a–d: the four frameworks in turn on the single-pod,
/// 4-controller fabric under one workload.  `row` reads each finished
/// deployment, which is then folded into `report`.
template <typename Row>
void for_each_framework(obs::RunReport& report, workload::WorkloadKind kind, double rate,
                        bool teardown, Row row) {
  for (const auto fw :
       {core::FrameworkKind::kCentralized, core::FrameworkKind::kCrashTolerant,
        core::FrameworkKind::kCicero, core::FrameworkKind::kCiceroAgg}) {
    auto dep = make_dep(fw, net::build_pod(bench_pod()), 4, teardown);
    run_workload(*dep, kind, kBenchFlows, 7, rate);
    row(core::framework_name(fw), *dep);
    report_run(report, *dep, core::framework_name(fw));
  }
}

// --- Table 2 -----------------------------------------------------------------

// Comparison of network-management solutions.  The related-work rows
// restate the paper's table; the Cicero row is derived from this
// repository's capability registry, each column backed by named tests.
void table2(obs::RunReport&) {
  std::printf("Table 2 — fault-tolerance/consistency comparison\n\n");
  std::printf("%-28s %6s %6s %6s %6s %6s %6s  %s\n", "System", "Crash", "Byz", "CtrlAu",
              "DynMem", "Consis", "Domain", "Implementation");
  std::printf("%.120s\n",
              "-----------------------------------------------------------------------------"
              "-------------------------------------------");
  for (const auto& row : core::table2_rows()) {
    auto mark = [](bool b) { return b ? "  x  " : "     "; };
    std::printf("%-28s %6s %6s %6s %6s %6s %6s  %s\n", row.system.c_str(),
                mark(row.crash_tolerant), mark(row.byzantine_tolerant),
                mark(row.controller_authentication), mark(row.dynamic_membership),
                mark(row.update_consistent), mark(row.update_domains),
                row.implementation.c_str());
  }
  std::printf("\n# Cicero column evidence (test names):\n");
  std::printf("#   Crash     -> Pbft.CrashedPrimaryTriggersViewChange, Byzantine.SilentController*\n");
  std::printf("#   Byz       -> Pbft.EquivocatingPrimarySafeAndLive, Byzantine.Mutating*\n");
  std::printf("#   CtrlAuth  -> Byzantine.RogueUpdateRejectedByCiceroSwitch\n");
  std::printf("#   DynMem    -> Membership.* (add/remove with fixed group public key)\n");
  std::printf("#   Consis    -> Fig1/Fig2/Fig3 property suites, Deployment.ReverseInstallOrderObserved\n");
  std::printf("#   Domains   -> MultiDomain.* (isolation + cross-domain forwarding)\n");
}

// --- Fig. 11 -----------------------------------------------------------------

// Fig. 11a — Hadoop flow completion CDF, flow rules reused across flows.
// Paper anchors: flow setup ≈2.9 ms centralized, ≈4.3 ms crash-tolerant,
// ≈8.3 ms Cicero, ≈11.6 ms Cicero Agg; after amortization the completion
// CDFs nearly coincide.
void fig11a(obs::RunReport& report) {
  report.set_meta("workload", "hadoop");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));
  report.set_meta("controllers_per_domain", std::int64_t{4});

  std::printf("%-16s %10s %10s %10s %10s %10s\n", "framework", "flows", "compl_ms",
              "setup_ms", "p50_ms", "p99_ms");
  Series series;
  std::vector<double> setup_ms;
  for_each_framework(report, workload::WorkloadKind::kHadoop, 400.0, false,
                     [&](const char* name, core::Deployment& dep) {
                       const auto completion = dep.completion_cdf();
                       setup_ms.push_back(dep.setup_cdf().mean());
                       std::printf("%-16s %10zu %10.2f %10.2f %10.2f %10.2f\n", name,
                                   completion.count(), completion.mean(), setup_ms.back(),
                                   completion.median(), completion.p99());
                       series.emplace_back(name, completion);
                     });
  print_cdf_series(series);

  std::printf("\n# paper-vs-measured (mean flow SETUP latency, ms):\n");
  const double paper[] = {2.9, 4.3, 8.3, 11.6};
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::printf("#   %-16s paper ~%4.1f   measured %5.2f\n", series[i].first.c_str(),
                paper[i], setup_ms[i]);
  }
  std::printf("# shape check: after rule reuse amortization the completion CDFs\n");
  std::printf("# of all four frameworks nearly coincide (paper Fig. 11a).\n");
}

// Fig. 11b — web-server flow completion CDF, same setup as Fig. 11a.
void fig11b(obs::RunReport& report) {
  report.set_meta("workload", "web_server");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));

  std::printf("%-16s %10s %10s %10s\n", "framework", "flows", "compl_ms", "setup_ms");
  Series series;
  for_each_framework(report, workload::WorkloadKind::kWebServer, 150.0, false,
                     [&](const char* name, core::Deployment& dep) {
                       const auto completion = dep.completion_cdf();
                       std::printf("%-16s %10zu %10.2f %10.2f\n", name, completion.count(),
                                   completion.mean(), dep.setup_cdf().mean());
                       series.emplace_back(name, completion);
                     });
  print_cdf_series(series);
  std::printf("\n# shape check (paper Fig. 11b): same ordering as Fig. 11a; the\n");
  std::printf("# web mix has more distinct (less reusable) flows, so the Cicero\n");
  std::printf("# curves sit slightly further right than under Hadoop.\n");
}

// Fig. 11c — Hadoop completion CDF with unamortized setup/teardown: every
// flow installs its route before starting and removes it on completion.
// Paper anchors: flows last ≈33.6 ms on average; Cicero adds 16 % with
// switch aggregation and 29 % with controller aggregation.
//
// The arrival rate stays below the aggregator's saturation point:
// controller aggregation funnels every update through ONE controller's
// CPU, which saturates near ~150 events/s here — the paper's §3.3
// aggregation trade-off.
void fig11c(obs::RunReport& report) {
  report.set_meta("workload", "hadoop");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));
  report.set_meta("teardown_after_flow", std::int64_t{1});

  std::printf("%-16s %10s %12s %12s\n", "framework", "flows", "compl_ms", "overhead%");
  Series series;
  std::vector<double> means;  // means[0] is the centralized baseline
  for_each_framework(report, workload::WorkloadKind::kHadoop, 80.0, true,
                     [&](const char* name, core::Deployment& dep) {
                       const auto completion = dep.completion_cdf();
                       means.push_back(completion.mean());
                       const double overhead =
                           means[0] > 0 ? (means.back() / means[0] - 1.0) * 100.0 : 0.0;
                       std::printf("%-16s %10zu %12.2f %11.1f%%\n", name, completion.count(),
                                   completion.mean(), overhead);
                       series.emplace_back(name, completion);
                     });
  print_cdf_series(series);

  std::printf("\n# paper-vs-measured:\n");
  std::printf("#   centralized mean flow time: paper ~33.6 ms, measured %.1f ms\n", means[0]);
  std::printf("#   Cicero overhead:     paper ~16%%, measured %.1f%%\n",
              (means[2] / means[0] - 1.0) * 100.0);
  std::printf("#   Cicero Agg overhead: paper ~29%%, measured %.1f%%\n",
              (means[3] / means[0] - 1.0) * 100.0);
}

// Fig. 11d — switch (OVS) CPU utilisation over a Hadoop workload.  Paper
// shape: Cicero's switch-side aggregation costs the most switch CPU,
// controller aggregation roughly halves it, the baselines sit lowest.
void fig11d(obs::RunReport& report) {
  report.set_meta("workload", "hadoop");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));
  const sim::SimTime window = sim::seconds(1);
  constexpr std::size_t kWindows = 12;
  report.set_meta("window_s", std::int64_t{1});
  report.set_meta("windows", static_cast<std::int64_t>(kWindows));

  std::vector<std::pair<std::string, std::vector<double>>> series;
  std::vector<double> totals;
  for_each_framework(
      report, workload::WorkloadKind::kHadoop, 150.0, false,
      [&](const char* name, core::Deployment& dep) {
        totals.push_back(switch_busy_ms(dep));
        series.emplace_back(name, dep.switch_cpu_windows(
                                      window, window * static_cast<sim::SimTime>(kWindows)));
      });

  std::printf("# mean switch CPU utilisation (%%) per window of workload time\n");
  std::printf("%-10s", "t(s)");
  for (const auto& [name, w] : series) std::printf(" %16s", name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < kWindows; ++i) {
    std::printf("%-10zu", i);
    for (const auto& [name, w] : series) {
      std::printf(" %15.2f%%", i < w.size() ? w[i] * 100.0 : 0.0);
    }
    std::printf("\n");
  }

  std::printf("\n# total switch CPU busy time (ms across all switches):\n");
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::printf("#   %-16s %10.1f\n", series[i].first.c_str(), totals[i]);
  }
  std::printf("# paper shape: Cicero > Cicero Agg (about half) > crash/centralized;\n");
  std::printf("#   measured Cicero/CiceroAgg ratio = %.2f (paper: ~2x)\n",
              totals[3] > 0 ? totals[2] / totals[3] : 0.0);
}

// --- Fig. 12 -----------------------------------------------------------------

/// Fig. 12a cell: the mean single-event update time.  Flows run between
/// hosts in the SAME rack (one-switch routes), so each event causes
/// exactly one switch update and the setup latency is the paper's
/// "update time".  The setup CDF lands in `report` as
/// `<fw>_n<size>.update_ms`.
double measure_update_time(core::FrameworkKind fw, std::size_t controllers,
                           obs::RunReport& report) {
  net::FabricParams p;
  p.racks_per_pod = 4;
  p.hosts_per_rack = 4;
  auto dep = make_dep(fw, net::build_pod(p), controllers);

  // Same-rack host pairs, distinct matches, spaced arrivals.
  std::vector<workload::Flow> flows;
  const auto hosts = dep->topology().hosts();
  sim::SimTime t = sim::milliseconds(5);
  for (std::size_t i = 0; i < hosts.size() && flows.size() < 120; ++i) {
    for (std::size_t j = 0; j < hosts.size() && flows.size() < 120; ++j) {
      if (i == j) continue;
      const auto& a = dep->topology().node(hosts[i]).placement;
      const auto& b = dep->topology().node(hosts[j]).placement;
      if (a.rack != b.rack) continue;
      workload::Flow f;
      f.arrival = t;
      f.src_host = hosts[i];
      f.dst_host = hosts[j];
      f.size_bytes = 1e4;
      f.reserved_bps = 1e6;
      flows.push_back(f);
      t += sim::milliseconds(40);
    }
  }
  dep->inject(flows);
  dep->run(t + sim::seconds(5));
  const auto setup = dep->setup_cdf();
  report.add_cdf(metric_slug(core::framework_name(fw)) + "_n" + std::to_string(controllers) +
                     ".update_ms",
                 setup);
  return setup.mean();
}

// Fig. 12a — average update time for one event vs control-plane size.
// Paper shape: growth with size for every replicated framework; the
// crash-tolerant protocol grows more slowly than Cicero (no quorum
// authentication on switches); Cicero at 10 controllers is ~2.5x the
// centralized baseline.
void fig12a(obs::RunReport& report) {
  report.set_meta("events_per_cell", std::int64_t{120});

  std::printf("%-8s %14s %14s %14s %14s\n", "size", "Centralized", "CrashTolerant", "Cicero",
              "CiceroAgg");
  double centralized = 0.0, cicero10 = 0.0;
  for (const std::size_t n : {1, 4, 5, 6, 7, 8, 9, 10}) {
    std::printf("%-8zu", n);
    if (n == 1) {
      centralized = measure_update_time(core::FrameworkKind::kCentralized, 1, report);
      std::printf(" %11.2f ms %14s %14s %14s\n", centralized, "-", "-", "-");
      continue;
    }
    const double crash = measure_update_time(core::FrameworkKind::kCrashTolerant, n, report);
    const double cicero = measure_update_time(core::FrameworkKind::kCicero, n, report);
    const double agg = measure_update_time(core::FrameworkKind::kCiceroAgg, n, report);
    if (n == 10) cicero10 = cicero;
    std::printf(" %14s %11.2f ms %11.2f ms %11.2f ms\n", "-", crash, cicero, agg);
  }
  std::printf("\n# paper shape: monotone growth with n; Cicero > crash tolerant;\n");
  std::printf("#   Cicero@10 / centralized = %.1fx (paper: ~2.5x)\n",
              centralized > 0 ? cicero10 / centralized : 0.0);
}

struct InnetCell {
  double bytes_per_update = 0.0;
  double switch_cpu_ms = 0.0;
};

InnetCell measure_innet(core::AggregationMode agg, std::size_t controllers,
                        obs::RunReport& report) {
  net::FabricParams p;
  p.racks_per_pod = 4;
  p.hosts_per_rack = 4;
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  dp.aggregation = agg;
  dp.controllers_per_domain = controllers;
  dp.real_crypto = false;
  dp.seed = 42;
  auto dep = std::make_unique<core::Deployment>(net::build_pod(p), dp);

  const double t0 = wall_clock_sec();
  run_workload(*dep, workload::WorkloadKind::kHadoop, 400);
  const double wall = wall_clock_sec() - t0;

  std::uint64_t southbound = 0;
  for (const auto id : dep->controller_ids()) {
    southbound += dep->controller(id).southbound_bytes();
  }
  const std::uint64_t applied = updates_applied(*dep);
  InnetCell cell;
  cell.bytes_per_update =
      applied == 0 ? 0.0 : static_cast<double>(southbound) / static_cast<double>(applied);
  for (const net::NodeIndex sw : dep->topology().switches()) {
    cell.switch_cpu_ms += sim::to_sec(dep->switch_at(sw).cpu().busy_total()) * 1e3;
  }

  const std::string label =
      std::string(agg == core::AggregationMode::kInNetwork ? "innet" : "cicero") + "_n" +
      std::to_string(controllers);
  report_run(report, *dep, label, wall);
  obs::MetricsRegistry extra;
  extra.gauge(label + ".ctrl_bytes_per_update").set(cell.bytes_per_update);
  extra.gauge(label + ".switch_cpu_ms").set(cell.switch_cpu_ms);
  report.add_metrics(extra);
  return cell;
}

// Fig. 12a variant — controller egress bytes and switch CPU vs
// control-plane size, plain kCicero against the in-network aggregation
// offload (P4BFT-style; DESIGN.md §16).  Under kCicero every replica
// sends the target switch a full signed update, so controller egress
// grows linearly with n.  Under kInNetwork one rank-0 replica sends the
// body to the domain's aggregator switch, ranks 1..t-1 send digest
// shares, and the aggregator fans out ONE aggregated update.
//
// The headline, gated by bench_diff.py against the committed baseline,
// is `<mode>_n<size>.ctrl_bytes_per_update`: at n=10 the in-network
// figure must be <= 1/3 of kCicero's.  Switch CPU shows the offload's
// cost: the aggregator switch does the combine work.
void innet(obs::RunReport& report) {
  report.set_meta("workload", "hadoop");
  report.set_meta("flows_per_cell", std::int64_t{400});

  std::printf("%-6s %16s %16s %14s %14s\n", "size", "cicero B/upd", "innet B/upd",
              "cicero cpu_ms", "innet cpu_ms");
  double base10 = 0.0, innet10 = 0.0;
  for (const std::size_t n : {1, 4, 5, 6, 7, 8, 9, 10}) {
    const InnetCell base = measure_innet(core::AggregationMode::kNone, n, report);
    const InnetCell innet = measure_innet(core::AggregationMode::kInNetwork, n, report);
    if (n == 10) {
      base10 = base.bytes_per_update;
      innet10 = innet.bytes_per_update;
    }
    std::printf("%-6zu %16.1f %16.1f %14.1f %14.1f\n", n, base.bytes_per_update,
                innet.bytes_per_update, base.switch_cpu_ms, innet.switch_cpu_ms);
  }

  std::printf("\n# headline: at n=10 the in-network offload must send <= 1/3\n");
  std::printf("# of the kCicero baseline's controller bytes per update:\n");
  std::printf("#   cicero %.1f B/upd, innet %.1f B/upd, ratio %.3f\n", base10, innet10,
              base10 > 0 ? innet10 / base10 : 0.0);
  if (base10 > 0 && innet10 <= base10 / 3.0) {
    std::printf("# OK: acceptance bar met (%.3f <= 0.333)\n", innet10 / base10);
  } else {
    std::printf("# WARNING: acceptance bar MISSED\n");
  }
}

// Fig. 12a variant — decentralized (ez-Segway) vs controller-driven
// execution on the Fig. 11a scenario: same framework, workload and seed,
// only the execution mode differs.  The headlines, gated by
// bench_diff.py, are the control plane's messages per applied update
// (updates/manifests out + acks in) and the controller-side ack round
// trip (ctrl.update_ack_ms).  Decentralized must send fewer messages per
// update: one manifest per segment plus one sink ack per chain, versus
// one update plus one multicast ack per segment.
void decentralized(obs::RunReport& report) {
  report.set_meta("workload", "hadoop");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));
  report.set_meta("controllers_per_domain", std::int64_t{4});

  std::printf("%-18s %10s %12s %12s %14s %12s\n", "mode", "flows", "compl_ms", "setup_ms",
              "ctrl_msgs/upd", "peer_sigs");
  std::vector<std::pair<std::string, double>> rows;  // (mode, ctrl msgs per update)
  for (const auto mode :
       {core::ExecutionMode::kControllerDriven, core::ExecutionMode::kDecentralized}) {
    core::DeploymentParams dp;
    dp.framework = core::FrameworkKind::kCicero;
    dp.execution_mode = mode;
    dp.real_crypto = false;
    dp.seed = 42;
    auto dep = std::make_unique<core::Deployment>(net::build_pod(bench_pod()), dp);
    const double t0 = wall_clock_sec();
    run_workload(*dep, workload::WorkloadKind::kHadoop, kBenchFlows);
    const double wall = wall_clock_sec() - t0;

    std::uint64_t ctrl_msgs = 0;
    for (const auto id : dep->controller_ids()) {
      const auto& c = dep->controller(id);
      ctrl_msgs += c.updates_sent() + c.manifests_sent() + c.acks_received();
    }
    std::uint64_t peer_sigs = 0;
    for (const net::NodeIndex sw : dep->topology().switches()) {
      peer_sigs += dep->switch_at(sw).peer_signals_sent();
    }
    const std::uint64_t applied = updates_applied(*dep);
    const std::string name = core::execution_mode_name(mode);
    const double per_update =
        applied == 0 ? 0.0 : static_cast<double>(ctrl_msgs) / static_cast<double>(applied);

    report_run(report, *dep, name, wall);
    obs::MetricsRegistry extra;
    extra.gauge(metric_slug(name) + ".ctrl_msgs_per_update").set(per_update);
    report.add_metrics(extra);

    const auto completion = dep->completion_cdf();
    std::printf("%-18s %10zu %12.2f %12.2f %14.2f %12llu\n", name.c_str(), completion.count(),
                completion.mean(), dep->setup_cdf().mean(), per_update,
                static_cast<unsigned long long>(peer_sigs));
    rows.emplace_back(name, per_update);
  }

  std::printf("\n# headline: decentralized must exchange fewer controller\n");
  std::printf("# messages per applied update than controller-driven:\n");
  for (const auto& [name, per_update] : rows) {
    std::printf("#   %-18s %6.2f ctrl msgs/update\n", name.c_str(), per_update);
  }
  if (rows[1].second < rows[0].second) {
    std::printf("# OK: decentralized wins (%.2f < %.2f)\n", rows[1].second, rows[0].second);
  } else {
    std::printf("# WARNING: decentralized did not reduce controller messages\n");
  }
}

/// Fig. 12b: splits the pod's switches into `d` domains: ToR r -> domain
/// r % d, edge switch e -> domain e % d (the paper's intra-pod split).
net::Topology split_pod(std::size_t d) {
  net::Topology topo = net::build_pod(bench_pod());
  std::size_t tor = 0, edge = 0;
  for (const auto sw : topo.switches()) {
    const bool is_tor = topo.node(sw).name.find("tor") != std::string::npos;
    topo.set_domain(sw, static_cast<net::DomainId>(is_tor ? tor++ % d : edge++ % d));
  }
  return topo;
}

/// Mean % of a workload's events each of the `d` control planes handles:
/// an event is charged to every domain its route's switches touch.
double mean_share(const net::Topology& topo, workload::WorkloadKind kind, std::size_t d) {
  workload::WorkloadParams wp;
  wp.kind = kind;
  wp.flow_count = 4000;
  wp.seed = 11;
  const auto flows = workload::WorkloadGenerator(topo, wp).generate();

  std::map<net::DomainId, std::size_t> processed;
  for (const auto dom : topo.domains()) processed[dom] = 0;
  for (const auto& f : flows) {
    const auto path = topo.shortest_path(f.src_host, f.dst_host);
    std::set<net::DomainId> touched;
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      touched.insert(topo.node(path[i]).domain);
    }
    for (const auto dom : touched) ++processed[dom];
  }
  double mean = 0.0;
  for (const auto& [dom, count] : processed) {
    mean += static_cast<double>(count) / static_cast<double>(flows.size());
  }
  return mean / static_cast<double>(d) * 100.0;
}

// Fig. 12b — % of all events each control plane must process as one pod
// is split into 1..10 domains, a locality computation over the
// workload's routes as in the paper.  Paper shape: 100 % at one domain,
// a sharp drop with diminishing returns, and the web-server workload
// (31.6 % multi-domain events) above Hadoop (5.8 %).  No deployment runs,
// so the report carries the share table itself as gauges.
void fig12b(obs::RunReport& report) {
  report.set_meta("flows_per_point", std::int64_t{4000});
  obs::MetricsRegistry shares;

  std::printf("%-10s %16s %16s\n", "#domains", "MD Hadoop", "MD Webserver");
  double hadoop1 = 0.0;
  for (std::size_t d = 1; d <= 10; ++d) {
    const net::Topology topo = split_pod(d);
    const double h = mean_share(topo, workload::WorkloadKind::kHadoop, d);
    const double w = mean_share(topo, workload::WorkloadKind::kWebServer, d);
    if (d == 1) hadoop1 = h;
    shares.gauge("hadoop.share_pct.d" + std::to_string(d)).set(h);
    shares.gauge("web_server.share_pct.d" + std::to_string(d)).set(w);
    std::printf("%-10zu %15.1f%% %15.1f%%\n", d, h, w);
  }
  report.add_metrics(shares);
  std::printf("\n# paper shape: 100%% at one domain, steep drop then diminishing\n");
  std::printf("# returns; webserver shares exceed Hadoop at every split\n");
  std::printf("# (single-domain share measured: %.0f%%)\n", hadoop1);
}

struct Setup {
  const char* label;
  core::FrameworkKind fw;
  bool multi_domain;
  std::size_t controllers;
};

// Fig. 12c — Hadoop completion CDF: one 12-controller domain vs three
// domains of 4 controllers (two server pods + an interconnect domain).
// Paper shape: the multi-domain (MD) split processes most events in
// parallel in small control planes, pushing its CDF well left; the
// aggregation variants keep their relative order.
void fig12c(obs::RunReport& report) {
  report.set_meta("workload", "hadoop");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));

  const Setup setups[] = {
      {"Cicero", core::FrameworkKind::kCicero, false, 12},
      {"Cicero Agg", core::FrameworkKind::kCiceroAgg, false, 12},
      {"Cicero MD", core::FrameworkKind::kCicero, true, 4},
      {"Cicero Agg MD", core::FrameworkKind::kCiceroAgg, true, 4},
  };
  std::printf("%-16s %10s %10s %10s\n", "setup", "flows", "compl_ms", "setup_ms");
  Series series;
  std::vector<double> setup_means;
  for (const auto& s : setups) {
    net::FabricParams p = bench_pod();
    p.racks_per_pod = 6;
    p.pods_per_dc = 2;
    p.domain_per_pod = s.multi_domain;
    auto dep = make_dep(s.fw, net::build_datacenter(p), s.controllers);
    run_workload(*dep, workload::WorkloadKind::kHadoop, kBenchFlows, 7, 40.0);
    const auto completion = dep->completion_cdf();
    setup_means.push_back(dep->setup_cdf().mean());
    std::printf("%-16s %10zu %10.2f %10.2f\n", s.label, completion.count(), completion.mean(),
                setup_means.back());
    series.emplace_back(s.label, completion);
    report_run(report, *dep, s.label);
  }
  print_cdf_series(series);
  std::printf("\n# paper shape: MD setups beat the single 12-member domain\n");
  std::printf("#   measured setup speedup (Cicero single/MD): %.2fx\n",
              setup_means[2] > 0 ? setup_means[0] / setup_means[2] : 0.0);
}

// Fig. 12d — web-server completion CDF on a multi-data-center fabric
// (Deutsche Telekom-style WAN): one centralized controller for the whole
// network vs Cicero with one domain per pod.  Paper shape: the
// centralized controller pays WAN latency on every cross-DC flow setup,
// so Cicero's per-pod domains BEAT it despite the extra messaging — the
// paper's headline scalability result.
void fig12d(obs::RunReport& report) {
  report.set_meta("workload", "web_server");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));

  const Setup setups[] = {
      {"Centralized", core::FrameworkKind::kCentralized, false, 1},
      {"Cicero MD", core::FrameworkKind::kCicero, true, 4},
      {"Cicero Agg MD", core::FrameworkKind::kCiceroAgg, true, 4},
  };
  std::printf("%-16s %10s %10s %10s %10s\n", "setup", "flows", "compl_ms", "setup_ms",
              "p99_ms");
  Series series;
  for (const auto& s : setups) {
    net::FabricParams p;
    p.racks_per_pod = 3;
    p.hosts_per_rack = 2;
    p.pods_per_dc = 4;   // paper: 4 pods per data center
    p.data_centers = 3;  // paper: DT topology; scaled
    p.domain_per_pod = s.multi_domain;
    auto dep = make_dep(s.fw, net::build_multi_dc(p), s.controllers);
    run_workload(*dep, workload::WorkloadKind::kWebServer, kBenchFlows, 7, 300.0);
    const auto completion = dep->completion_cdf();
    std::printf("%-16s %10zu %10.2f %10.2f %10.2f\n", s.label, completion.count(),
                completion.mean(), dep->setup_cdf().mean(), completion.p99());
    series.emplace_back(s.label, completion);
    report_run(report, *dep, s.label);
  }
  print_cdf_series(series);
  const double centralized = series[0].second.mean(), md = series[1].second.mean();
  std::printf("\n# paper shape: Cicero MD completes flows FASTER than the\n");
  std::printf("# centralized controller on a WAN (crossover vs Fig. 11):\n");
  std::printf("#   centralized mean %.1f ms vs Cicero MD mean %.1f ms (%s)\n", centralized, md,
              md < centralized ? "Cicero wins, as in the paper" : "UNEXPECTED");
}

// --- Ablations -----------------------------------------------------------------

/// A 2x3 grid of switches with four hosts, for the scheduler ablation.
struct Fabric {
  net::Topology topo;
  std::vector<net::NodeIndex> switches, hosts;
  std::map<net::NodeIndex, net::FlowTable> tables;

  Fabric() {
    for (int i = 0; i < 6; ++i) {
      switches.push_back(topo.add_switch("s" + std::to_string(i), {}, 0));
    }
    const double bw = 10e6;
    auto link = [&](int a, int b) {
      topo.add_link(switches[static_cast<std::size_t>(a)],
                    switches[static_cast<std::size_t>(b)], bw, sim::microseconds(10));
    };
    link(0, 1);
    link(1, 2);
    link(3, 4);
    link(4, 5);
    link(0, 3);
    link(1, 4);
    link(2, 5);
    for (int i = 0; i < 4; ++i) {
      const auto h = topo.add_host("h" + std::to_string(i), {}, 0);
      hosts.push_back(h);
      topo.add_link(h, switches[static_cast<std::size_t>(i == 3 ? 5 : i)], 10 * bw,
                    sim::microseconds(5));
    }
  }

  net::TableMap table_map() const {
    net::TableMap m;
    for (const auto& [sw, t] : tables) m[sw] = &t;
    return m;
  }
  void apply(const sched::Update& u) {
    if (u.op == sched::UpdateOp::kInstall) {
      tables[u.switch_node].install(u.rule);
    } else {
      tables[u.switch_node].remove(u.rule.match);
    }
  }
};

/// Runs one random reroute scenario under the given scheduler; returns
/// the number of intermediate states with a violation.
int run_scenario(const sched::UpdateScheduler& scheduler, std::uint64_t seed) {
  Fabric f;
  util::Rng rng(seed);
  const net::NodeIndex src = f.hosts[rng.next_below(f.hosts.size())];
  net::NodeIndex dst = src;
  while (dst == src) dst = f.hosts[rng.next_below(f.hosts.size())];
  const net::FlowMatch m{src, dst};

  // Establish the shortest route first (consistently).
  const auto path1 = f.topo.shortest_path(src, dst);
  if (path1.size() < 3) return 0;
  sched::RouteIntent establish;
  establish.kind = sched::RouteIntent::Kind::kEstablish;
  establish.match = m;
  establish.path = path1;
  establish.reserved_bps = 4e6;
  for (const auto& su : sched::ReversePathScheduler().build(establish, 1).updates) {
    f.apply(su.update);
  }

  // Reroute through a random intermediate switch (a detour), applying in a
  // random dependence-respecting order, counting violating states.
  const net::NodeIndex via = f.switches[rng.next_below(f.switches.size())];
  const auto a = f.topo.shortest_path(f.topo.host_tor(src), via);
  const auto b = f.topo.shortest_path(via, f.topo.host_tor(dst));
  if (a.empty() || b.empty()) return 0;
  std::vector<net::NodeIndex> detour;
  detour.push_back(src);
  for (const auto n : a) detour.push_back(n);
  for (std::size_t i = 1; i < b.size(); ++i) detour.push_back(b[i]);
  detour.push_back(dst);
  // Skip degenerate detours with repeated switches (not simple paths).
  std::set<net::NodeIndex> uniq(detour.begin(), detour.end());
  if (uniq.size() != detour.size()) return 0;

  sched::RouteIntent reroute;
  reroute.kind = sched::RouteIntent::Kind::kEstablish;
  reroute.match = m;
  reroute.path = detour;
  reroute.reserved_bps = 4e6;
  const auto schedule = scheduler.build(reroute, 100);

  int violations = 0;
  sched::DependencyTracker tracker;
  std::vector<sched::UpdateId> ready = tracker.add(schedule);
  while (!ready.empty()) {
    const std::size_t pick = static_cast<std::size_t>(rng.next_below(ready.size()));
    const sched::UpdateId id = ready[pick];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));
    f.apply(tracker.update(id));
    const auto trace = net::trace_flow(f.topo, f.table_map(), src, dst);
    if (trace.status == net::TraceStatus::kLoop ||
        trace.status == net::TraceStatus::kBlackHole) {
      ++violations;
    }
    for (const auto next : tracker.complete(id)) ready.push_back(next);
  }
  return violations;
}

// Ablation — what the update scheduler buys.  Random reroute scenarios on
// a small grid, each applied in a random dependence-respecting order:
// the reverse-path and Dionysus-lite dependence sets must leave zero
// transient violations, while the naive scheduler reproduces the loops
// and black holes of Table 1.
void ablation_scheduler(obs::RunReport&) {
  std::printf("Ablation: update scheduler (transient violations over 400 random reroutes)\n\n");
  const sched::ReversePathScheduler reverse;
  const sched::DionysusLiteScheduler dionysus;
  const sched::NaiveScheduler naive;
  const std::pair<const char*, const sched::UpdateScheduler*> rows[] = {
      {"reverse-path", &reverse}, {"dionysus-lite", &dionysus}, {"naive (no deps)", &naive}};
  for (const auto& [name, scheduler] : rows) {
    int violating_states = 0, violating_scenarios = 0;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
      const int v = run_scenario(*scheduler, seed);
      violating_states += v;
      violating_scenarios += (v > 0);
    }
    std::printf("%-18s violating intermediate states: %4d   scenarios affected: %3d/400\n",
                name, violating_states, violating_scenarios);
  }
  std::printf("\n# expected: zero transient violations for the dependence-based\n");
  std::printf("# schedulers; the naive scheduler reproduces the Fig. 1-3 bugs.\n");
}

// Ablation — signature aggregation placement (paper §3.3): switch vs
// controller aggregation as the quorum grows, trading switch CPU
// (controller aggregation should win) against flow-setup latency
// (switch aggregation should win).
void ablation_agg(obs::RunReport&) {
  std::printf("%-6s %-14s %14s %18s\n", "n", "mode", "setup_ms", "switch_cpu_ms");
  for (const std::size_t n : {4u, 7u, 10u}) {
    for (const auto fw : {core::FrameworkKind::kCicero, core::FrameworkKind::kCiceroAgg}) {
      net::FabricParams p;
      p.racks_per_pod = 4;
      p.hosts_per_rack = 2;
      auto dep = make_dep(fw, net::build_pod(p), n);
      run_workload(*dep, workload::WorkloadKind::kHadoop, 400, 7, 200.0);
      std::printf("%-6zu %-14s %14.2f %18.1f\n", n,
                  fw == core::FrameworkKind::kCicero ? "switch-agg" : "controller-agg",
                  dep->setup_cdf().mean(), switch_busy_ms(*dep));
    }
  }
  std::printf("\n# expected: controller aggregation trades higher setup latency for\n");
  std::printf("# roughly half the switch CPU at every control-plane size (§3.3/§6.2).\n");
}

struct Figure {
  const char* name;   // command-line name; also the report id and golden file stem
  const char* title;  // header; nullptr when the figure prints its own title line
  const char* setup;
  const char* report;  // run report experiment name; nullptr writes no report
  void (*run)(obs::RunReport&);
};

constexpr Figure kFigures[] = {
    {"table2", nullptr, nullptr, nullptr, table2},
    {"fig11a", "Fig. 11a", "Hadoop flow completion CDF, single pod, 4 controllers",
     "fig11a_hadoop_fct", fig11a},
    {"fig11b", "Fig. 11b", "Web-server flow completion CDF, single pod, 4 controllers",
     "fig11b_web_fct", fig11b},
    {"fig11c", "Fig. 11c", "Hadoop completion CDF, unamortized setup/teardown",
     "fig11c_unamortized", fig11c},
    {"fig11d", "Fig. 11d", "Mean switch CPU utilisation per 1 s window, Hadoop workload",
     "fig11d_switch_cpu", fig11d},
    {"fig12a", "Fig. 12a", "Network update time vs control-plane size", "fig12a_cp_size",
     fig12a},
    {"innet", "Fig. 12a variant (in-network aggregation)",
     "controller egress bytes and switch CPU vs control-plane size", "innet_cp_size", innet},
    {"decentralized", "Decentralized execution",
     "controller-driven vs in-band (ez-Segway) chain execution", "decentralized",
     decentralized},
    {"fig12b", "Fig. 12b", "% of events processed per control plane vs #domains in a pod",
     "fig12b_event_locality", fig12b},
    {"fig12c", "Fig. 12c",
     "Hadoop completion CDF: single domain (12 ctrl) vs 3 domains (4 ctrl each)",
     "fig12c_multidomain", fig12c},
    {"fig12d", "Fig. 12d", "Web-server completion CDF across multiple data centers",
     "fig12d_multidc", fig12d},
    {"ablation_scheduler", nullptr, nullptr, nullptr, ablation_scheduler},
    {"ablation_agg", "Ablation: aggregation placement",
     "setup latency and switch CPU vs control-plane size", nullptr, ablation_agg},
};

}  // namespace

int main(int argc, char** argv) {
  const Figure* fig = nullptr;
  for (const Figure& f : kFigures) {
    if (argc == 2 && std::strcmp(argv[1], f.name) == 0) fig = &f;
  }
  if (fig == nullptr) {
    std::fprintf(stderr, "usage: bench_figures <name>\nnames:");
    for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (fig->title != nullptr) print_header(fig->title, fig->setup);
  obs::RunReport report(fig->report != nullptr ? fig->report : fig->name);
  obs::crypto_ops().reset();
  fig->run(report);
  if (fig->report != nullptr) write_report(report, fig->name);
  return 0;
}
