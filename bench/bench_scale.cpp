// Scale — the update pipeline on thousand-switch topologies.
//
// Two measurements, one report (`cicero-run-report/v1`):
//
//  1. Structure microbenchmarks: the indexed 4-ary heap (sim::Simulator)
//     on the controller's ack-timer pattern (arm a retransmit timer,
//     cancel it when the ack lands), and the dense
//     sched::DependencyTracker on chained dependency batches.  Reported
//     as events/sec and updates/sec.
//
//  2. End-to-end scale runs: full deployments on workload::fat_tree(k)
//     and workload::wan(n), reporting simulated events/sec, applied
//     updates/sec, and peak RSS vs switch count.  Configs run smallest
//     first, so the VmHWM reading after each run approximates that
//     config's footprint (RSS high-water is monotonic per process).
//
// `--smoke` trims the sweep to the two CI acceptance topologies —
// k = 16 fat-tree (320 switches / 1024 hosts) and a 1000-switch WAN —
// with a reduced flow count, sized to finish in a CI smoke job.
//
// `--threads N` runs the deployments on the sharded parallel engine
// (N worker shards over domain-partitioned topologies).  Passing the
// flag — even `--threads 1` — switches the topologies to one control
// domain per pod/region so thread counts compare like-for-like;
// without it the single-domain baseline topologies are unchanged.
//
// `--large` appends the 10k-switch WAN and k = 32 fat-tree scenarios
// (out of CI budget; for dedicated scaling runs).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sched/depgraph.hpp"
#include "sim/simulator.hpp"
#include "workload/topo_gen.hpp"

namespace {

using namespace cicero;

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Peak resident set size of this process in MiB (VmHWM; monotonic).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

// --- 1a. event queue: the ack-timer pattern ------------------------------
//
// Per update: an ack arrives ack_gap after send, and a retransmit timer is
// armed ack_timeout out and cancelled when the ack fires.  events/sec
// counts the `n` useful (ack) events per wall second.

double bench_queue(std::uint64_t n, sim::SimTime ack_gap, sim::SimTime timeout) {
  sim::Simulator sim;
  std::uint64_t acked = 0;
  const double t0 = now_sec();
  std::function<void(std::uint64_t)> send = [&](std::uint64_t i) {
    if (i >= n) return;
    const sim::Simulator::TimerId timer = sim.after_cancellable(timeout, [] {});
    sim.after(ack_gap, [&, timer, i] {
      sim.cancel(timer);
      ++acked;
      send(i + 1);
    });
  };
  send(0);
  sim.run();
  return static_cast<double>(acked) / (now_sec() - t0);
}

// --- 1b. dependency tracker: chained batches -----------------------------
//
// Batches of `width` independent chains of length `depth` (the reverse-path
// scheduler's shape: one chain per flow path), added then completed in
// order.  updates/sec counts add+complete work per update.

double bench_tracker(std::uint64_t batches, std::uint32_t width, std::uint32_t depth) {
  sched::DependencyTracker tracker;
  sched::UpdateId next_id = 1;
  std::uint64_t updates = 0;
  const double t0 = now_sec();
  std::vector<sched::UpdateId> order;
  for (std::uint64_t b = 0; b < batches; ++b) {
    sched::UpdateSchedule schedule;
    order.clear();
    for (std::uint32_t w = 0; w < width; ++w) {
      sched::UpdateId prev = 0;
      for (std::uint32_t d = 0; d < depth; ++d) {
        sched::ScheduledUpdate su;
        su.update.id = next_id++;
        su.update.switch_node = w * depth + d;
        if (d > 0) su.deps.push_back(prev);
        prev = su.update.id;
        order.push_back(prev);
        schedule.updates.push_back(std::move(su));
      }
    }
    updates += schedule.updates.size();
    std::vector<sched::UpdateId> released = tracker.add(schedule);
    for (const sched::UpdateId id : order) {
      std::vector<sched::UpdateId> more = tracker.complete(id);
      released.insert(released.end(), more.begin(), more.end());
    }
    if (tracker.in_flight() != 0 || tracker.blocked() != 0) {
      std::fprintf(stderr, "tracker bench: leak detected\n");
      std::exit(1);
    }
  }
  const double wall = now_sec() - t0;
  return static_cast<double>(updates) / wall;
}

// --- 2. end-to-end deployments -------------------------------------------

struct ScaleConfig {
  std::string name;
  net::Topology topo;
  std::size_t flows;
};

void run_scale_config(obs::RunReport& report, ScaleConfig cfg, std::uint32_t threads) {
  const std::size_t switches = cfg.topo.switches().size();
  const std::size_t hosts = cfg.topo.hosts().size();
  const std::vector<workload::Flow> flows =
      workload::scale_flows(cfg.topo, cfg.flows, 600.0, /*seed=*/11);

  const double t0 = now_sec();
  auto dep = bench::make_dep(core::FrameworkKind::kCicero, std::move(cfg.topo),
                             /*controllers=*/4, /*teardown=*/false, threads);
  dep->inject(flows);
  dep->run(sim::from_sec(static_cast<double>(cfg.flows) / 600.0 + 20.0));
  const double wall = now_sec() - t0;

  std::uint64_t applied = 0;
  for (const net::NodeIndex s : dep->topology().switches()) {
    applied += dep->switch_at(s).updates_applied();
  }
  const std::uint64_t events = dep->events_processed();
  const std::uint32_t shards = dep->worker_shards();
  const double rss = peak_rss_mb();

  const std::string prefix = "scale." + cfg.name + ".";
  report.set_meta(cfg.name + "_switches", static_cast<std::int64_t>(switches));
  report.add_metrics(dep->obs().metrics, prefix);
  report.add_critical_path("scale." + cfg.name, dep->obs().critpath.summarize());
  report.add_shards("scale." + cfg.name, dep->shard_telemetry());
  obs::crypto_ops().reset();
  obs::MetricsRegistry gauges;
  gauges.gauge(prefix + "switches").set(static_cast<double>(switches));
  gauges.gauge(prefix + "hosts").set(static_cast<double>(hosts));
  gauges.gauge(prefix + "threads").set(static_cast<double>(shards));
  gauges.gauge(prefix + "wall_sec").set(wall);
  gauges.gauge(prefix + "events_per_sec").set(static_cast<double>(events) / wall);
  gauges.gauge(prefix + "updates_per_sec").set(static_cast<double>(applied) / wall);
  gauges.gauge(prefix + "peak_rss_mb").set(rss);
  gauges.counter(prefix + "trace.dropped_events").inc(dep->obs().trace.dropped_events());
  report.add_metrics(gauges);

  std::printf(
      "  %-14s %5zu sw %5zu hosts %2u thr : %8.2fs wall  %10.0f ev/s  %8.0f upd/s  %7.1f MB\n",
      cfg.name.c_str(), switches, hosts, shards, wall, static_cast<double>(events) / wall,
      static_cast<double>(applied) / wall, rss);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool large = false;
  std::uint32_t threads = 1;
  bool domains = false;  // --threads given: use domain-partitioned topologies
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--large") == 0) large = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      if (threads == 0) threads = 1;
      domains = true;
    }
  }

  cicero::bench::print_header(
      "scale", smoke ? "thousand-switch pipeline (CI smoke)" : "thousand-switch pipeline");
  cicero::obs::RunReport report("scale");
  report.set_meta("mode", smoke ? "smoke" : "full");
  report.set_meta("threads", static_cast<std::int64_t>(threads));

  cicero::workload::FatTreeOptions ft;
  ft.domain_per_pod = domains;
  cicero::workload::WanOptions wo;
  wo.domain_per_region = domains;

  // End-to-end deployments first, smallest first: VmHWM is monotonic per
  // process, so running these before the (memory-hungrier) structure
  // microbenchmarks keeps each config's peak-RSS reading meaningful.
  std::printf("end-to-end scale runs:\n");
  std::vector<ScaleConfig> configs;
  if (!smoke) {
    configs.push_back({"fat_tree_k8", cicero::workload::fat_tree(8, ft), 400});
    configs.push_back({"wan_250", cicero::workload::wan(250, wo), 300});
  }
  configs.push_back({"fat_tree_k16", cicero::workload::fat_tree(16, ft), smoke ? 120u : 600u});
  configs.push_back({"wan_1000", cicero::workload::wan(1000, wo), smoke ? 80u : 400u});
  if (large) {
    configs.push_back({"fat_tree_k32", cicero::workload::fat_tree(32, ft), 800});
    configs.push_back({"wan_10000", cicero::workload::wan(10000, wo), 600});
  }
  for (auto& cfg : configs) run_scale_config(report, std::move(cfg), threads);

  // 1a. Event queue.  500k outstanding timers at steady state (500 ms
  // timeout / 1 us ack gap) — the backlog the retransmission machinery
  // creates when a 1000-switch deployment dispatches ~1M updates/sec.
  const std::uint64_t n_events = smoke ? 600'000 : 2'000'000;
  const cicero::sim::SimTime gap = cicero::sim::microseconds(1);
  const cicero::sim::SimTime timeout = cicero::sim::milliseconds(500);
  const double queue_eps = bench_queue(n_events, gap, timeout);
  std::printf("\nstructure microbenchmarks:\n");
  std::printf("event queue   : %12.0f ev/s indexed-heap\n", queue_eps);

  // 1b. Dependency tracker.  Reverse-path-shaped chains.
  const std::uint64_t batches = smoke ? 2'000 : 10'000;
  const double fresh_upd = bench_tracker(batches, 8, 6);
  std::printf("dep tracker   : %12.0f upd/s dense\n", fresh_upd);

  {
    cicero::obs::MetricsRegistry micro;
    micro.gauge("micro.queue.events_per_sec").set(queue_eps);
    micro.gauge("micro.tracker.updates_per_sec").set(fresh_upd);
    report.add_metrics(micro);
  }

  cicero::bench::write_report(report, "scale");
  return 0;
}
