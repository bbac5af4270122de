// perfbench — host speed and simulated outputs of one Cicero workload.
//
//   cicero_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--small] [--trace-out PATH]
//
// One process runs one workload, single-threaded (DeploymentParams::threads
// = 1).  A repetition builds the topology, generates the seeded flow set,
// constructs the Deployment (PKI, key shares, planes), injects the flows
// (all of that is "set-up"), then calls Deployment::run up to the horizon
// (horizon_of).
//
// A run covers a fixed number of independent input sets per workload
// (Spec::sets), each with its own flows, WAN chords and deployment seed
// derived from the run's seed.  One set's simulated tail latency depends
// strongly on its draw; pooling the sets' flow records keeps the
// simulated metrics close across seeds.
//
// --trace 0 runs every set once, then keeps cycling through the sets
// until about S seconds have passed, and prints the end-to-end metrics:
// host speed (flows_per_s pooled over the sets, setup_s and peak_rss_mb)
// and the simulated outputs (sim_setup_*, ctrl_bytes_per_update,
// switch_cpu_pct) pooled over the sets, which depend only on the workload
// and seed.
//
// --trace 1 runs set 0 only: it alternates untraced repetitions with
// repetitions that record spans around every call the benchmark makes into
// a module, then replays each module's public entry points on the
// workload's own inputs (replay.hpp) and prints the per-layer metrics.
// Spans stay in memory and are written to --trace-out at exit.
//
// Every run checks its outputs: each attempted flow either completes or
// is counted as failed, no update is left pending at the horizon, the
// final flow tables pass net::check_consistency, and the digest of a set's
// simulated outputs is identical across all its repetitions (traced or
// not).  One `digest <set> <hex>` line per set lets run.py compare them
// with the recorded references.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
//
// --small shrinks every workload (smaller topology, fewer flows and
// replay samples) for the benchmark's own self-test.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.hpp"
#include "net/checker.hpp"
#include "obs/report.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workload/topo_gen.hpp"
#include "workload/workload.hpp"

namespace {

using namespace cicero;
using perfbench::now_s;
using perfbench::Scope;
using perfbench::Spans;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// The metric names, units and directions BENCHMARK.json declares; the
// self-test (run.py --self-test) checks the two agree.
constexpr MetricDef kEndToEnd[] = {
    {"flows_per_s", "1/s", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"sim_setup_p50_ms", "ms", "lower"},
    {"sim_setup_tail_ms", "ms", "lower"},
    {"ctrl_bytes_per_update", "B", "lower"},
    {"switch_cpu_pct", "%", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"failed_frac", "frac", "lower"},
    {"sim_setup.tail_pct", "pct", "higher"},
    {"sim_setup.samples", "count", "higher"},
    {"host.nproc", "count", "higher"},
    {"host.loadavg", "load", "lower"},
    {"host.calib_ms", "ms", "lower"},
    {"workload.gen_s", "s", "lower"},
    {"net.path_us", "us", "lower"},
    {"net.check_ms", "ms", "lower"},
    {"net.est_busy_s", "s", "lower"},
    {"sim.events", "count", "lower"},
    {"sim.events_per_flow", "count", "lower"},
    {"sim.events_per_s", "1/s", "higher"},
    {"sim.timer_ns", "ns", "lower"},
    {"sim.msgs_sent", "count", "lower"},
    {"sim.drop_frac", "frac", "lower"},
    {"sim.est_busy_s", "s", "lower"},
    {"sched.build_us", "us", "lower"},
    {"sched.tracker_ns", "ns", "lower"},
    {"sched.updates_per_flow", "count", "lower"},
    {"sched.est_busy_s", "s", "lower"},
    {"bft.order_us", "us", "lower"},
    {"bft.delivered", "count", "lower"},
    {"bft.msgs_per_delivered", "count", "lower"},
    {"bft.view_changes", "count", "lower"},
    {"bft.order_wait_ms", "ms", "lower"},
    {"bft.est_busy_s", "s", "lower"},
    {"crypto.schnorr_sign_us", "us", "lower"},
    {"crypto.schnorr_verify_us", "us", "lower"},
    {"crypto.partial_sign_us", "us", "lower"},
    {"crypto.partial_verify_us", "us", "lower"},
    {"crypto.aggregate_us", "us", "lower"},
    {"crypto.threshold_verify_us", "us", "lower"},
    {"crypto.dkg_ms", "ms", "lower"},
    {"crypto.schnorr_sign", "count", "lower"},
    {"crypto.schnorr_verify", "count", "lower"},
    {"crypto.partial_sign", "count", "lower"},
    {"crypto.partial_verify", "count", "lower"},
    {"crypto.aggregate", "count", "lower"},
    {"crypto.threshold_verify", "count", "lower"},
    {"crypto.est_busy_s", "s", "lower"},
    {"core.audit.append_us", "us", "lower"},
    {"core.audit.appends", "count", "lower"},
    {"core.audit.est_busy_s", "s", "lower"},
    {"core.messages.encode_MBps", "MB/s", "higher"},
    {"core.messages.decode_MBps", "MB/s", "higher"},
    {"core.messages.est_busy_s", "s", "lower"},
    {"core.updates_sent", "count", "lower"},
    {"core.updates_applied", "count", "lower"},
    {"core.retransmits", "count", "lower"},
    {"core.abandoned", "count", "lower"},
    {"core.rejected", "count", "lower"},
    {"core.apply_ratio", "frac", "higher"},
    {"core.dependency_wait_ms", "ms", "lower"},
    {"core.sign_wait_ms", "ms", "lower"},
    {"core.propagate_wait_ms", "ms", "lower"},
    {"core.peer_signal_wait_ms", "ms", "lower"},
    {"core.apply_wait_ms", "ms", "lower"},
    {"core.retransmit_wait_ms", "ms", "lower"},
    {"obs.report_s", "s", "lower"},
    {"obs.trace_overhead", "frac", "lower"},
    {"obs.trace_coverage", "frac", "higher"},
};

std::uint64_t splitmix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Every random choice of an input set derives from the workload seed and
/// the set's index: the flow set, the WAN chords and the deployment's
/// fault/key RNG.
struct Seeds {
  std::uint64_t flows, chords, deployment;
  Seeds(std::uint64_t seed, std::size_t set)
      : flows(splitmix(seed, 3 * set + 1)),
        chords(splitmix(seed, 3 * set + 2)),
        deployment(splitmix(seed, 3 * set + 3)) {}
};

/// Percentile reported as sim_setup_tail_ms on every workload.
constexpr double kTailPct = 95.0;

struct Spec {
  std::string name;
  std::size_t flows = 0;  ///< per input set
  std::size_t sets = 1;   ///< independent input sets per --trace 0 run
  double rate_per_s = 400.0;  ///< open-loop Poisson arrivals in simulated time
  double loss = 0.0;          ///< uniform per-message loss
  std::function<net::Topology(const Seeds&, bool small)> topology;
  std::function<std::vector<workload::Flow>(const net::Topology&, std::size_t, double,
                                            std::uint64_t)>
      make_flows;
  std::function<core::DeploymentParams()> params;
};

std::vector<workload::Flow> facebook_flows(workload::WorkloadKind kind, const net::Topology& topo,
                                           std::size_t count, double rate, std::uint64_t seed) {
  workload::WorkloadParams wp;
  wp.kind = kind;
  wp.flow_count = count;
  wp.arrival_rate_per_sec = rate;
  wp.seed = seed;
  return workload::WorkloadGenerator(topo, wp).generate();
}

std::vector<Spec> make_specs() {
  std::vector<Spec> specs;

  // The paper's data-center shape at the acceptance scale: 320 switches,
  // one domain, modeled crypto, rack/cluster-local Hadoop traffic at 400
  // flows/s.  Least protocol work per flow, so per-update fixed costs
  // dominate.  Four sets of 2400 flows keep the seed-to-seed spread of the
  // simulated latencies small (one set of 600 flows left the p50 varying
  // by ~10 %, one set of 2400 the p95 by ~13 %).
  Spec ft;
  ft.name = "fattree-hadoop";
  ft.flows = 2400;
  ft.sets = 4;
  ft.topology = [](const Seeds&, bool small) { return workload::fat_tree(small ? 4 : 16); };
  ft.make_flows = [](const net::Topology& t, std::size_t n, double r, std::uint64_t s) {
    return facebook_flows(workload::WorkloadKind::kHadoop, t, n, r, s);
  };
  ft.params = [] {
    core::DeploymentParams dp;
    dp.framework = core::FrameworkKind::kCicero;
    dp.controllers_per_domain = 4;
    dp.real_crypto = false;
    return dp;
  };
  specs.push_back(ft);

  // A 1000-switch WAN, one control plane per region (~32 PBFT groups),
  // uniform traffic over long cross-domain paths, ez-Segway-style
  // decentralized execution and 5 % loss: the event engine, retransmit
  // timers, dedupe windows and long-lived state do most of the work.
  // 100 flows/s keeps the control planes below saturation: at 400 flows/s
  // setup latency grew with the flow count (a growing backlog), so the
  // simulated outputs depended on run length.  The p95 of one set of 300
  // flows varied ~35 % between seeds (the WAN chords differ per set), so
  // four sets are pooled.
  Spec wan;
  wan.name = "wan-lossy";
  wan.flows = 300;
  wan.sets = 4;
  wan.rate_per_s = 100.0;
  wan.loss = 0.05;
  wan.topology = [](const Seeds& seeds, bool small) {
    workload::WanOptions wo;
    wo.seed = seeds.chords;
    wo.domain_per_region = true;
    return workload::wan(small ? 100 : 1000, wo);
  };
  wan.make_flows = [](const net::Topology& t, std::size_t n, double r, std::uint64_t s) {
    return workload::scale_flows(t, n, r, s);
  };
  wan.params = [] {
    core::DeploymentParams dp;
    dp.framework = core::FrameworkKind::kCicero;
    dp.execution_mode = core::ExecutionMode::kDecentralized;
    dp.controllers_per_domain = 4;
    dp.real_crypto = false;
    return dp;
  };
  specs.push_back(wan);

  // One server pod, 7 controllers (f = 2), real SimBLS threshold crypto
  // and P4BFT-style in-network aggregation: the only workload where
  // partial signing, aggregation, threshold verification and the DKG run.
  // Web-server traffic at 150 flows/s: at 400 flows/s the replicas
  // saturate on simulated crypto CPU and the p50 varied ~2x across seeds.
  // Three sets of 600 flows: the p95 of two sets still varied ~12 %
  // between seeds.
  Spec pod;
  pod.name = "pod-realcrypto-innet";
  pod.flows = 600;
  pod.sets = 3;
  pod.rate_per_s = 150.0;
  pod.topology = [](const Seeds&, bool small) {
    net::FabricParams p;
    p.racks_per_pod = small ? 2 : 8;
    p.hosts_per_rack = 3;
    return net::build_pod(p);
  };
  pod.make_flows = [](const net::Topology& t, std::size_t n, double r, std::uint64_t s) {
    return facebook_flows(workload::WorkloadKind::kWebServer, t, n, r, s);
  };
  pod.params = [] {
    core::DeploymentParams dp;
    dp.framework = core::FrameworkKind::kCicero;
    dp.aggregation = core::AggregationMode::kInNetwork;
    dp.controllers_per_domain = 7;
    dp.real_crypto = true;
    return dp;
  };
  specs.push_back(pod);
  return specs;
}

std::size_t flow_count(const Spec& spec, bool small) { return small ? 40 : spec.flows; }

/// Arrivals end at flows / rate.  The margin after them covers a
/// controller's whole retransmission schedule (ack_timeout doubling over
/// update_max_retries resends, 63.5 s at the defaults, after which the
/// update is abandoned) plus 30 s, so an update still retrying under loss
/// is not cut off by the horizon and reported as pending.
sim::SimTime horizon_of(const Spec& spec, std::size_t flows) {
  const core::DeploymentParams dp = spec.params();
  const int resends = static_cast<int>(dp.update_max_retries);
  const double retry_s = sim::to_sec(dp.ack_timeout) * (std::ldexp(1.0, resends + 1) - 1.0);
  return sim::from_sec(static_cast<double>(flows) / spec.rate_per_s + retry_s + 30.0);
}

/// Simulated outputs of one repetition (bit-identical for a given seed and
/// input set).
struct Outputs {
  std::size_t attempted = 0;
  std::size_t completed = 0;
  /// Setup latency of every flow that needed a rule; +inf for a flow that
  /// never completed.
  std::vector<double> setup_ms;
  std::uint64_t southbound = 0;
  std::uint64_t applied = 0;
  double cpu_sum = 0.0;  ///< switch CPU fractions summed over the windows
  std::size_t cpu_windows = 0;
  std::uint64_t digest = 0;
  std::size_t pending = 0;
  std::vector<std::string> violations;
  std::map<std::string, double> layer;  ///< per-layer counts read from the run
};

/// Simulated end-to-end outputs pooled over input sets.
struct Summary {
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t setup_samples = 0;  ///< flows that needed a rule, incomplete ones included
  std::size_t beyond_tail = 0;    ///< samples above the tail percentile
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double q[7] = {};  ///< p25 p50 p75 p90 p95 p98 p99, printed as context
  double ctrl_bytes_per_update = 0.0;
  double switch_cpu_pct = 0.0;
};

struct Rep {
  std::size_t set = 0;
  double gen_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double check_s = 0.0;
  double report_s = 0.0;
  Outputs out;
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Nearest-rank quantile of sorted samples.
double nearest_rank(const std::vector<double>& sorted, double q, std::size_t* beyond) {
  const auto n = sorted.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (beyond != nullptr) *beyond = n - idx - 1;
  return sorted[idx];
}

Outputs collect(core::Deployment& dep) {
  Outputs o;
  // Setup latency from each flow's scheduled arrival (open loop).  A flow
  // that never completed counts as beyond every limit, so a run that loses
  // flows cannot look faster.
  sim::SimTime last_arrival = 0;
  Fnv fnv;
  for (const core::FlowRecord& r : dep.flow_records()) {
    ++o.attempted;
    last_arrival = std::max(last_arrival, r.flow.arrival);
    if (r.completed) ++o.completed;
    if (!r.completed) {
      o.setup_ms.push_back(std::numeric_limits<double>::infinity());
    } else if (!r.rule_reused) {
      o.setup_ms.push_back(sim::to_ms(r.route_ready - r.flow.arrival));
    }
    fnv.add(static_cast<std::uint64_t>(r.flow.arrival));
    fnv.add(static_cast<std::uint64_t>(r.route_ready));
    fnv.add(static_cast<std::uint64_t>(r.completion));
    fnv.add((r.completed ? 1U : 0U) | (r.rule_reused ? 2U : 0U));
  }

  std::size_t appends = 0;
  for (const std::uint32_t id : dep.controller_ids()) {
    o.southbound += dep.controller(id).southbound_bytes();
    appends += dep.controller(id).audit().size();
  }
  for (const net::NodeIndex sw : dep.topology().switches()) {
    o.applied += dep.switch_at(sw).updates_applied();
  }

  // Switch CPU over the arrival span, in 100 ms windows (Fig. 11d).
  const sim::SimTime window = sim::milliseconds(100);
  const sim::SimTime span = (last_arrival / window + 1) * window;
  const std::vector<double> cpu = dep.switch_cpu_windows(window, span);
  for (const double w : cpu) o.cpu_sum += w;
  o.cpu_windows = cpu.size();

  const obs::MetricsRegistry& m = dep.obs().metrics;
  const auto counter = [&m](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  fnv.add(o.southbound);
  fnv.add(o.applied);
  fnv.add(dep.events_processed());
  fnv.add(m.counter_value("net.messages_sent"));
  fnv.add(m.counter_value("net.bytes_sent"));
  o.digest = fnv.value();
  o.pending = dep.pending_updates();

  const obs::CryptoOpCounters& ops = obs::crypto_ops();
  auto& l = o.layer;
  l["core.audit.appends"] = static_cast<double>(appends);
  l["sim.events"] = static_cast<double>(dep.events_processed());
  l["sim.msgs_sent"] = counter("net.messages_sent");
  l["sim.drop_frac"] = l["sim.msgs_sent"] > 0 ? counter("net.messages_dropped") / l["sim.msgs_sent"] : 0.0;
  l["net.bytes_sent"] = counter("net.bytes_sent");
  l["ctrl.events_processed"] = counter("ctrl.events_processed");
  l["sched.updates_released"] = counter("sched.updates_released");
  l["bft.delivered"] = counter("bft.delivered");
  l["bft.messages"] = counter("bft.preprepares") + counter("bft.prepares") + counter("bft.commits");
  l["bft.view_changes"] = counter("bft.view_changes");
  l["core.updates_sent"] = counter("ctrl.updates_sent") + counter("ctrl.manifests_sent");
  l["core.updates_applied"] = static_cast<double>(o.applied);
  l["core.retransmits"] = counter("ctrl.update_retransmits");
  l["core.abandoned"] = counter("ctrl.updates_abandoned");
  l["core.rejected"] = counter("switch.updates_rejected");
  l["crypto.schnorr_sign"] = static_cast<double>(ops.schnorr_sign.load());
  l["crypto.schnorr_verify"] = static_cast<double>(ops.schnorr_verify.load());
  l["crypto.partial_sign"] = static_cast<double>(ops.partial_sign.load());
  l["crypto.partial_verify"] = static_cast<double>(ops.partial_verify.load());
  l["crypto.aggregate"] = static_cast<double>(ops.aggregate.load());
  l["crypto.threshold_verify"] = static_cast<double>(ops.threshold_verify.load());
  return o;
}

/// Pools the simulated outputs of input sets: percentiles over all their
/// flows, bytes over all their updates, CPU over all their windows.
Summary summarize(const std::vector<const Outputs*>& sets, sim::SimTime horizon) {
  Summary s;
  const double cap_ms = sim::to_ms(horizon);
  std::vector<double> samples;
  std::uint64_t southbound = 0, applied = 0;
  double cpu_sum = 0.0;
  std::size_t cpu_windows = 0;
  for (const Outputs* o : sets) {
    s.attempted += o->attempted;
    s.completed += o->completed;
    samples.insert(samples.end(), o->setup_ms.begin(), o->setup_ms.end());
    southbound += o->southbound;
    applied += o->applied;
    cpu_sum += o->cpu_sum;
    cpu_windows += o->cpu_windows;
  }
  std::sort(samples.begin(), samples.end());
  s.setup_samples = samples.size();
  if (!samples.empty()) {
    s.p50_ms = std::min(cap_ms, nearest_rank(samples, 0.5, nullptr));
    s.tail_ms = std::min(cap_ms, nearest_rank(samples, kTailPct / 100.0, &s.beyond_tail));
    const double qs[7] = {0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99};
    for (int i = 0; i < 7; ++i) s.q[i] = std::min(cap_ms, nearest_rank(samples, qs[i], nullptr));
  }
  s.ctrl_bytes_per_update =
      applied == 0 ? 0.0 : static_cast<double>(southbound) / static_cast<double>(applied);
  s.switch_cpu_pct =
      cpu_windows == 0 ? 0.0 : 100.0 * cpu_sum / static_cast<double>(cpu_windows);
  return s;
}

struct Inputs {
  net::Topology topo;
  std::vector<workload::Flow> flows;
};

Inputs make_inputs(const Spec& spec, const Seeds& seeds, bool small) {
  Inputs in{spec.topology(seeds, small), {}};
  in.flows = spec.make_flows(in.topo, flow_count(spec, small), spec.rate_per_s, seeds.flows);
  return in;
}

core::DeploymentParams params_of(const Spec& spec, const Seeds& seeds) {
  core::DeploymentParams dp = spec.params();
  dp.seed = seeds.deployment;
  dp.threads = 1;
  return dp;
}

struct SetUp {
  std::unique_ptr<core::Deployment> dep;
  double gen_s = 0.0;  ///< topology + flow generation
  double total_s = 0.0;
};

/// Set-up as a user pays it: topology and flows, the Deployment (PKI, key
/// shares, planes, switch runtimes), fault configuration and injection.
SetUp set_up(const Spec& spec, const Seeds& seeds, bool small, Spans& spans) {
  SetUp su;
  const double t0 = now_s();
  Scope setup(spans, "setup", "core");
  Inputs in;
  {
    Scope s(spans, "workload.generate", "workload");
    in = make_inputs(spec, seeds, small);
    su.gen_s = now_s() - t0;
  }
  {
    Scope s(spans, "Deployment::Deployment", "core");
    su.dep = std::make_unique<core::Deployment>(std::move(in.topo), params_of(spec, seeds));
    if (spec.loss > 0.0) su.dep->faults().set_uniform_loss(spec.loss);
  }
  {
    Scope s(spans, "Deployment::inject", "core");
    su.dep->inject(in.flows);
  }
  su.total_s = now_s() - t0;
  return su;
}

Rep run_rep(const Spec& spec, std::uint64_t seed, std::size_t set, bool small, Spans& spans) {
  Rep rep;
  rep.set = set;
  const sim::SimTime horizon = horizon_of(spec, flow_count(spec, small));
  SetUp su = set_up(spec, Seeds(seed, set), small, spans);
  rep.gen_s = su.gen_s;
  rep.setup_s = su.total_s;
  core::Deployment* dep = su.dep.get();

  obs::crypto_ops().reset();
  // The run span's own bookkeeping falls inside run_s, so the traced
  // run time includes the tracing cost.
  const double r0 = now_s();
  {
    Scope s(spans, "Deployment::run", "core");
    dep->run(horizon);
  }
  rep.run_s = now_s() - r0;
  rep.out = collect(*dep);
  {
    Scope s(spans, "net::check_consistency", "net");
    const double c0 = now_s();
    std::vector<net::FlowMatch> matches;
    for (const core::FlowRecord& r : dep->flow_records()) {
      if (r.completed) matches.push_back({r.flow.src_host, r.flow.dst_host});
    }
    rep.out.violations = net::check_consistency(dep->topology(), dep->table_map(), matches);
    rep.check_s = now_s() - c0;
  }
  if (spans.enabled()) {
    Scope s(spans, "obs::RunReport", "obs");
    const double r0 = now_s();
    obs::RunReport report("perfbench");
    report.add_metrics(dep->obs().metrics);
    report.add_crypto_ops(obs::crypto_ops());
    report.add_cdf("setup_ms", dep->setup_cdf());
    report.add_cdf("completion_ms", dep->completion_cdf());
    const obs::CritPath::Summary summary = dep->obs().critpath.summarize();
    report.add_critical_path("run", summary);
    const std::string json = report.to_json();
    rep.report_s = now_s() - r0;
    if (json.empty()) rep.out.violations.push_back("empty run report");
    const double done = summary.completed == 0 ? 1.0 : static_cast<double>(summary.completed);
    const char* waits[] = {"bft.order_wait_ms",        "core.dependency_wait_ms",
                           "core.sign_wait_ms",        "core.propagate_wait_ms",
                           "core.peer_signal_wait_ms", "core.apply_wait_ms",
                           "core.retransmit_wait_ms"};
    static_assert(std::size(waits) == obs::kCritPhaseCount);
    for (std::size_t p = 0; p < obs::kCritPhaseCount; ++p) {
      rep.out.layer[waits[p]] = summary.phases[p].total_ms / done;
    }
  }
  return rep;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set size of this process (VmHWM) in MiB.
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

double loadavg1() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return -1.0;
  double l = -1.0;
  if (std::fscanf(f, "%lf", &l) != 1) l = -1.0;
  std::fclose(f);
  return l;
}

/// A fixed integer loop; its time shows how fast this host runs right now.
double calibration_ms() {
  std::vector<double> t;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_s();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    t.push_back((now_s() - t0) * 1e3);
  }
  return median(t);
}

void usage() {
  std::fprintf(stderr,
               "usage: cicero_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--small] [--trace-out PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--small") {
      small = true;
    } else {
      usage();
      return 2;
    }
  }
  const std::vector<Spec> specs = make_specs();
  const auto spec_it = std::find_if(specs.begin(), specs.end(),
                                    [&](const Spec& s) { return s.name == workload_name; });
  if (spec_it == specs.end() || !(seconds > 0.0)) {
    usage();
    return 2;
  }
  const Spec& spec = *spec_it;
  const std::size_t sets = trace ? 1 : spec.sets;

  const double calib = calibration_ms();
  const unsigned nproc = std::thread::hardware_concurrency();
  const double load = loadavg1();
  std::printf("# workload %s seed %llu sets %zu flows/set %zu trace %d small %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed), sets,
              flow_count(spec, small), trace ? 1 : 0, small ? 1 : 0);
  std::printf("# host nproc=%u loadavg=%.2f calib_ms=%.3f\n", nproc, load, calib);

  // --- repetitions -------------------------------------------------------
  // Untraced repetitions cycle through the input sets, each set at least
  // once, then until the budget is spent; with --trace 1 each is followed
  // by a traced one of the same set, so both sides see the same host
  // conditions.  The loop stops when the next repetition would end more
  // than half a repetition past the budget.
  Spans untraced_spans(false);
  Spans spans(trace);
  std::vector<Rep> untraced, traced;
  const double start = now_s();
  const auto more = [&] {
    const double elapsed = now_s() - start;
    const double per_rep = elapsed / static_cast<double>(untraced.size() + traced.size());
    return elapsed + 0.5 * per_rep < seconds;
  };
  double rss = 0.0;
  do {
    const std::size_t set = untraced.size() % sets;
    untraced.push_back(run_rep(spec, seed, set, small, untraced_spans));
    // The footprint of one set-up and run; later repetitions only add
    // allocator fragmentation that depends on how many fit the budget.
    if (untraced.size() == 1) rss = peak_rss_mb();
    if (trace) {
      spans.set_request(static_cast<std::uint32_t>(traced.size() + 1));
      traced.push_back(run_rep(spec, seed, set, small, spans));
    }
  } while (untraced.size() < sets || more());
  std::vector<double> setups;
  for (const Rep& r : untraced) setups.push_back(r.setup_s);
  if (!trace) {
    constexpr std::size_t kMinSetups = 15;
    while (setups.size() < kMinSetups) {
      const Seeds set_seeds(seed, setups.size() % sets);
      setups.push_back(set_up(spec, set_seeds, small, untraced_spans).total_s);
    }
  }

  // --- output checks -----------------------------------------------------
  bool correct = true;
  std::vector<const Rep*> first(sets, nullptr);  ///< each set's first repetition
  std::vector<const Rep*> all;
  for (const Rep& r : untraced) all.push_back(&r);
  for (const Rep& r : traced) all.push_back(&r);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Rep& r = *all[i];
    const bool is_traced = i >= untraced.size();
    std::printf("# rep %zu%s set %zu setup_s=%.6f run_s=%.6f flows_per_s=%.3f digest=%016llx\n",
                i, is_traced ? " traced" : "", r.set, r.setup_s, r.run_s,
                static_cast<double>(r.out.completed) / r.run_s,
                static_cast<unsigned long long>(r.out.digest));
    if (first[r.set] == nullptr) {
      first[r.set] = &r;
    } else if (r.out.digest != first[r.set]->out.digest) {
      std::printf("# CHECK FAILED: rep %zu digest differs from set %zu's first repetition\n", i,
                  r.set);
      correct = false;
    }
    if (r.out.attempted != flow_count(spec, small)) {
      std::printf("# CHECK FAILED: rep %zu attempted %zu flows, expected %zu\n", i,
                  r.out.attempted, flow_count(spec, small));
      correct = false;
    }
    if (r.out.pending != 0) {
      std::printf("# CHECK FAILED: rep %zu left %zu updates pending at the horizon\n", i,
                  r.out.pending);
      correct = false;
    }
    for (const std::string& v : r.out.violations) {
      std::printf("# CHECK FAILED: rep %zu consistency: %s\n", i, v.c_str());
      correct = false;
    }
  }
  std::vector<const Outputs*> set_outputs;
  for (const Rep* r : first) set_outputs.push_back(&r->out);
  const Summary sum = summarize(set_outputs, horizon_of(spec, flow_count(spec, small)));
  std::printf("# sim_setup tail=p%.1f samples=%zu beyond_tail=%zu completed=%zu/%zu\n",
              kTailPct, sum.setup_samples, sum.beyond_tail, sum.completed, sum.attempted);
  std::printf("# sim_setup_ms p25=%.3f p50=%.3f p75=%.3f p90=%.3f p95=%.3f p98=%.3f p99=%.3f\n",
              sum.q[0], sum.q[1], sum.q[2], sum.q[3], sum.q[4], sum.q[5], sum.q[6]);
  if (sum.beyond_tail < 10) {
    std::printf("# note: fewer than 10 samples beyond p%.1f\n", kTailPct);
  }
  for (std::size_t set = 0; set < sets; ++set) {
    std::printf("digest %zu %016llx\n", set,
                static_cast<unsigned long long>(first[set]->out.digest));
  }

  // --- metrics -----------------------------------------------------------
  std::map<std::string, double> metrics;
  const auto run_median = [](const std::vector<Rep>& reps) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.run_s);
    return median(v);
  };
  const MetricDef* defs = kEndToEnd;
  std::size_t n_defs = std::size(kEndToEnd);
  if (!trace) {
    // All flows of all sets over their run time; a set repeated within the
    // budget contributes the median of its repetitions' run times.
    double run_s = 0.0;
    for (std::size_t set = 0; set < sets; ++set) {
      std::vector<double> v;
      for (const Rep& r : untraced) {
        if (r.set == set) v.push_back(r.run_s);
      }
      run_s += median(v);
    }
    metrics["flows_per_s"] = static_cast<double>(sum.completed) / run_s;
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = rss;
    metrics["sim_setup_p50_ms"] = sum.p50_ms;
    metrics["sim_setup_tail_ms"] = sum.tail_ms;
    metrics["ctrl_bytes_per_update"] = sum.ctrl_bytes_per_update;
    metrics["switch_cpu_pct"] = sum.switch_cpu_pct;
  } else {
    defs = kPerLayer;
    n_defs = std::size(kPerLayer);
    const Rep& tr = traced.front();
    const auto& l = tr.out.layer;
    const double flows = static_cast<double>(sum.attempted);
    const double run_s = run_median(traced);
    const Seeds seeds(seed, 0);
    Inputs in = make_inputs(spec, seeds, small);
    const core::DeploymentParams dp = params_of(spec, seeds);
    perfbench::ReplayInputs ri;
    ri.topo = &in.topo;
    ri.flows = &in.flows;
    ri.controllers = dp.controllers_per_domain;
    ri.real_crypto = dp.real_crypto;
    ri.ack_timeout = dp.ack_timeout;
    ri.small = small;
    perfbench::ReplayCosts c;
    {
      Scope s(spans, "replay", "replay");
      c = perfbench::replay_ladder(ri, spans);
    }
    for (const auto& [k, v] : l) metrics[k] = v;
    metrics["failed_frac"] = static_cast<double>(sum.attempted - sum.completed) / flows;
    metrics["sim_setup.tail_pct"] = kTailPct;
    metrics["sim_setup.samples"] = static_cast<double>(sum.setup_samples);
    metrics["host.nproc"] = nproc;
    metrics["host.loadavg"] = load;
    metrics["host.calib_ms"] = calib;
    std::vector<double> gen;
    for (const Rep& r : traced) gen.push_back(r.gen_s);
    metrics["workload.gen_s"] = median(gen);
    metrics["net.path_us"] = c.path_us;
    std::vector<double> check;
    for (const Rep& r : traced) check.push_back(r.check_s);
    metrics["net.check_ms"] = 1e3 * median(check);
    metrics["sim.events_per_flow"] = l.at("sim.events") / flows;
    metrics["sim.events_per_s"] = l.at("sim.events") / run_s;
    metrics["sim.timer_ns"] = c.timer_ns;
    metrics["sched.build_us"] = c.build_us;
    metrics["sched.tracker_ns"] = c.tracker_ns;
    metrics["sched.updates_per_flow"] = l.at("core.updates_applied") / flows;
    metrics["bft.order_us"] = c.order_us;
    metrics["bft.msgs_per_delivered"] =
        l.at("bft.delivered") > 0 ? l.at("bft.messages") / l.at("bft.delivered") : 0.0;
    metrics["crypto.schnorr_sign_us"] = c.schnorr_sign_us;
    metrics["crypto.schnorr_verify_us"] = c.schnorr_verify_us;
    metrics["crypto.partial_sign_us"] = c.partial_sign_us;
    metrics["crypto.partial_verify_us"] = c.partial_verify_us;
    metrics["crypto.aggregate_us"] = c.aggregate_us;
    metrics["crypto.threshold_verify_us"] = c.threshold_verify_us;
    metrics["crypto.dkg_ms"] = c.dkg_ms;
    metrics["core.audit.append_us"] = c.append_us;
    metrics["core.messages.encode_MBps"] = c.encode_MBps;
    metrics["core.messages.decode_MBps"] = c.decode_MBps;
    metrics["core.apply_ratio"] = l.at("core.updates_sent") > 0
                                      ? l.at("core.updates_applied") / l.at("core.updates_sent")
                                      : 0.0;
    std::vector<double> rep_s;
    for (const Rep& r : traced) rep_s.push_back(r.report_s);
    metrics["obs.report_s"] = median(rep_s);
    metrics["obs.trace_overhead"] = run_s / run_median(untraced) - 1.0;

    // Estimated busy time inside Deployment::run: the run's operation
    // counts times the replayed per-operation costs.  Audit appends sign
    // with Schnorr, so those signatures are charged to core.audit only.
    const double audit_busy = l.at("core.audit.appends") * c.append_us * 1e-6;
    const double other_signs =
        std::max(0.0, l.at("crypto.schnorr_sign") - l.at("core.audit.appends"));
    const double crypto_busy =
        1e-6 * (other_signs * c.schnorr_sign_us +
                l.at("crypto.schnorr_verify") * c.schnorr_verify_us +
                l.at("crypto.partial_sign") * c.partial_sign_us +
                l.at("crypto.partial_verify") * c.partial_verify_us +
                l.at("crypto.aggregate") * c.aggregate_us +
                l.at("crypto.threshold_verify") * c.threshold_verify_us);
    // Every message is encoded once by its sender and decoded once.
    const double codec_busy = l.at("net.bytes_sent") / 1e6 *
                              (1.0 / c.encode_MBps + 1.0 / c.decode_MBps);
    const double sched_busy = 1e-6 * l.at("ctrl.events_processed") * c.build_us +
                              1e-9 * l.at("sched.updates_released") * c.tracker_ns;
    // bft.delivered counts one delivery per replica; order_us is per
    // request ordered by the whole group.
    const double bft_busy =
        1e-6 * l.at("bft.delivered") / static_cast<double>(ri.controllers) * c.order_us;
    const double sim_busy = 1e-9 * l.at("sim.events") * c.timer_ns;
    const double net_busy = 1e-6 * flows * c.path_us;
    metrics["core.audit.est_busy_s"] = audit_busy;
    metrics["crypto.est_busy_s"] = crypto_busy;
    metrics["core.messages.est_busy_s"] = codec_busy;
    metrics["sched.est_busy_s"] = sched_busy;
    metrics["bft.est_busy_s"] = bft_busy;
    metrics["sim.est_busy_s"] = sim_busy;
    metrics["net.est_busy_s"] = net_busy;
    metrics["obs.trace_coverage"] =
        (audit_busy + crypto_busy + codec_busy + sched_busy + bft_busy + sim_busy + net_busy) /
        run_s;
    if (!trace_out.empty() && !spans.write_chrome_trace(trace_out)) {
      std::printf("# CHECK FAILED: could not write %s\n", trace_out.c_str());
      correct = false;
    }
  }

  std::string json = "{";
  for (std::size_t i = 0; i < n_defs; ++i) {
    const MetricDef& d = defs[i];
    const auto it = metrics.find(d.name);
    if (it == metrics.end() || !std::isfinite(it->second)) {
      std::printf("# CHECK FAILED: metric %s missing\n", d.name);
      correct = false;
      continue;
    }
    std::printf("metric %-30s %.6g %s %s\n", d.name, it->second, d.unit, d.better);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", d.name, it->second, d.unit);
    json += buf;
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", sum.attempted, sum.attempted - sum.completed,
              json.c_str());
  return 0;
}
