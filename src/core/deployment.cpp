#include "core/deployment.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>
#include <tuple>

#include "util/logging.hpp"
#include "workload/topo_gen.hpp"

namespace cicero::core {

namespace {
constexpr const char* kLog = "deploy";
}

Delivery delivery_of(const DeploymentParams& params) {
  const bool decentralized = params.execution_mode == ExecutionMode::kDecentralized;
  const bool frost = params.backend == ThresholdBackend::kFrost;
  if (params.aggregation == AggregationMode::kInNetwork) {
    if (params.framework != FrameworkKind::kCicero) {
      throw std::invalid_argument(
          "Deployment: in-network aggregation extends the kCicero framework "
          "(the baselines have no partials to aggregate; kCiceroAgg already "
          "aggregates at a controller)");
    }
    if (decentralized) {
      throw std::invalid_argument(
          "Deployment: in-network aggregation is controller-driven only "
          "(decentralized manifests already aggregate at their own switch)");
    }
    if (frost) {
      throw std::invalid_argument(
          "Deployment: in-network aggregation requires the kSimBls backend "
          "(FROST's signing session needs a controller coordinator)");
    }
    return Delivery::kInNetwork;
  }
  if (params.framework == FrameworkKind::kCiceroAgg) {
    if (decentralized) {
      throw std::invalid_argument(
          "Deployment: decentralized execution aggregates manifests at the "
          "switch, which controller aggregation bypasses");
    }
    return Delivery::kControllerAgg;
  }
  if (frost) {
    throw std::invalid_argument("Deployment: the FROST backend requires controller aggregation");
  }
  return decentralized ? Delivery::kDecentralized : Delivery::kDirect;
}

Deployment::Deployment(net::Topology topology, DeploymentParams params)
    : topo_(std::move(topology)), params_(params), delivery_(delivery_of(params)),
      obs_(params.trace), drbg_(params.seed),
      crypto_(params.real_crypto, params.backend) {
  setup_parallel();
  if (psim_ == nullptr) {
    // The trace/log clocks read the sequential simulator; in parallel
    // mode there is no single "now", so neither hook is installed
    // (tracing is rejected in setup_parallel, logging prints untimed).
    obs_.trace.set_clock([this] { return sim_.now(); });
    util::set_log_clock([this] { return sim_.now(); }, this);
  }
  net_ = std::make_unique<sim::NetworkSim>(sim_);
  net_->set_obs(psim_ == nullptr ? &obs_ : nullptr);
  net_->set_latency_fn([this](sim::NodeId a, sim::NodeId b) { return latency(a, b); });
  // The fault seed is derived from (not equal to) the workload seed so the
  // two random streams never alias; inert until a fault is configured.
  faults_ = std::make_unique<sim::FaultInjector>(sim_, *net_,
                                                params_.seed ^ 0xFA17FA17FA17FA17ULL);
  build_nodes();
  if (psim_ != nullptr) {
    std::vector<obs::Observability*> shard_obs;
    for (const auto& o : shard_obs_) shard_obs.push_back(o.get());
    net_->enable_parallel(*psim_, node_shard_, shard_obs);
    faults_->enable_sharded(psim_->shards(), node_shard_);
  }
}

void Deployment::setup_parallel() {
  if (params_.threads <= 1) return;
  if (params_.trace) {
    throw std::invalid_argument("Deployment: tracing requires threads == 1");
  }
  // One global control plane means every switch talks to one domain —
  // nothing to shard; likewise a single-domain topology.  Both keep the
  // sequential fast path (psim_ stays null).
  if (global_plane(params_.framework)) return;
  const workload::DomainPartition part = workload::partition_domains(topo_, params_.threads);
  if (part.shards <= 1) return;
  shard_of_domain_ = part.shard_of;
  const sim::SimTime lookahead = min_cross_shard_latency();
  if (lookahead <= 0 || lookahead == sim::kNever) {
    shard_of_domain_.clear();
    return;
  }
  sim::ParallelSim::Options opt;
  opt.shards = part.shards;
  opt.lookahead = lookahead;
  psim_ = std::make_unique<sim::ParallelSim>(opt);
  shard_obs_.reserve(part.shards);
  for (std::uint32_t s = 0; s < part.shards; ++s) {
    shard_obs_.push_back(std::make_unique<obs::Observability>());
  }
  flow_shards_ = std::vector<FlowShard>(part.shards);
  CICERO_LOG_INFO(kLog, "parallel mode: %u shards over %zu domains, lookahead %lld ns",
                  part.shards, shard_of_domain_.size(),
                  static_cast<long long>(lookahead));
}

sim::SimTime Deployment::min_cross_shard_latency() const {
  // Latency classification only looks at (dc, pod, is_switch), so the
  // scan runs over distinct placement classes, not node pairs.
  struct Cls {
    std::uint32_t shard;
    Placement2 p;
  };
  std::vector<Cls> classes;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, bool>> seen;
  const auto add = [&](std::uint32_t shard, const Placement2& p) {
    if (seen.insert({shard, p.dc, p.pod, p.is_switch}).second) classes.push_back({shard, p});
  };
  for (const net::NodeIndex sw : topo_.switches()) {
    const auto& n = topo_.node(sw);
    add(shard_of_domain_.at(n.domain), Placement2{n.placement.dc, n.placement.pod, true});
  }
  for (const net::DomainId d : topo_.domains()) {
    const net::Placement p = plane_placement(d);
    add(shard_of_domain_.at(d), Placement2{p.dc, p.pod, false});
  }
  sim::SimTime best = sim::kNever;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    for (std::size_t j = i + 1; j < classes.size(); ++j) {
      if (classes[i].shard == classes[j].shard) continue;
      best = std::min(best, latency_between(classes[i].p, classes[j].p));
    }
  }
  return best;
}

Deployment::~Deployment() { util::clear_log_clock(this); }

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

void Deployment::build_nodes() {
  // Switch endpoints + PKI keys.
  for (const net::NodeIndex sw : topo_.switches()) {
    const sim::NodeId node = net_->add_node("sw:" + topo_.node(sw).name);
    switch_nodes_[sw] = node;
    node_shard_.push_back(shard_of_domain(topo_.node(sw).domain));
    const auto& p = topo_.node(sw).placement;
    node_place_.push_back(Placement2{p.dc, p.pod, true});
    if (obs_.trace.enabled()) {
      obs_.trace.set_process_name(node, net_->node_name(node));
      obs_.trace.set_thread_name(node, obs::kTidMain, "switch");
    }
  }

  // Control planes: per topology domain for Cicero; one global plane for
  // the centralized and crash-tolerant baselines.
  const bool global = global_plane(params_.framework);
  if (global) {
    build_plane(0);
  } else {
    for (const net::DomainId d : topo_.domains()) build_plane(d);
  }

  // Switch runtimes (need the planes' keys, so after build_plane).
  for (const net::NodeIndex sw : topo_.switches()) {
    const net::DomainId d = global ? 0 : topo_.node(sw).domain;
    AggregatorNotifyMsg view = switch_view(d);

    SwitchRuntime::Config cfg;
    cfg.topo_index = sw;
    cfg.node = switch_nodes_.at(sw);
    cfg.framework = params_.framework;
    cfg.costs = params_.costs;
    cfg.key = crypto_.switch_key(drbg_);
    cfg.group_pk = planes_.at(d).group_pk;
    cfg.quorum = view.quorum;
    cfg.controllers = std::move(view.controllers);
    cfg.aggregator = view.aggregator;
    cfg.delivery = delivery_;
    cfg.switch_directory = &switch_nodes_;
    cfg.crypto = &crypto_;
    cfg.domain = d;
    cfg.obs = obs_for_domain(d);
    crypto_.pki().register_origin(sw, cfg.key.pk);
    auto runtime = std::make_unique<SwitchRuntime>(sim_for_domain(d), *net_, std::move(cfg));
    runtime->add_applied_observer(
        [this, sw](const sched::Update& u) { on_switch_applied(sw, u); });
    net_->set_handler(switch_nodes_.at(sw),
                      [rt = runtime.get()](sim::NodeId from, const util::Bytes& wire) {
                        rt->handle_message(from, wire);
                      });
    switches_[sw] = std::move(runtime);
  }

  // Initial in-network aggregator designation (needs the switch runtimes).
  if (delivery_ == Delivery::kInNetwork) {
    for (const net::DomainId d : topo_.domains()) designate_innet_aggregator(d);
  }

  // Controllers (after switches and all planes exist).
  for (const auto& [d, plane] : planes_) {
    for (const auto& m : plane.members) spawn_controller(m.id);
  }
}

void Deployment::spawn_controller(std::uint32_t id) {
  const net::DomainId domain = ctrl_configs_.at(id).domain;
  auto ctrl = std::make_unique<Controller>(
      sim_for_domain(domain), *net_, ctrl_configs_.at(id),
      Controller::Environment{&topo_, &scheduler_, &crypto_, &switch_nodes_, &planes_});
  ctrl->set_on_membership([this, domain](const Event& e) { run_membership_change(domain, e); });
  net_->set_handler(ctrl->node(), [c = ctrl.get()](sim::NodeId from, const util::Bytes& wire) {
    c->handle_message(from, wire);
  });
  controllers_[id] = std::move(ctrl);
}

std::uint32_t Deployment::provision_controller(net::DomainId domain,
                                               const net::Placement& placement) {
  const std::uint32_t id = next_ctrl_id_++;
  const sim::NodeId node = net_->add_node("ctrl:" + std::to_string(id));
  node_shard_.push_back(shard_of_domain(domain));
  node_place_.push_back(Placement2{placement.dc, placement.pod, false});
  Controller::Config& cfg = ctrl_configs_[id];
  cfg.id = id;
  cfg.domain = domain;
  cfg.framework = params_.framework;
  cfg.delivery = delivery_;
  cfg.costs = params_.costs;
  cfg.node = node;
  // Controller keys are real in both crypto modes: they sign the audit
  // log's checkpoints.
  cfg.key = crypto::SchnorrKeyPair::generate(drbg_);
  cfg.nonce_seed = params_.seed ^ (0x9E3779B97F4A7C15ULL * (id + 1));
  cfg.ack_timeout = params_.ack_timeout;
  cfg.update_max_retries = params_.update_max_retries;
  cfg.obs = obs_for_domain(domain);
  crypto_.pki().register_origin(kControllerOriginBase + id, cfg.key.pk);
  if (obs_.trace.enabled()) {
    obs_.trace.set_process_name(node, net_->node_name(node));
    obs_.trace.set_thread_name(node, obs::kTidMain, "controller");
    obs_.trace.set_thread_name(node, obs::kTidBft, "bft");
    obs_.trace.set_thread_name(node, obs::kTidCrypto, "crypto");
  }
  return id;
}

std::vector<net::NodeIndex> Deployment::plane_switches(net::DomainId d) const {
  return global_plane(params_.framework) ? topo_.switches() : topo_.switches_in_domain(d);
}

net::Placement Deployment::plane_placement(net::DomainId d) const {
  const auto sws = plane_switches(d);
  return sws.empty() ? net::Placement{} : topo_.node(sws.front()).placement;
}

void Deployment::build_plane(net::DomainId domain) {
  const std::size_t n = params_.framework == FrameworkKind::kCentralized
                            ? 1
                            : params_.controllers_per_domain;
  const net::Placement placement = plane_placement(domain);
  // Ids are provisioned in ascending order, so the list is sorted by id.
  Controller::Plane& plane = planes_[domain];
  for (std::size_t i = 0; i < n; ++i) {
    plane.members.push_back(member_info(provision_controller(domain, placement)));
  }

  // Threshold key material: share index = controller id + 1.
  std::vector<crypto::ShareIndex> indices;
  for (const auto& m : plane.members) indices.push_back(m.id + 1);
  auto keys = crypto_.deal_plane(indices, plane.quorum(), threshold_signed(params_.framework),
                                 drbg_);
  plane.group_pk = keys.group_pk;
  plane.verification_shares = std::move(keys.verification_shares);
  for (std::size_t i = 0; i < n; ++i) ctrl_configs_.at(plane.members[i].id).share = keys.shares[i];
}

Controller::MemberInfo Deployment::member_info(std::uint32_t id) const {
  const Controller::Config& cfg = ctrl_configs_.at(id);
  return Controller::MemberInfo{id, cfg.node, cfg.key.pk};
}

sim::SimTime Deployment::latency(sim::NodeId a, sim::NodeId b) const {
  if (a >= node_place_.size() || b >= node_place_.size()) {
    return params_.costs.ctrl_switch_latency;
  }
  return latency_between(node_place_[a], node_place_[b]);
}

sim::SimTime Deployment::latency_between(const Placement2& pa, const Placement2& pb) const {
  if (pa.dc != pb.dc) {
    // WAN ring distance scales the cross-DC latency.
    const std::uint32_t dcs = static_cast<std::uint32_t>(topo_.domains().size()) + 2;
    const std::uint32_t d = pa.dc > pb.dc ? pa.dc - pb.dc : pb.dc - pa.dc;
    const std::uint32_t ring = std::min(d, dcs > d ? dcs - d : d);
    return params_.costs.cross_dc_latency * std::max<std::uint32_t>(1, ring);
  }
  if (pa.pod != pb.pod) return params_.costs.cross_pod_latency;
  if (pa.is_switch || pb.is_switch) return params_.costs.ctrl_switch_latency;
  return params_.costs.ctrl_ctrl_latency;
}

std::vector<std::uint32_t> Deployment::controller_ids() const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, c] : controllers_) out.push_back(id);
  return out;
}

std::vector<std::uint32_t> Deployment::domain_controller_ids(net::DomainId d) const {
  std::vector<std::uint32_t> ids;
  const auto it = planes_.find(d);
  if (it == planes_.end()) return ids;
  for (const auto& m : it->second.members) ids.push_back(m.id);
  return ids;
}

void Deployment::set_controller_fault(std::uint32_t id, ControllerFault fault) {
  controllers_.at(id)->set_fault(fault);
}

void Deployment::fail_link(net::NodeIndex a, net::NodeIndex b) {
  topo_.set_link_up(topo_.link_between(a, b), false);
  for (const net::NodeIndex side : {a, b}) {
    const auto it = switches_.find(side);
    if (it != switches_.end()) {
      it->second->report_link_failure(side == a ? b : a);
    }
  }
}

void Deployment::restore_link(net::NodeIndex a, net::NodeIndex b) {
  topo_.set_link_up(topo_.link_between(a, b), true);
}

void Deployment::crash_switch(net::NodeIndex sw) {
  switches_.at(sw)->crash();
  faults_->set_node_down(switch_nodes_.at(sw), true);
  if (delivery_ == Delivery::kInNetwork) designate_innet_aggregator(topo_.node(sw).domain);
}

void Deployment::recover_switch(net::NodeIndex sw) {
  faults_->set_node_down(switch_nodes_.at(sw), false);
  switches_.at(sw)->recover();
  if (delivery_ == Delivery::kInNetwork) designate_innet_aggregator(topo_.node(sw).domain);
}

net::NodeIndex Deployment::innet_aggregator_switch(net::DomainId d) const {
  const auto it = planes_.find(d);
  return it == planes_.end() ? net::kNoNode : it->second.innet_aggregator;
}

// The replicas read the designation live from the plane, which models the
// management-plane routing change a real deployment would push; their ack
// timers cover any update in flight at the old aggregator (retransmissions
// escalate to full bodies, DESIGN.md §16).
void Deployment::designate_innet_aggregator(net::DomainId d) {
  // switches_in_domain returns ascending topology indices, so the first
  // live switch IS the deterministic designation.  Any switch can serve:
  // the threshold signature, not the aggregator's identity, carries the
  // update's authority (DESIGN.md §16).
  const auto sws = topo_.switches_in_domain(d);
  const auto live = std::find_if(sws.begin(), sws.end(),
                                 [this](net::NodeIndex sw) { return !switches_.at(sw)->down(); });
  planes_.at(d).innet_aggregator = live == sws.end() ? net::kNoNode : *live;
}

std::size_t Deployment::pending_updates() const {
  // Current members only: silenced ex-members don't count.
  std::size_t pending = 0;
  for (const auto& [d, plane] : planes_) {
    for (const auto& m : plane.members) pending += controllers_.at(m.id)->tracker().pending();
  }
  return pending;
}

// ---------------------------------------------------------------------------
// Flow driver
// ---------------------------------------------------------------------------

void Deployment::inject(const std::vector<workload::Flow>& flows) {
  const std::size_t base = records_.size();
  // Arrival times are relative to the injection instant, so workloads can
  // be injected into an already-running deployment.
  const sim::SimTime t0 = psim_ != nullptr ? psim_->shard(0).now() : sim_.now();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    FlowRecord rec;
    rec.flow = flows[i];
    rec.flow.arrival += t0;
    records_.push_back(rec);
    const std::size_t idx = base + i;
    // Every flow event (arrival, readiness, teardown) runs on the shard of
    // its ingress switch's domain so the flow driver never races: each
    // FlowShard has exactly one writer thread.
    const net::NodeIndex ingress_sw = topo_.host_tor(records_[idx].flow.src_host);
    const std::uint32_t ss = shard_of_domain(topo_.node(ingress_sw).domain);
    sim::Simulator& ssim = psim_ != nullptr ? psim_->shard(ss) : sim_;
    ssim.at(records_[idx].flow.arrival, [this, idx, ss] {
      sim::Simulator& ssim = psim_ != nullptr ? psim_->shard(ss) : sim_;
      FlowRecord& r = records_[idx];
      const net::FlowMatch match{r.flow.src_host, r.flow.dst_host};
      const net::NodeIndex ingress = topo_.host_tor(r.flow.src_host);
      FlowShard& fs = flow_shards_[ss];

      const auto path = topo_.shortest_path(match.src_host, match.dst_host);
      if (path.size() < 3) return;  // unroutable

      // Is the route already installed?  Sequential mode checks the whole
      // path (rules may have been torn down mid-path); parallel mode may
      // only read its own shard's switches, so it checks the ingress rule —
      // reverse-path install order makes that the last rule to appear.
      const bool ready = psim_ == nullptr ? route_installed(path, match)
                                          : switches_.at(ingress)->table().has(match);
      if (ready) {
        r.rule_reused = true;
        complete_flow(ssim, r, path);
        return;
      }

      // Emit the miss at the ingress switch and wait for the rule.
      switches_.at(ingress)->packet_in(match, r.flow.reserved_bps);
      fs.waiting.emplace(std::make_pair(match.src_host, match.dst_host), idx);
    });
  }
}

void Deployment::on_switch_applied(net::NodeIndex sw, const sched::Update& update) {
  if (update.op != sched::UpdateOp::kInstall) return;
  const auto key = std::make_pair(update.rule.match.src_host, update.rule.match.dst_host);

  if (psim_ != nullptr) {
    // Parallel mode: the ingress rule is installed last (reverse-path
    // order), so its arrival alone marks the flow ready; non-ingress
    // installs are ignored.  The callback runs on the ingress shard's
    // worker (its own switch applied the rule), matching the FlowShard's
    // single-writer discipline.
    const net::NodeIndex ingress = topo_.host_tor(update.rule.match.src_host);
    if (sw != ingress) return;
    const std::uint32_t ss = shard_of_domain(topo_.node(ingress).domain);
    FlowShard& fs = flow_shards_[ss];
    sim::Simulator& ssim = psim_->shard(ss);
    auto [begin, end] = fs.waiting.equal_range(key);
    std::vector<std::size_t> ready;
    for (auto it = begin; it != end; ++it) ready.push_back(it->second);
    if (ready.empty()) return;
    fs.waiting.erase(key);
    const auto path = topo_.shortest_path(key.first, key.second);
    for (const std::size_t idx : ready) complete_flow(ssim, records_[idx], path);
    return;
  }

  (void)sw;
  // Sequential mode: the flows waiting on this match are ready once every
  // switch of the route holds its rule.  The route is asked for afresh
  // because a link change may have moved it since the flow arrived.
  FlowShard& fs = flow_shards_[0];
  if (fs.waiting.count(key) == 0) return;
  const auto path = topo_.shortest_path(key.first, key.second);
  if (!route_installed(path, update.rule.match)) return;
  auto [begin, end] = fs.waiting.equal_range(key);
  std::vector<std::size_t> ready;
  for (auto it = begin; it != end; ++it) ready.push_back(it->second);
  fs.waiting.erase(key);
  for (const std::size_t idx : ready) complete_flow(sim_, records_[idx], path);
}

bool Deployment::route_installed(const std::vector<net::NodeIndex>& path,
                                 const net::FlowMatch& match) const {
  if (path.size() < 3) return false;  // unroutable since a link change
  for (std::size_t p = 1; p + 1 < path.size(); ++p) {
    if (!switches_.at(path[p])->table().has(match)) return false;
  }
  return true;
}

void Deployment::complete_flow(sim::Simulator& sim, FlowRecord& r,
                               const std::vector<net::NodeIndex>& path) {
  r.route_ready = sim.now();
  r.completion = sim.now() + topo_.path_latency(path) +
                 sim::from_sec(r.flow.size_bytes * 8.0 / params_.costs.flow_effective_bps);
  r.completed = true;
  if (params_.teardown_after_flow) {
    const net::NodeIndex ingress = topo_.host_tor(r.flow.src_host);
    const net::FlowMatch match{r.flow.src_host, r.flow.dst_host};
    sim.at(r.completion, [this, ingress, match] { switches_.at(ingress)->request_teardown(match); });
  }
}

void Deployment::run(sim::SimTime horizon) {
  if (psim_ != nullptr) {
    psim_->run_until(horizon);
    merge_shard_metrics();
  } else {
    sim_.run_until(horizon);
  }
  // Host-side route and verification work (net::Topology's and the PKI's
  // memos) and the largest switch's id records: gauges, not counters, so
  // the record fingerprints that hash every counter stay put.
  obs_.metrics.gauge("net.route.dijkstra_runs").set(static_cast<double>(topo_.dijkstra_runs()));
  obs_.metrics.gauge("net.route.memo_entries").set(static_cast<double>(topo_.route_memo_size()));
  const PkiDirectory& pki = crypto_.pki();
  obs_.metrics.gauge("crypto.verify_memo_hits").set(static_cast<double>(pki.verify_memo_hits()));
  obs_.metrics.gauge("crypto.verify_memo_entries")
      .set(static_cast<double>(pki.verify_memo_entries()));
  std::size_t id_records = 0;
  for (const auto& [index, sw] : switches_) id_records = std::max(id_records, sw->id_records());
  obs_.metrics.gauge("switch.id_records_max").set(static_cast<double>(id_records));
}

void Deployment::merge_shard_metrics() {
  if (psim_ == nullptr) return;
  // The deployment-wide registry is write-idle in parallel mode (every
  // component records into its shard's registry), so zero+fold is
  // repeatable across successive run() calls.
  obs_.metrics.zero();
  std::vector<const obs::MetricsRegistry*> sources;
  for (const auto& o : shard_obs_) sources.push_back(&o->metrics);
  obs_.metrics.merge_sum(sources);
  // Same fold for the critical-path profiler: an update's whole lifecycle
  // lives inside its domain's shard, so the per-shard record sets are
  // disjoint and the ascending-shard fold is deterministic.
  obs_.critpath.clear();
  for (const auto& o : shard_obs_) obs_.critpath.merge_from(o->critpath);
}

std::vector<obs::ShardTelemetryEntry> Deployment::shard_telemetry() const {
  std::vector<obs::ShardTelemetryEntry> out;
  if (psim_ != nullptr) {
    const auto rows = psim_->shard_telemetry();
    out.reserve(rows.size());
    for (std::uint32_t s = 0; s < rows.size(); ++s) {
      obs::ShardTelemetryEntry e;
      e.shard = s;
      e.windows = rows[s].windows;
      e.events = rows[s].events;
      e.stall_windows = rows[s].stall_windows;
      e.posts_in = rows[s].posts_in;
      e.posts_out = rows[s].posts_out;
      e.barrier_wait_sec = rows[s].barrier_wait_sec;
      out.push_back(e);
    }
    return out;
  }
  // Sequential mode reports as one fully-utilized shard: no windows, no
  // barriers, no cross-shard traffic.
  obs::ShardTelemetryEntry e;
  e.events = sim_.events_processed();
  out.push_back(e);
  return out;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

util::CdfCollector Deployment::completion_cdf() const {
  util::CdfCollector cdf;
  for (const auto& r : records_) {
    if (r.completed) cdf.add(sim::to_ms(r.completion - r.flow.arrival));
  }
  return cdf;
}

util::CdfCollector Deployment::setup_cdf() const {
  util::CdfCollector cdf;
  for (const auto& r : records_) {
    if (r.completed && !r.rule_reused) cdf.add(sim::to_ms(r.route_ready - r.flow.arrival));
  }
  return cdf;
}

std::vector<double> Deployment::switch_cpu_windows(sim::SimTime window,
                                                   sim::SimTime horizon) const {
  std::vector<double> acc;
  std::size_t count = 0;
  for (const auto& [sw, runtime] : switches_) {
    const auto w = runtime->cpu().utilisation_windows(window, horizon);
    if (acc.empty()) acc.resize(w.size(), 0.0);
    for (std::size_t i = 0; i < w.size() && i < acc.size(); ++i) acc[i] += w[i];
    ++count;
  }
  for (auto& v : acc) v /= static_cast<double>(std::max<std::size_t>(1, count));
  return acc;
}

std::map<net::DomainId, double> Deployment::events_share_per_domain() const {
  std::uint64_t total = 0;
  for (const auto& [sw, runtime] : switches_) total += runtime->events_emitted();
  std::map<net::DomainId, double> out;
  for (const auto& [d, plane] : planes_) {
    std::uint64_t processed = 0;
    for (const auto& m : plane.members) {
      processed = std::max(processed, controllers_.at(m.id)->events_processed());
    }
    out[d] = total == 0 ? 0.0 : static_cast<double>(processed) / static_cast<double>(total);
  }
  return out;
}

net::TableMap Deployment::table_map() const {
  net::TableMap map;
  for (const auto& [sw, runtime] : switches_) map[sw] = &runtime->table();
  return map;
}

// ---------------------------------------------------------------------------
// Membership changes (§4.3)
// ---------------------------------------------------------------------------

std::uint32_t Deployment::add_controller(net::DomainId domain) {
  if (psim_ != nullptr) {
    throw std::logic_error("add_controller: membership changes require threads == 1");
  }
  const std::uint32_t bootstrap = planes_.at(domain).members.front().id;
  // (i) provision keys/identifier and hand the directory entry out before
  // the proposal, mirroring the paper's bootstrap step.
  const std::uint32_t new_id = provision_controller(domain, plane_placement(domain));

  // (ii) the bootstrap controller (lowest id) proposes the addition
  // through consensus.
  controllers_.at(bootstrap)->propose_membership(EventKind::kAddController, new_id);
  return new_id;
}

void Deployment::remove_controller(std::uint32_t id) {
  if (psim_ != nullptr) {
    throw std::logic_error("remove_controller: membership changes require threads == 1");
  }
  // Any live member that detected the failure proposes the removal: the
  // lowest-id one other than `id`.
  for (const auto& m : planes_.at(ctrl_configs_.at(id).domain).members) {
    if (m.id == id) continue;
    controllers_.at(m.id)->propose_membership(EventKind::kRemoveController, id);
    return;
  }
  throw std::logic_error("remove_controller: no proposer");
}

void Deployment::run_membership_change(net::DomainId domain, const Event& e) {
  if (!membership_seen_.insert(e.id).second) return;  // one change per event
  const Controller::Plane& plane = planes_.at(domain);
  const std::vector<Controller::MemberInfo>& members = plane.members;

  // Freeze event processing (events delivered during the change queue up).
  for (const auto& m : members) controllers_.at(m.id)->begin_membership_change();

  std::vector<Controller::MemberInfo> new_members;
  for (const auto& m : members) {
    if (e.kind == EventKind::kAddController || m.id != e.member) new_members.push_back(m);
  }
  if (e.kind == EventKind::kAddController) {
    const Controller::MemberInfo joining = member_info(e.member);
    new_members.insert(std::upper_bound(new_members.begin(), new_members.end(), joining,
                                        [](const auto& a, const auto& b) { return a.id < b.id; }),
                       joining);
  }
  if (new_members.empty()) return;

  // (iii) resharing: a quorum of existing members re-deals toward the new
  // member set; the group public key is unchanged (the suite checks it).
  // The message exchange is orchestrated here, its costs charged to the
  // dealers' and receivers' CPUs in both crypto modes.
  std::vector<crypto::ShareIndex> new_indices;
  for (const auto& m : new_members) new_indices.push_back(m.id + 1);

  const std::size_t t_old = plane.quorum();
  std::vector<crypto::SecretShare> dealers;
  std::vector<std::uint32_t> quorum_ids;
  for (const auto& m : members) {
    if (e.kind == EventKind::kRemoveController && m.id == e.member) continue;
    dealers.push_back(ctrl_configs_.at(m.id).share);
    quorum_ids.push_back(m.id);
    if (dealers.size() == t_old) break;
  }

  auto keys = crypto_.reshare(dealers, new_indices, quorum_for(new_members.size()),
                              plane.group_pk, drbg_);
  for (const std::uint32_t id : quorum_ids) {
    controllers_.at(id)->cpu().charge(params_.costs.reshare_deal_cost);
  }
  for (const auto& m : new_members) {
    const auto it = controllers_.find(m.id);
    if (it != controllers_.end()) it->second->cpu().charge(params_.costs.reshare_finalize_cost);
  }

  // Apply after the (charged) exchange latency: one control-plane RTT per
  // resharing round.
  const sim::SimTime settle = 2 * params_.costs.ctrl_ctrl_latency +
                              params_.costs.reshare_deal_cost +
                              params_.costs.reshare_finalize_cost;
  const EventKind kind = e.kind;
  const std::uint32_t member = e.member;
  sim_.after(settle, [this, domain, kind, member, new_members = std::move(new_members),
                      keys = std::move(keys)] {
    Controller::Plane& pl = planes_.at(domain);
    pl.verification_shares = keys.verification_shares;
    pl.phase += 1;
    for (std::size_t i = 0; i < new_members.size(); ++i) {
      ctrl_configs_.at(new_members[i].id).share = keys.shares[i];
    }
    pl.members = new_members;

    if (kind == EventKind::kRemoveController) {
      // Keep the object (ids are never reused and callbacks may still be
      // queued against it) but silence it completely.
      const auto it = controllers_.find(member);
      if (it != controllers_.end()) {
        it->second->set_fault(ControllerFault::kSilent);
        it->second->replica().crash();
      }
    }

    // Hand every member its re-dealt share and a fresh PBFT instance for
    // the new membership, then drain queued events.  A newly added member
    // is constructed here (iv: receives data-plane state, policies and the
    // directory).
    for (const auto& m : new_members) {
      const auto it = controllers_.find(m.id);
      if (it == controllers_.end()) {
        spawn_controller(m.id);
      } else {
        it->second->finish_membership_change(ctrl_configs_.at(m.id).share);
      }
    }
    notify_switches(domain);
    CICERO_LOG_INFO(kLog, "domain %u membership now phase %llu with %zu members", domain,
                    static_cast<unsigned long long>(pl.phase), new_members.size());
  });
}

AggregatorNotifyMsg Deployment::switch_view(net::DomainId d) const {
  const Controller::Plane& plane = planes_.at(d);
  AggregatorNotifyMsg m;
  m.phase = plane.phase;
  m.quorum = plane.quorum();
  for (const auto& c : plane.members) m.controllers.push_back(c.node);
  m.aggregator =
      delivery_ == Delivery::kControllerAgg ? plane.members.front().node : sim::kInvalidNode;
  return m;
}

void Deployment::notify_switches(net::DomainId domain) {
  const util::Bytes wire = switch_view(domain).encode();
  const sim::NodeId from = planes_.at(domain).members.front().node;
  for (const net::NodeIndex sw : plane_switches(domain)) {
    net_->send(from, switch_nodes_.at(sw), wire);
  }
}

}  // namespace cicero::core
