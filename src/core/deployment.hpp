// Deployment: wires a complete evaluated system.
//
// Given a topology, a framework kind (§6.1's four comparands) and sizing
// parameters, `Deployment` creates the network simulation, the per-domain
// control planes (with DKG-derived threshold keys), the switch runtimes,
// the PKI directory, the latency model, and a flow driver that injects
// workload flows and records the paper's metrics (flow completion times,
// setup latencies, switch CPU utilisation, per-controller event counts).
//
// Centralized/crash-tolerant baselines use a single global control plane
// regardless of topology domains (that is how the paper deploys them);
// Cicero frameworks get one control plane per switch domain (§3.3).
// `delivery_of` reduces the params to one `Delivery` (the path updates
// take to the switches), computed once in the constructor and handed to
// every controller and switch runtime; invalid params make it throw.
//
// Membership changes (§4.3) are exposed as `add_controller` /
// `remove_controller`: the bootstrap (lowest-id) member proposes the
// change through the domain's atomic broadcast; on delivery every member
// queues incoming events, the existing quorum re-deals shares (real
// crypto::ReshareDeal exchanges with charged CPU + latency), the group's
// PBFT instance is rebuilt for the new membership, switches learn the new
// member list/quorum/aggregator, and queued events drain — with the group
// public key provably unchanged.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "core/cost_model.hpp"
#include "core/framework.hpp"
#include "core/switch_runtime.hpp"
#include "net/checker.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "sched/scheduler.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace cicero::core {

struct DeploymentParams {
  FrameworkKind framework = FrameworkKind::kCicero;
  /// Update execution: controller-driven (paper §5) releases one signed
  /// update per segment in dependency order; decentralized (ez-Segway
  /// mode, DESIGN.md §15) ships every segment at once as a signed
  /// manifest and lets the switches sequence the chain in-band.
  ExecutionMode execution_mode = ExecutionMode::kControllerDriven;
  /// Where threshold partials are combined (DESIGN.md §16): kInNetwork
  /// designates one aggregator switch per domain (P4BFT-style offload —
  /// replicas send one small message per update instead of one full copy
  /// each).  `delivery_of` says which combinations are valid.
  AggregationMode aggregation = AggregationMode::kNone;
  std::size_t controllers_per_domain = 4;
  CostModel costs;
  /// Threshold scheme; kFrost demonstrates the protocol over a
  /// cryptographically REAL threshold signature.
  ThresholdBackend backend = ThresholdBackend::kSimBls;
  bool real_crypto = true;
  std::uint64_t seed = 1;
  /// Tear the route down after each flow completes (Fig. 11c's
  /// unamortized setup/teardown mode).
  bool teardown_after_flow = false;
  /// Controller-side apply/ack retransmission (see Controller::Config);
  /// `ack_timeout <= 0` or `update_max_retries == 0` disables.
  sim::SimTime ack_timeout = sim::milliseconds(500);
  std::uint32_t update_max_retries = 6;
  /// Simulation-time tracing (buffers every span in memory); off by
  /// default — enable for runs whose trace you intend to export.
  bool trace = false;
  /// Worker threads for the sharded parallel simulation engine.  1 (the
  /// default) runs the exact single-threaded event loop — bit-identical
  /// to the pre-parallel engine.  >1 groups the topology's control
  /// domains into min(threads, domains) shards, one worker each,
  /// synchronized with conservative lookahead (DESIGN.md §12); requires
  /// trace == false.  Single-domain topologies and the centralized /
  /// crash-tolerant frameworks (one global control plane) degenerate to
  /// the sequential fast path regardless of this value.
  std::uint32_t threads = 1;
};

/// The delivery path `params` select, and the only code below the public
/// params that reads ExecutionMode, AggregationMode or the backend's
/// framework pairing.  Throws std::invalid_argument for the combinations
/// with no path: FROST outside controller aggregation (its signing
/// session needs a controller coordinator), decentralized execution under
/// controller aggregation (manifests aggregate at their switch), and
/// in-network aggregation outside kCicero's controller-driven SimBLS path.
Delivery delivery_of(const DeploymentParams& params);

/// Per-flow measurement record.
struct FlowRecord {
  workload::Flow flow;
  sim::SimTime route_ready = 0;   ///< when the ingress rule was usable
  sim::SimTime completion = 0;    ///< route_ready + transmission
  bool rule_reused = false;       ///< no event needed (rule already present)
  bool completed = false;
};

class Deployment {
 public:
  Deployment(net::Topology topology, DeploymentParams params);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // --- workload driving ---
  /// Schedules all flows for injection at their arrival times.
  void inject(const std::vector<workload::Flow>& flows);
  /// Runs the simulation until quiescent or `horizon`.
  void run(sim::SimTime horizon = sim::seconds(600));

  // --- accessors ---
  /// Sequential mode: the one event loop.  Parallel mode: shard 0 (whose
  /// clock, like every shard's, ends each run() at the horizon).
  sim::Simulator& simulator() { return psim_ != nullptr ? psim_->shard(0) : sim_; }
  /// True when this deployment runs on the sharded parallel engine.
  bool parallel_mode() const { return psim_ != nullptr; }
  /// Worker shards backing run(); 1 in sequential mode.
  std::uint32_t worker_shards() const { return psim_ != nullptr ? psim_->shards() : 1; }
  /// The parallel engine, or nullptr in sequential mode (tests).
  sim::ParallelSim* parallel_engine() { return psim_.get(); }
  /// Events executed across all shards (mode-agnostic; benches).
  std::uint64_t events_processed() const {
    return psim_ != nullptr ? psim_->events_processed() : sim_.events_processed();
  }
  sim::NetworkSim& network() { return *net_; }
  const net::Topology& topology() const { return topo_; }
  SwitchRuntime& switch_at(net::NodeIndex topo_index) { return *switches_.at(topo_index); }
  Controller& controller(std::uint32_t id) { return *controllers_.at(id); }
  std::vector<std::uint32_t> controller_ids() const;
  std::vector<std::uint32_t> domain_controller_ids(net::DomainId d) const;
  const PkiDirectory& pki() const { return crypto_.pki(); }
  /// Plane `d` as its members read it (a global plane is domain 0).
  const Controller::Plane& plane(net::DomainId d) const { return planes_.at(d); }
  const crypto::Point& group_pk(net::DomainId d) const { return plane(d).group_pk; }
  /// Deployment-wide metrics registry + tracer (see obs/obs.hpp).
  obs::Observability& obs() { return obs_; }
  /// Per-shard engine utilization rows for the report's "shards" section;
  /// sequential mode reports one synthetic fully-local shard.
  std::vector<obs::ShardTelemetryEntry> shard_telemetry() const;
  /// Seeded fault injection (loss, partitions, crashes); always installed,
  /// inert until configured.
  sim::FaultInjector& faults() { return *faults_; }

  // --- metrics ---
  const std::vector<FlowRecord>& flow_records() const { return records_; }
  /// Flow completion times in ms (completed flows only).
  util::CdfCollector completion_cdf() const;
  /// Flow setup latencies in ms (flows that required an event).
  util::CdfCollector setup_cdf() const;
  /// Mean switch CPU utilisation per window across all switches.
  std::vector<double> switch_cpu_windows(sim::SimTime window, sim::SimTime horizon) const;
  /// Fraction of flow events processed per control plane (Fig. 12b).
  std::map<net::DomainId, double> events_share_per_domain() const;

  /// Current flow-table map for the consistency checker.
  net::TableMap table_map() const;

  // --- membership (§4.3) ---
  /// Asks the domain's bootstrap member to propose adding a freshly
  /// provisioned controller; returns the new controller's id.
  std::uint32_t add_controller(net::DomainId domain);
  /// Proposes removing `id` from its domain (detected failure or
  /// proactive removal).
  void remove_controller(std::uint32_t id);

  /// Direct access for fault injection in tests.
  void set_controller_fault(std::uint32_t id, ControllerFault fault);

  /// Fails the link between two adjacent nodes: routing stops using it and
  /// the adjacent switches emit re-route events for every flow they were
  /// forwarding into it (link-state probing, paper §2/§7).
  void fail_link(net::NodeIndex a, net::NodeIndex b);
  /// Brings a failed link back.
  void restore_link(net::NodeIndex a, net::NodeIndex b);

  /// Crashes a switch (§5.1): its runtime loses volatile state and the
  /// fault injector drops all its traffic until `recover_switch`.  Under
  /// in-network aggregation, crashing (or recovering) the designated
  /// aggregator re-designates deterministically and re-points the
  /// domain's replicas (DESIGN.md §16 failover).
  void crash_switch(net::NodeIndex sw);
  void recover_switch(net::NodeIndex sw);

  /// The domain's currently designated aggregator switch (kNoNode when
  /// every switch is down), or kNoNode outside in-network mode.  Tests
  /// and benches use this to aim chaos at the aggregator.
  net::NodeIndex innet_aggregator_switch(net::DomainId d) const;

  /// Updates released or blocked but not yet completed, summed over every
  /// controller; the chaos suite asserts this drains to zero at
  /// quiescence.
  std::size_t pending_updates() const;

 private:
  struct Placement2;
  void setup_parallel();
  void build_nodes();
  /// The switches plane `d` serves: its domain's, or every switch for a
  /// global plane.  Its controllers sit at the first of them.
  std::vector<net::NodeIndex> plane_switches(net::DomainId d) const;
  net::Placement plane_placement(net::DomainId d) const;
  void build_plane(net::DomainId domain);
  std::uint32_t provision_controller(net::DomainId domain, const net::Placement& placement);
  Controller::MemberInfo member_info(std::uint32_t id) const;
  /// Constructs member `id` from its provisioned config and connects it to
  /// the network and to the membership orchestrator.
  void spawn_controller(std::uint32_t id);
  sim::SimTime latency(sim::NodeId a, sim::NodeId b) const;
  sim::SimTime latency_between(const Placement2& pa, const Placement2& pb) const;
  sim::SimTime min_cross_shard_latency() const;
  std::uint32_t shard_of_domain(net::DomainId d) const {
    if (psim_ == nullptr) return 0;
    const auto it = shard_of_domain_.find(d);
    return it == shard_of_domain_.end() ? 0 : it->second;
  }
  sim::Simulator& sim_for_domain(net::DomainId d) {
    return psim_ != nullptr ? psim_->shard(shard_of_domain(d)) : sim_;
  }
  obs::Observability* obs_for_domain(net::DomainId d) {
    return psim_ != nullptr ? shard_obs_.at(shard_of_domain(d)).get() : &obs_;
  }
  void merge_shard_metrics();
  void on_switch_applied(net::NodeIndex sw, const sched::Update& update);
  void run_membership_change(net::DomainId domain, const Event& e);
  /// What plane `d`'s switches know of it: member nodes, quorum and (under
  /// kControllerAgg) the aggregator controller.
  AggregatorNotifyMsg switch_view(net::DomainId d) const;
  void notify_switches(net::DomainId domain);
  /// In-network aggregation: (re)designates plane `d`'s aggregator switch,
  /// deterministically the lowest topology index among its non-crashed
  /// switches.
  void designate_innet_aggregator(net::DomainId d);

  struct Placement2 {  ///< placement info for latency classification
    std::uint32_t dc = 0;
    std::uint32_t pod = 0;
    bool is_switch = false;
  };

  net::Topology topo_;
  DeploymentParams params_;
  Delivery delivery_;  ///< delivery_of(params_), computed once
  sim::Simulator sim_;  ///< the sequential event loop (unused when psim_ set)
  /// Declared before net_/switches_/controllers_: the metric handles they
  /// hold point into this registry, so it must outlive them.
  obs::Observability obs_;
  /// Parallel mode only: the sharded engine, one metrics registry per
  /// shard (merged into obs_ after every run), the domain->shard cut and
  /// the NodeId->shard map.  All empty/null in sequential mode.
  std::unique_ptr<sim::ParallelSim> psim_;
  std::vector<std::unique_ptr<obs::Observability>> shard_obs_;
  std::map<net::DomainId, std::uint32_t> shard_of_domain_;
  std::vector<std::uint32_t> node_shard_;
  std::unique_ptr<sim::NetworkSim> net_;
  /// Installed as net_'s drop hook; must outlive every send, so it lives
  /// right next to the network it instruments.
  std::unique_ptr<sim::FaultInjector> faults_;
  crypto::Drbg drbg_;
  /// Built once from the params' crypto mode and backend; every controller
  /// and switch runtime holds a const pointer to it.
  CryptoSuite crypto_;
  sched::ReversePathScheduler scheduler_;

  std::map<net::NodeIndex, std::unique_ptr<SwitchRuntime>> switches_;
  /// topology switch index -> network endpoint; every controller and
  /// switch runtime holds a const pointer to it.
  std::map<net::NodeIndex, sim::NodeId> switch_nodes_;
  /// What provisioning hands each controller id, its current share
  /// included (kept after removal: ids are never reused).
  std::map<std::uint32_t, Controller::Config> ctrl_configs_;
  /// One record per control plane (DESIGN.md §4.2c).  Written only by
  /// build_plane, a membership change's settle and the in-network
  /// aggregator designation; every controller reads it through a const
  /// pointer, so it is declared before (and outlives) controllers_.
  Controller::Planes planes_;
  std::map<std::uint32_t, std::unique_ptr<Controller>> controllers_;
  /// Membership events already acted on (one change per event).
  std::set<EventId> membership_seen_;
  /// Indexed by sim::NodeId: every endpoint gets its placement when
  /// NetworkSim::add_node hands out the next dense id.
  std::vector<Placement2> node_place_;
  std::uint32_t next_ctrl_id_ = 0;

  // flow driver state: records_ is shared (disjoint elements per shard);
  // the waiting set is striped by the ingress switch's shard so the driver
  // never locks.  Sequential mode is stripe 0 only.  Routes come from the
  // topology's own memo (net::Topology::shortest_path).
  struct FlowShard {
    std::multimap<std::pair<net::NodeIndex, net::NodeIndex>, std::size_t> waiting;
  };
  /// Whether `path` routes and every switch on it holds the rule for `match`.
  bool route_installed(const std::vector<net::NodeIndex>& path, const net::FlowMatch& match) const;
  /// Marks `r` routed now and done after its transfer along `path`;
  /// schedules the route's teardown if the deployment tears flows down.
  void complete_flow(sim::Simulator& sim, FlowRecord& r, const std::vector<net::NodeIndex>& path);
  std::vector<FlowRecord> records_;
  std::vector<FlowShard> flow_shards_{1};
};

}  // namespace cicero::core
