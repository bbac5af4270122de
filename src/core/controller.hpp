// Cicero controller runtime (paper §5.1, Figs. 7a–7c).
//
// One instance per control-plane member.  The controller:
//   * validates incoming events against the PKI directory, forwards
//     multi-domain events to the other affected domains (tagged
//     non-reforwardable), and submits events to its domain's atomic
//     broadcast;
//   * on delivery, runs the controller application (shortest-path routing)
//     and the pluggable update scheduler, filters the schedule to its own
//     domain, threshold-signs each released update and sends it to the
//     switch (or to the aggregator);
//   * on verified switch acknowledgements, releases dependent updates —
//     the dependency machinery behind intra-domain parallelism;
//   * when it is the aggregator (lowest live id, §4.2), collects and
//     verifies partials from its peers and ships one aggregated signature
//     per update to the switch.
//
// The apply/ack transaction is written once for every delivery shape:
// one ack wait (`await_ack`, for updates and decentralized chain sinks),
// one first-ack path (`on_ack`), one per-id shed on abandonment, and one
// ship tail (`ship`) that sends direct updates, manifests and the
// aggregator's shipments and replays to their switch.
//
// Byzantine behaviours for the security tests are injected with
// `set_fault`: a faulty controller can mutate updates before signing,
// stay silent, or fire unsolicited rogue updates at switches (the
// PACKET_OUT-style attack of §2.2).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>

#include "bft/pbft.hpp"
#include "core/cost_model.hpp"
#include "core/crypto_suite.hpp"
#include "core/decentralized.hpp"
#include "core/framework.hpp"
#include "core/messages.hpp"
#include "core/audit.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sched/depgraph.hpp"
#include "sched/scheduler.hpp"
#include "sim/cpu.hpp"
#include "sim/network.hpp"

namespace cicero::core {

/// Byzantine behaviours a compromised controller may exhibit in tests.
enum class ControllerFault : std::uint8_t {
  kNone = 0,
  kSilent,         ///< signs nothing, sends nothing (crash-like)
  kMutateUpdates,  ///< signs and sends a corrupted rule (wrong next hop)
  kRogueUpdates,   ///< additionally fires unsolicited updates at switches
};

class Controller {
 public:
  struct MemberInfo {
    std::uint32_t id = 0;  ///< controller id; share index is id + 1
    sim::NodeId node = sim::kInvalidNode;
    crypto::Point pk;  ///< PKI key (BFT message + event signing)
  };
  /// domain -> that domain's control-plane members, sorted by id.
  using Directory = std::map<net::DomainId, std::vector<MemberInfo>>;

  struct Config {
    std::uint32_t id = 0;
    net::DomainId domain = 0;
    FrameworkKind framework = FrameworkKind::kCicero;
    CostModel costs;
    sim::NodeId node = sim::kInvalidNode;
    std::vector<MemberInfo> members;  ///< sorted by id, includes self
    crypto::SchnorrKeyPair key;
    crypto::SecretShare share;  ///< threshold share (Cicero frameworks)
    crypto::Point group_pk;
    std::map<crypto::ShareIndex, crypto::Point> verification_shares;
    std::uint32_t quorum = 3;
    /// The path updates take to the switches (DESIGN.md §4.2b).  Under
    /// kInNetwork the replicas address the domain's designated aggregator
    /// *switch*: on the optimistic first send only the lowest-ranked
    /// replica ships the full update body, the next quorum-1 ranks ship
    /// compact PartialShareMsgs and the rest stay silent — every replica
    /// still arms its ack timer, and any retransmission escalates to the
    /// full body, so liveness never depends on the optimistic cast.
    Delivery delivery = Delivery::kDirect;
    /// Sim address of the designated aggregator switch (kInNetwork only);
    /// re-pointed by the Deployment when that switch crashes.
    sim::NodeId innet_aggregator = sim::kInvalidNode;
    std::uint64_t nonce_seed = 0;  ///< per-controller FROST nonce stream
    /// Transactional apply/ack recovery (§4.1): an update whose signed ack
    /// has not arrived within `ack_timeout` is re-signed and retransmitted
    /// with exponential backoff, up to `update_max_retries` resends.
    /// Covers updates and acks lost or delayed by the network; switches
    /// deduplicate by update id and re-ack, so resends are idempotent.
    /// `ack_timeout <= 0` or `update_max_retries == 0` disables.
    sim::SimTime ack_timeout = sim::milliseconds(500);
    std::uint32_t update_max_retries = 6;
    /// Optional metrics/tracing sink, shared deployment-wide.  The trace
    /// "process" for this controller is its network node id.
    obs::Observability* obs = nullptr;
  };

  /// Environment shared by all controllers of a deployment: pointers to
  /// state the Deployment owns, never copies.
  struct Environment {
    const net::Topology* topology = nullptr;
    const sched::UpdateScheduler* scheduler = nullptr;
    /// Every signature made or checked; its backend picks SimBLS or FROST
    /// (FROST needs Delivery::kControllerAgg: the aggregator coordinates
    /// the sessions).
    const CryptoSuite* crypto = nullptr;
    /// topology switch index -> network endpoint.
    const std::map<net::NodeIndex, sim::NodeId>* switch_nodes = nullptr;
    /// The live member table of every domain (cross-domain forwarding);
    /// the Deployment rewrites a domain's entry when a membership change
    /// settles.
    const Directory* members = nullptr;
  };

  /// Fired when a membership event (add/remove) is delivered by the
  /// domain's broadcast; the ControlPlane orchestrator reacts by running
  /// the resharing and rebuilding the group.
  using MembershipFn = std::function<void(const Event&)>;

  Controller(sim::Simulator& simulator, sim::NetworkSim& network, Config config,
             Environment env);

  void handle_message(sim::NodeId from, const util::Bytes& wire);

  std::uint32_t id() const { return config_.id; }
  net::DomainId domain() const { return config_.domain; }
  sim::NodeId node() const { return config_.node; }
  bool is_aggregator() const;
  sim::CpuServer& cpu() { return cpu_; }
  bft::PbftReplica& replica() { return *replica_; }
  const Config& config() const { return config_; }

  void set_fault(ControllerFault fault) { fault_ = fault; }

  /// Aggregator-switch failover (in-network aggregation): the Deployment
  /// re-points every replica of the domain at the new designated switch.
  void set_innet_aggregator(sim::NodeId node) { config_.innet_aggregator = node; }

  /// Hash-chained log of every update this controller emitted, its head
  /// signed every 64 entries (§7 future work: decision auditability); see
  /// core/audit.hpp.
  const AuditLog& audit() const { return audit_; }
  /// Signs the audit log's head so the whole log verifies as evidence.
  void seal_audit() { audit_.seal(config_.key); }
  void set_on_membership(MembershipFn fn) { on_membership_ = std::move(fn); }

  /// True while a membership change is being installed; events delivered
  /// in this window are queued (paper §4.3) and drained by
  /// `finish_membership_change`.
  bool membership_changing() const { return membership_changing_; }
  void begin_membership_change() { membership_changing_ = true; }
  /// Installs new group state (share, members, quorum), rebuilds the BFT
  /// replica for the new membership, and drains the event queue.  `phase`
  /// is the new membership phase.
  void finish_membership_change(std::uint64_t phase, Config new_group_config);

  /// Fires an unsolicited (non-quorum) update at a switch — only used by
  /// fault injection to demonstrate the baselines' vulnerability.
  void inject_rogue_update(net::NodeIndex switch_node, const sched::Update& update);

  /// Dependency state for this controller's in-flight schedules; the chaos
  /// suite asserts `tracker().pending() == 0` at quiescence.
  const sched::DependencyTracker& tracker() const { return tracker_; }

  // --- stats ---
  std::uint64_t events_processed() const { return events_processed_.value(); }
  std::uint64_t updates_sent() const { return updates_sent_.value(); }
  std::uint64_t acks_received() const { return acks_received_.value(); }
  std::uint64_t events_forwarded() const { return events_forwarded_.value(); }
  std::uint64_t updates_retransmitted() const { return updates_retransmitted_.value(); }
  std::uint64_t manifests_sent() const { return manifests_sent_.value(); }
  std::uint64_t updates_abandoned() const { return updates_abandoned_.value(); }
  /// Total bytes this controller sent southbound (controller -> switch,
  /// all message kinds, retransmissions included) — the fig12a metric the
  /// in-network offload is measured by.
  std::uint64_t southbound_bytes() const { return southbound_bytes_.value(); }
  /// kAggMismatch alarms delivered through the domain's broadcast.
  std::uint64_t agg_mismatch_reports() const { return agg_mismatch_reports_.value(); }

 private:
  void rebuild_replica();
  template <typename Msg>
  void handle(const util::Bytes& wire, sim::SimTime verify, std::string_view op,
              void (Controller::*on)(const Msg&));
  void on_event(const Event& e);
  void on_deliver(bft::SeqNum seq, const util::Bytes& payload);
  void process_event(const Event& e);
  void process_flow_event(const Event& e);
  /// `parent`: the acked predecessor that released `id`, if any.
  void release_update(sched::UpdateId id, std::optional<sched::UpdateId> parent = std::nullopt);
  void send_update(const sched::Update& update, const EventId& cause);
  void await_ack(sched::UpdateId id, const EventId& cause);
  void dispatch_update(const sched::Update& update, const EventId& cause,
                       bool retransmit = false);
  /// In-network aggregation: rank-dependent send to the aggregator switch.
  void dispatch_innet(const UpdateMsg& msg, bool retransmit);
  void ship(net::NodeIndex sw, sched::UpdateId id, const util::Bytes& wire, bool retransmit);
  /// This replica's rank: position of our id in the sorted member list.
  std::size_t member_rank() const;
  /// The lowest-id member: the aggregator under Delivery::kControllerAgg (§4.2).
  const MemberInfo& aggregator_member() const { return config_.members.front(); }
  /// Controller -> switch send, counted in southbound_bytes().
  void send_southbound(sim::NodeId to, const util::Bytes& wire);
  void arm_ack_timer(sched::UpdateId id, sim::SimTime delay);
  void on_ack(const AckMsg& ack);
  /// Decentralized execution: plan + ship every manifest of one schedule,
  /// arm sink timers.
  void dispatch_decentralized(const sched::UpdateSchedule& local, const EventId& cause);
  void send_manifest(const SegmentManifest& manifest, const EventId& cause, bool retransmit);
  /// Retry exhaustion: finalize `id` and every transitive dependent (or,
  /// in decentralized mode, the sink's whole ancestor closure) so no
  /// tracker entry, timer, trace track or counter is left stranded.
  void abandon_update(sched::UpdateId id);
  void shed(sched::UpdateId id);
  void on_peer_update(const UpdateMsg& m);  ///< aggregator role
  void on_frost_session(const FrostSessionMsg& m);   ///< signer role (kFrost)
  void on_frost_partial(const FrostPartialMsg& m);   ///< aggregator role (kFrost)
  void maybe_start_frost_session(sched::UpdateId id);
  void send_frost_session(sched::UpdateId id, crypto::ShareIndex signer, obs::CritPhase phase);
  void aggregate_and_ship(sched::UpdateId id);
  void forward_cross_domain(const Event& e, const std::set<net::DomainId>& domains);
  std::set<net::DomainId> domains_of_path(const std::vector<net::NodeIndex>& path) const;

  sim::Simulator& sim_;
  sim::NetworkSim& net_;
  Config config_;
  Environment env_;
  /// Lifecycle recorder; its leader role is ours while we are the
  /// aggregator.
  obs::NodeHooks rec_;
  sim::CpuServer cpu_;
  std::unique_ptr<bft::PbftReplica> replica_;
  sched::DependencyTracker tracker_;
  std::map<sched::UpdateId, EventId> update_cause_;
  std::set<EventId> events_submitted_;
  std::set<EventId> events_processed_set_;
  std::vector<Event> queued_events_;  ///< arrivals during membership change
  std::uint64_t membership_phase_ = 0;
  bool membership_changing_ = false;
  ControllerFault fault_ = ControllerFault::kNone;
  AuditLog audit_;
  MembershipFn on_membership_;
  std::uint64_t origin_seq_ = 0;  ///< for membership events we originate

  struct AggPending {
    sched::Update update;
    EventId cause;
    util::Bytes signing_bytes;
    std::map<crypto::ShareIndex, crypto::PartialSignature> partials;
    // kFrost: piggybacked nonce commitments, the chosen session, and the
    // collected z_i partials.
    std::map<crypto::ShareIndex, crypto::FrostCommitment> frost_commitments;
    std::vector<crypto::FrostCommitment> frost_session;
    std::map<crypto::ShareIndex, crypto::Scalar> frost_partials;
    bool session_started = false;
    bool done = false;
  };
  std::map<sched::UpdateId, AggPending> agg_pending_;
  /// Aggregator role: encoded AggUpdateMsg per completed update, replayed
  /// when a peer retransmits (its partial arrived after aggregation, i.e.
  /// the aggregated update or the ack was lost somewhere downstream).
  std::map<sched::UpdateId, util::Bytes> agg_completed_;
  std::unique_ptr<CryptoSuite::FrostParty> frost_;  ///< null unless real FROST
  /// Signer role: last FROST partial sent per update, replayed when the
  /// aggregator re-requests a session whose nonce we already consumed
  /// (same z, so no nonce reuse — covers a lost FrostPartialMsg).
  std::map<sched::UpdateId, FrostPartialMsg> frost_sent_partials_;

  /// Released updates awaiting a verified switch ack; drives the ack
  /// timeout/retransmission loop.  `timer` is the pending wakeup,
  /// cancelled outright when the ack lands (O(1) in the simulator's
  /// indexed heap) so the common all-acks-arrive path leaves no deferred
  /// no-op events behind; `epoch` additionally orphans stale timers when
  /// an entry is re-armed (e.g. the id re-enters after a membership
  /// change).
  struct Inflight {
    EventId cause;
    std::uint32_t attempt = 0;  ///< retransmissions so far
    std::uint64_t epoch = 0;
    sim::Simulator::TimerId timer;
  };
  void disarm_ack_timer(sched::UpdateId id);
  std::map<sched::UpdateId, Inflight> inflight_;

  /// Decentralized execution: one planned chain per schedule, indexed by
  /// each of its sink ids (shared — a schedule can have several sinks per
  /// domain after filtering).  `finalized` guards the per-update
  /// completion bookkeeping against overlapping sink closures and
  /// duplicate sink acks.
  struct DecChain {
    EventId cause;
    DecentralizedPlan plan;
    std::set<sched::UpdateId> finalized;
  };
  std::map<sched::UpdateId, std::shared_ptr<DecChain>> dec_chains_;

  // Per-node counts: one increment answers the accessor and feeds the
  // deployment-wide registry cell of the same name.
  obs::NodeCounter events_processed_{rec_.counter("ctrl.events_processed")};
  obs::NodeCounter updates_sent_{rec_.counter("ctrl.updates_sent")};
  obs::NodeCounter acks_received_{rec_.counter("ctrl.acks_received")};
  obs::NodeCounter events_forwarded_{rec_.counter("ctrl.events_forwarded")};
  obs::NodeCounter updates_retransmitted_{rec_.counter("ctrl.update_retransmits")};
  obs::NodeCounter manifests_sent_{rec_.counter("ctrl.manifests_sent")};
  obs::NodeCounter updates_abandoned_{rec_.counter("ctrl.updates_abandoned")};
  obs::NodeCounter southbound_bytes_{rec_.counter("ctrl.southbound_bytes")};
  obs::NodeCounter agg_mismatch_reports_{rec_.counter("ctrl.agg_mismatch_reports")};
  obs::Counter events_seen_{rec_.counter("ctrl.events_seen")};
  obs::Counter updates_released_{rec_.counter("sched.updates_released")};
  obs::Histogram update_ack_ms_{rec_.latency_histogram("ctrl.update_ack_ms")};
  /// First-send instant per un-acked update; populated unconditionally
  /// (the retransmission path relies on it), observed into metrics only
  /// when obs is attached.
  std::map<sched::UpdateId, sim::SimTime> update_sent_at_;

 public:
  /// Originates a membership event (bootstrap controller proposes adds;
  /// any member proposes removes, §4.3) into the domain's broadcast.
  void propose_membership(EventKind kind, std::uint32_t member);
};

}  // namespace cicero::core
