// Cicero switch runtime (paper §5.2, Figs. 6a/6b).
//
// Deliberately minimal, as the paper stresses: a switch stores and
// forwards by its flow table; on a table miss it signs and emits an event;
// updates from the control plane are buffered until a quorum of identical
// updates with valid partial signatures arrives, aggregated, verified
// against the control plane's single public key, applied, and acknowledged
// with a signed ack.  Which messages arrive depends on the deployment's
// `Delivery` (Config::delivery): one aggregated signature to verify under
// controller aggregation, replica bodies and compact shares to aggregate
// and fan out on the designated switch under in-network aggregation,
// signed manifests under decentralized execution.  All three quorum
// paths (updates, manifests, in-network) share one bucket core,
// `add_partial`, and the steps around it are each written once: receipt
// stamp, duplicate answer, signed send (acks and SegmentDones), and the
// oldest-first retention rule that bounds every id memory (`remember`).
// Under the centralized/crash-tolerant baselines the switch applies the
// first copy of an update it sees — which is precisely the hole Cicero
// closes (demonstrated by the Byzantine tests).
//
// All expensive steps charge simulated CPU through the switch's CpuServer.
// Signatures are made and checked through the deployment's CryptoSuite
// (Config::crypto): real ones in tests and demos, placeholders in
// cost-only runs — the charged costs are the same either way.
#pragma once

#include <deque>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "core/cost_model.hpp"
#include "core/framework.hpp"
#include "core/crypto_suite.hpp"
#include "net/flow_table.hpp"
#include "obs/obs.hpp"
#include "sim/cpu.hpp"
#include "sim/network.hpp"

namespace cicero::core {

class SwitchRuntime {
 public:
  struct Config {
    net::NodeIndex topo_index = net::kNoNode;  ///< identity in the topology
    sim::NodeId node = sim::kInvalidNode;      ///< network endpoint
    FrameworkKind framework = FrameworkKind::kCicero;
    /// The path updates take (DESIGN.md §4.2b).  Under kInNetwork every
    /// switch can act as its domain's designated aggregator — collecting
    /// replica bodies/partials, comparing digests P4BFT-style and fanning
    /// the single aggregated update out to the target switch.  Which
    /// switch actually receives the replicas' traffic is pure routing,
    /// chosen (and re-chosen on crash) by the Deployment.
    Delivery delivery = Delivery::kDirect;
    /// Signs events/acks/SegmentDones, checks aggregates and peer signals;
    /// owned by the Deployment, outlives every switch.
    const CryptoSuite* crypto = nullptr;
    /// Topology index -> sim address of every switch, for the aggregator
    /// fan-out hop (in-network aggregation only); owned by the Deployment.
    const std::map<net::NodeIndex, sim::NodeId>* switch_directory = nullptr;
    /// Bound on the duplicate-suppression window: how many recently applied
    /// update ids the switch remembers (§5.1 idempotence).  Retransmission
    /// windows are short — a few ack-timeout doublings — so a few thousand
    /// ids comfortably outlast any retry while keeping long-run memory flat.
    /// The same bound, oldest insertion first, caps the in-network fan-out
    /// cache and the parked early SegmentDones.
    std::size_t applied_dedupe_window = 4096;
    CostModel costs;
    crypto::SchnorrKeyPair key;                ///< PKI pair (event/ack signing)
    crypto::Point group_pk;                    ///< control plane threshold PK
    std::uint32_t quorum = 3;
    std::vector<sim::NodeId> controllers;      ///< domain control plane
    sim::NodeId aggregator = sim::kInvalidNode;  ///< set under kControllerAgg
    /// Unroutable packets keep arriving while a route is missing, so an
    /// unanswered flow-request event is re-emitted after this interval
    /// (bounded retries); covers events lost to faulty controllers.
    sim::SimTime event_retry = sim::seconds(2);
    std::uint32_t event_max_retries = 10;
    /// Domain of this switch (labels the per-update trace track ids).
    net::DomainId domain = 0;
    /// Optional metrics/tracing sink, shared deployment-wide.
    obs::Observability* obs = nullptr;
  };

  /// Fired (with the applied update) right after a rule change commits to
  /// the flow table; the flow driver, consistency auditors and tests all
  /// observe through this — observers accumulate, they do not replace
  /// each other.
  using AppliedFn = std::function<void(const sched::Update&)>;

  SwitchRuntime(sim::Simulator& simulator, sim::NetworkSim& network, Config config);

  /// Data-plane entry: a packet for `match` arrived.  If a rule exists the
  /// packet forwards silently (returns true); otherwise the switch emits a
  /// signed event to its control plane (Fig. 6a) and returns false.
  /// Duplicate misses for a match with an event already outstanding do not
  /// re-emit.
  bool packet_in(const net::FlowMatch& match, double reserved_bps);

  /// Emits a teardown event for an established flow (used by the
  /// setup/teardown workload of Fig. 11c).
  void request_teardown(const net::FlowMatch& match);

  /// Link-state probing (paper §2 / future work): the link to `neighbor`
  /// failed.  The switch emits one re-route event per installed rule that
  /// forwards into the dead link, so the control plane re-establishes the
  /// affected flows consistently around the failure.
  void report_link_failure(net::NodeIndex neighbor);

  /// Network ingress; wire into NetworkSim's handler for `config.node`.
  void handle_message(sim::NodeId from, const util::Bytes& wire);

  /// Crash model (§5.1 failure handling): a down switch drops all traffic
  /// and loses its volatile state — forwarding rules, partial-signature
  /// buffers, dedup sets and in-flight event markers.
  void crash();
  /// Recovery: the switch comes back empty and re-requests a route for
  /// every rule lost in the crash plus every packet miss swallowed while
  /// down, through the normal signed-event path.
  void recover();
  bool down() const { return down_; }

  void add_applied_observer(AppliedFn fn) { observers_.push_back(std::move(fn)); }

  const net::FlowTable& table() const { return table_; }
  sim::CpuServer& cpu() { return cpu_; }
  const Config& config() const { return config_; }

  // --- stats ---
  std::uint64_t events_emitted() const { return events_emitted_.value(); }
  std::uint64_t updates_applied() const { return updates_applied_.value(); }
  std::uint64_t updates_rejected() const { return updates_rejected_.value(); }
  /// Acks re-sent for retransmitted already-applied updates (idempotent
  /// duplicate handling; the original ack was lost somewhere upstream).
  std::uint64_t acks_reissued() const { return acks_reissued_; }
  std::uint64_t crashes() const { return crashes_; }
  /// Decentralized mode: in-band SegmentDone signals sent / received.
  std::uint64_t peer_signals_sent() const { return peer_signals_sent_; }
  std::uint64_t peer_signals_received() const { return peer_signals_received_; }
  /// In-network aggregation: aggregated updates this switch fanned out as
  /// the designated aggregator (first sends; replays count separately).
  std::uint64_t agg_fanouts() const { return agg_fanouts_.value(); }
  /// In-network aggregation: cached fan-outs replayed for retransmitted
  /// replica traffic (idempotent duplicate handling at the aggregator).
  std::uint64_t agg_replays() const { return agg_replays_; }
  /// In-network aggregation: conflicting-digest groups reported via the
  /// signed-event path (one per update id, P4BFT response comparison).
  std::uint64_t agg_mismatches() const { return agg_mismatches_.value(); }
  /// Current size of the bounded duplicate-suppression set (tests).
  std::size_t applied_dedupe_size() const { return applied_ids_.size(); }

 private:
  // Identical-body counting (Fig. 6b), for updates, decentralized
  // manifests (DESIGN.md §15) and in-network aggregation (§16) alike:
  // partials are bucketed by a digest of the bytes they sign, so a
  // Byzantine controller racing a corrupted body ahead of the honest
  // copies can never block the honest quorum's bucket (nor merge with
  // it).  The key is the full SHA-256 for updates and manifests and the
  // 64-bit prefix for in-network shares, which carry only that.  The body
  // is optional because a share can open a bucket before any replica's
  // body arrives.  An accepted manifest then waits locally until every
  // listed predecessor has signaled SegmentDone.
  template <typename Body>
  struct Bucket {
    std::optional<Body> body;
    util::Bytes signing_bytes;
    std::map<crypto::ShareIndex, crypto::PartialSignature> partials;
    bool aggregating = false;
  };
  /// update id -> body digest -> bucket
  template <typename Key, typename Body>
  using Buckets = std::map<sched::UpdateId, std::map<Key, Bucket<Body>>>;
  struct AcceptedManifest {
    SegmentManifest manifest;
    std::set<sched::UpdateId> done_preds;  ///< SegmentDones received so far
  };
  /// Post-apply peer bookkeeping, kept as long as the id stays inside the
  /// dedupe window so duplicate manifests can trigger idempotent
  /// re-signaling (loss recovery without controller round trips).
  struct DecApplied {
    std::vector<SegmentPeer> succs;
    bool sink = false;
  };

  /// Completed aggregation, cached for idempotent replay while the id
  /// stays inside the dedupe window (a replica retransmitting means the
  /// target's ack got lost — resend the fan-out, not a fresh aggregate).
  struct InnetCompleted {
    util::Bytes wire;  ///< encoded AggregatedUpdateMsg
    net::NodeIndex target_topo = net::kNoNode;
    sim::NodeId target_node = sim::kInvalidNode;
  };

  /// Signs and sends a fresh event (next sequence number) to the control plane.
  void emit_event(EventKind kind, const net::FlowMatch& match, double reserved_bps = 0.0);
  void emit_flow_request(const net::FlowMatch& match, double reserved_bps,
                         std::uint32_t retries_left);
  template <typename Msg>
  void handle(sim::NodeId from, const util::Bytes& wire,
              void (SwitchRuntime::*on)(sim::NodeId, const Msg&));
  void on_update(sim::NodeId from, const UpdateMsg& m);
  void on_agg_update(sim::NodeId from, const AggUpdateMsg& m);
  /// A peer aggregator switch's fan-out (in-network aggregation).
  void on_aggregated_update(sim::NodeId from, const AggregatedUpdateMsg& m);
  void on_partial_share(sim::NodeId from, const PartialShareMsg& m);
  void note_rx(sched::UpdateId id);
  bool answer_duplicate(sched::UpdateId id, sim::NodeId to);
  /// Aggregator role (in-network mode): a replica's full body or compact
  /// share enters the bucket core; a quorum fans the aggregate out.
  void add_innet_partial(sim::NodeId from, sched::UpdateId id, std::uint64_t digest,
                         std::optional<UpdateMsg> body, util::Bytes signing_bytes,
                         const crypto::PartialSignature& partial);
  /// Replays the cached fan-out for a duplicate of a completed id; returns
  /// false when the id is not in the completed cache.
  bool replay_innet(sched::UpdateId id);
  /// Caches and sends (or, when self-targeted, applies) a fresh aggregate.
  void fan_out(const AggregatedUpdateMsg& out);
  void on_aggregator_notify(const AggregatorNotifyMsg& m);
  /// Buckets one partial under `key`; at a quorum with a body, charges
  /// aggregation + threshold verification, combines, and hands the
  /// verified body and aggregate signature to `accept`.  In in-network
  /// mode, the partial that opens an id's second bucket reports the
  /// conflict through the signed-event path.
  template <typename Key, typename Body, typename Accept>
  void add_partial(Buckets<Key, Body>& pending, sched::UpdateId id, const Key& key,
                   std::optional<Body> body, util::Bytes signing_bytes,
                   const crypto::PartialSignature& partial, const char* what, Accept accept);
  void on_manifest(sim::NodeId from, const ManifestMsg& m);
  /// Switch-local verification gate + dependency wait entry.
  void accept_manifest(const SegmentManifest& manifest);
  /// Applies an accepted manifest once every predecessor has signaled.
  void maybe_apply_manifest(sched::UpdateId id);
  void on_segment_done(sim::NodeId from, const SegmentDoneMsg& d);
  /// Signs and sends one SegmentDoneMsg per downstream peer.
  void signal_successors(sched::UpdateId id, const std::vector<SegmentPeer>& succs,
                         bool resignal);
  /// Duplicate-suppression with a bounded memory (Config::applied_dedupe_window).
  void note_applied(sched::UpdateId id);
  template <typename Order, typename Forget>
  void remember(Order& order, sched::UpdateId id, Forget forget);
  /// Notes `update` applied, then commits it to the table and acks/signals.
  void apply_update(const sched::Update& update);
  /// Signs and sends an ack to `to`, or to the whole control plane when
  /// `to` is kInvalidNode.
  void send_ack(sched::UpdateId id, sim::NodeId to, obs::CritPhase phase);
  template <typename Msg>
  void send_signed(Msg msg, sim::NodeId to, obs::CritPhase phase, std::string_view op);
  /// Re-ack of an already-applied update to the sender of a duplicate copy
  /// (idempotent retransmission handling, §5.1).
  void re_ack(sched::UpdateId id, sim::NodeId to);

  sim::Simulator& sim_;
  sim::NetworkSim& net_;
  Config config_;
  /// Lifecycle recorder (always the leader: exactly one switch applies a
  /// given update).
  obs::NodeHooks rec_;
  sim::CpuServer cpu_;
  net::FlowTable table_;
  std::vector<AppliedFn> observers_;

  std::uint64_t event_seq_ = 0;
  Buckets<crypto::Digest, UpdateMsg> pending_;
  /// Bounded dedupe set: `applied_ids_` for membership, `applied_order_`
  /// (insertion order) to retire the oldest id past the window.
  std::set<sched::UpdateId> applied_ids_;
  std::deque<sched::UpdateId> applied_order_;
  std::set<std::pair<net::NodeIndex, net::NodeIndex>> outstanding_events_;
  // Per-node counts (obs::NodeCounter: accessor + registry cell).
  obs::NodeCounter events_emitted_{rec_.counter("switch.events_emitted")};
  obs::NodeCounter updates_applied_{rec_.counter("switch.updates_applied")};
  obs::NodeCounter updates_rejected_{rec_.counter("switch.updates_rejected")};
  obs::NodeCounter agg_fanouts_{rec_.counter("switch.agg_fanouts")};
  obs::NodeCounter agg_mismatches_{rec_.counter("switch.agg_mismatches")};
  std::uint64_t acks_reissued_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t peer_signals_sent_ = 0;
  std::uint64_t peer_signals_received_ = 0;
  std::uint64_t agg_replays_ = 0;

  // In-network aggregation state (aggregator role only).
  Buckets<std::uint64_t, UpdateMsg> innet_pending_;
  std::map<sched::UpdateId, InnetCompleted> innet_completed_;
  std::deque<sched::UpdateId> innet_completed_order_;

  // Decentralized mode state.
  Buckets<crypto::Digest, SegmentManifest> pending_manifests_;
  std::map<sched::UpdateId, AcceptedManifest> accepted_;
  /// SegmentDones that raced ahead of their manifest: for_update -> preds
  /// already done.  Bounded by the dedupe window against abandoned chains.
  std::map<sched::UpdateId, std::set<sched::UpdateId>> early_done_;
  /// early_done_'s keys, oldest first (a list: it stays empty, and
  /// allocation-free, on every switch that never parks a signal).
  std::list<sched::UpdateId> early_done_order_;
  std::map<sched::UpdateId, DecApplied> dec_applied_;
  /// Highest control-plane membership epoch seen; older manifests and
  /// peer signals are stale and dropped.
  std::uint64_t phase_ = 0;

  // Crash/recover model (§5.1).
  bool down_ = false;
  std::vector<net::FlowRule> lost_rules_;  ///< table at crash time
  /// Packet misses swallowed while down: (src,dst) -> reserved bandwidth.
  std::map<std::pair<net::NodeIndex, net::NodeIndex>, double> missed_while_down_;

  obs::Histogram update_apply_ms_{rec_.latency_histogram("switch.update_apply_ms")};
  /// update id -> first receipt time (metrics runs only).
  std::map<sched::UpdateId, sim::SimTime> first_rx_;
};

}  // namespace cicero::core
