// PBFT-style atomic broadcast replica.
//
// From-scratch stand-in for BFT-SMaRt (DESIGN.md §1): three-phase ordering
// (pre-prepare / prepare / commit) with f = ⌊(n-1)/3⌋ Byzantine tolerance,
// 2f+1 quorums, request retransmission and view changes for liveness under
// a faulty primary.  Controllers submit opaque payloads; all correct
// replicas deliver the same payload sequence exactly once (dedup by
// request id across view changes).
//
// Simplifications vs. production PBFT, documented for reviewers:
//   * no checkpointing / log truncation (runs are finite simulations);
//   * view-change NEW-VIEW re-issues every prepared request (view-change
//     messages report delivered entries too) above the *lowest* delivered
//     seq in the view-change quorum, so laggards catch up without state
//     transfer, and fills holes with explicit no-op entries rather than
//     proving them with per-seq certificates.
// Neither affects the safety/liveness properties the tests check.
//
// Fault injection for tests: `crash()` silences the replica;
// `set_equivocate(true)` makes it (as primary) send conflicting
// pre-prepares to different backups — the classic Byzantine primary.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "bft/messages.hpp"
#include "crypto/schnorr.hpp"
#include "obs/obs.hpp"
#include "sim/cpu.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace cicero::bft {

struct PbftConfig {
  ReplicaId id = 0;                       ///< our index in `group`
  std::vector<sim::NodeId> group;         ///< network node per replica id
  sim::SimTime request_timeout = sim::milliseconds(200);
  bool sign_messages = true;              ///< Schnorr-sign every message
  /// Simulated CPU charged per received message (models verification and
  /// handling); applied through `cpu` when provided.
  sim::SimTime msg_processing_cost = 0;
  sim::CpuServer* cpu = nullptr;
  /// Optional metrics/tracing sink (phase counters, order latency,
  /// view-change instants on this replica's node row).
  obs::Observability* obs = nullptr;
};

/// Per-group key material: one Schnorr key pair per replica.
struct PbftKeys {
  crypto::SchnorrKeyPair own;
  std::vector<crypto::Point> replica_pks;  ///< indexed by ReplicaId
};

class PbftReplica {
 public:
  using DeliverFn = std::function<void(SeqNum seq, const util::Bytes& payload)>;

  PbftReplica(sim::Simulator& simulator, sim::NetworkSim& network, PbftConfig config,
              PbftKeys keys, DeliverFn deliver);
  /// Replicas are rebuilt on membership changes; the destructor disarms
  /// any timer callbacks still queued in the simulator.
  ~PbftReplica();

  /// Submits a payload for total ordering (callable on any replica).
  void submit(util::Bytes payload);

  /// Entry point for network messages addressed to this replica; the owner
  /// wires this into its NetworkSim handler (possibly demuxed with other
  /// traffic).  `from` authenticates the channel: a message is dropped
  /// unless `group[msg.sender] == from`, so a member speaks only for itself.
  void on_message(sim::NodeId from, const util::Bytes& wire);

  ReplicaId id() const { return config_.id; }
  ViewId view() const { return view_; }
  SeqNum last_delivered() const { return last_delivered_; }
  bool is_primary() const { return primary_of(view_) == config_.id; }
  std::size_t n() const { return config_.group.size(); }
  std::size_t f() const { return (n() - 1) / 3; }
  std::size_t quorum() const { return 2 * f() + 1; }

  // --- fault injection (tests only) ---
  void crash() { crashed_ = true; }
  bool crashed() const { return crashed_; }
  void set_equivocate(bool on) { equivocate_ = on; }

 private:
  // Requests are identified by their *payload digest*: when several
  // replicas submit the same payload (e.g. every controller relaying the
  // same switch event, paper §4.1) the protocol orders and delivers it
  // exactly once.
  using ReqKey = std::pair<std::uint64_t, std::uint64_t>;
  static ReqKey request_key(const BftRequest& r);

  struct LogEntry {
    std::optional<BftRequest> request;
    ReqKey key{};  ///< request_key(*request), set with `request` (not for no-ops)
    crypto::Digest digest{};
    ViewId view = 0;
    std::set<ReplicaId> prepare_senders;
    std::set<ReplicaId> commit_senders;
    bool prepared = false;
    bool committed = false;
    bool noop = false;
  };

  ReplicaId primary_of(ViewId v) const { return static_cast<ReplicaId>(v % n()); }
  sim::NodeId node_of(ReplicaId r) const { return config_.group.at(r); }

  void send_to(ReplicaId target, const BftMessage& m);
  /// To all others, no loopback: one signed encoding, one shared buffer.
  void send_to_peers(const BftMessage& m);
  void broadcast(const BftMessage& m);      ///< to all others + loopback handling
  util::Bytes sign_and_encode(const BftMessage& m) const;

  void handle(const BftMessage& m);
  void handle_request(const BftMessage& m);
  /// Records a request under the key its caller computed (once per
  /// replica) and, on the primary, orders it.
  void accept_request(const BftRequest& request, const ReqKey& key);
  /// `own_key` is set only for the primary's own pre-prepare, whose digest
  /// it computed itself; a pre-prepare off the wire is checked and keyed.
  void handle_pre_prepare(const BftMessage& m, const ReqKey* own_key = nullptr);
  void handle_prepare(const BftMessage& m);
  void handle_commit(const BftMessage& m);
  void handle_view_change(const BftMessage& m);
  void handle_new_view(const BftMessage& m);
  void handle_fetch(const BftMessage& m);
  void handle_fetch_reply(const BftMessage& m);
  void try_deliver_fetched();

  void order_request(const BftRequest& request, const ReqKey& key);  ///< primary assigns a seq
  void check_prepared(SeqNum s);
  void check_committed(SeqNum s);
  void try_deliver();
  void start_view_change(ViewId target);
  void maybe_assemble_new_view(ViewId target);
  void adopt_new_view(const BftMessage& m);
  void arm_timer();
  void on_timer();
  void resubmit_pending();

  sim::Simulator& sim_;
  sim::NetworkSim& net_;
  PbftConfig config_;
  /// Replica-to-replica wire bytes (the order phase) and view changes.
  obs::NodeHooks rec_;
  PbftKeys keys_;
  DeliverFn deliver_;
  /// Every other member's node, in replica order: one fan-out's recipients.
  std::vector<sim::NodeId> peers_;

  ViewId view_ = 0;
  bool in_view_change_ = false;
  ViewId view_change_target_ = 0;
  SeqNum next_seq_ = 1;  ///< primary's next assignment
  SeqNum last_delivered_ = 0;
  std::map<SeqNum, LogEntry> log_;
  /// An undelivered request we know, and when we last (re)heard of it.
  struct Pending {
    BftRequest request;
    sim::SimTime since = 0;
  };
  std::map<ReqKey, Pending> pending_;
  std::set<ReqKey> delivered_reqs_;
  std::set<ReqKey> ordered_reqs_;              ///< primary-side: already assigned a seq
  std::map<ViewId, std::map<ReplicaId, BftMessage>> view_changes_;
  /// Fetched state-transfer entries: seq -> request digest -> (request,
  /// confirming senders).  Delivered once f+1 responders agree; each
  /// distinct request is hashed once, however many peers report it.
  std::map<SeqNum, std::map<crypto::Digest, std::pair<BftRequest, std::set<ReplicaId>>>>
      fetched_;
  std::uint64_t local_req_seq_ = 0;
  std::uint64_t timer_epoch_ = 0;
  bool crashed_ = false;
  bool equivocate_ = false;
  /// Liveness token captured by queued timer callbacks; cleared by the
  /// destructor so a callback firing after destruction is a no-op.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Metrics (no-op handles when config_.obs is null or metrics disabled).
  obs::Counter m_preprepares_{rec_.counter("bft.preprepares")};
  obs::Counter m_prepares_{rec_.counter("bft.prepares")};
  obs::Counter m_commits_{rec_.counter("bft.commits")};
  obs::Counter m_delivered_{rec_.counter("bft.delivered")};
  obs::Counter m_view_changes_{rec_.counter("bft.view_changes")};
  obs::Histogram order_latency_ms_{rec_.latency_histogram("bft.order_latency_ms")};
  void observe_order_latency(const ReqKey& key);
};

}  // namespace cicero::bft
