#include "core/switch_runtime.hpp"

#include <algorithm>
#include <type_traits>

#include "util/logging.hpp"

namespace cicero::core {

namespace {
constexpr const char* kLog = "switch";
}

SwitchRuntime::SwitchRuntime(sim::Simulator& simulator, sim::NetworkSim& network, Config config)
    : sim_(simulator), net_(network), config_(std::move(config)),
      rec_(config_.obs, config_.node, config_.domain, [&s = simulator] { return s.now(); }),
      cpu_(simulator) {
  if (config_.obs != nullptr) cpu_.set_obs(config_.obs, config_.node, obs::kTidMain);
}

bool SwitchRuntime::packet_in(const net::FlowMatch& match, double reserved_bps) {
  const auto key = std::make_pair(match.src_host, match.dst_host);
  if (down_) {
    // Traffic keeps arriving at a crashed switch; remember the miss so
    // recovery can re-request the route.
    missed_while_down_.emplace(key, reserved_bps);
    return false;
  }
  if (table_.has(match)) return true;
  if (outstanding_events_.count(key) != 0) return false;  // event already in flight
  outstanding_events_.insert(key);
  emit_flow_request(match, reserved_bps, config_.event_max_retries);
  return false;
}

void SwitchRuntime::emit_flow_request(const net::FlowMatch& match, double reserved_bps,
                                      std::uint32_t retries_left) {
  emit_event(EventKind::kFlowRequest, match, reserved_bps);
  if (config_.event_retry <= 0) return;
  if (retries_left == 0) {
    // Last attempt.  If it too goes unanswered, forget the outstanding
    // marker so a later packet miss can restart the request cycle —
    // leaving the key stuck would blackhole the flow permanently.
    sim_.after(config_.event_retry, [this, match] {
      if (table_.has(match)) return;
      outstanding_events_.erase({match.src_host, match.dst_host});
    });
    return;
  }
  // While the route stays missing, unroutable packets keep arriving and a
  // fresh event (new id) is emitted — the retransmission that rides out a
  // faulty aggregator or dropped messages.
  sim_.after(config_.event_retry, [this, match, reserved_bps, retries_left] {
    if (table_.has(match)) return;
    if (outstanding_events_.count({match.src_host, match.dst_host}) == 0) return;
    emit_flow_request(match, reserved_bps, retries_left - 1);
  });
}

void SwitchRuntime::crash() {
  if (down_) return;
  down_ = true;
  ++crashes_;
  CICERO_LOG_INFO(kLog, "s%u: crash (losing %zu rules)", config_.topo_index, table_.size());
  // Volatile state is gone: forwarding rules, partial-signature buffers,
  // dedup sets and in-flight event markers.  Losing applied_ids_ is
  // deliberate — after recovery a retransmitted update is genuinely new
  // to this switch and re-applying it re-installs the lost rule.
  lost_rules_ = table_.rules();
  table_ = net::FlowTable{};
  pending_.clear();
  applied_ids_.clear();
  applied_order_.clear();
  outstanding_events_.clear();
  first_rx_.clear();
  missed_while_down_.clear();
  // Crash-during-handoff (decentralized): manifests received but not yet
  // applied die with the switch, and the controller's retransmissions may
  // exhaust before recovery.  Record each pending install as a missed
  // route so recover() re-requests it through the signed-event path — the
  // control plane then schedules a fresh chain instead of this switch
  // waiting forever for SegmentDones from an abandoned one.
  const auto miss = [this](const sched::Update& u) {
    if (u.op != sched::UpdateOp::kInstall) return;
    missed_while_down_.emplace(std::make_pair(u.rule.match.src_host, u.rule.match.dst_host),
                               u.rule.reserved_bps);
  };
  for (const auto& [id, am] : accepted_) miss(am.manifest.update);
  for (const auto& [id, buckets] : pending_manifests_) {
    for (const auto& [digest, bucket] : buckets) {
      if (bucket.body) miss(bucket.body->update);
    }
  }
  pending_manifests_.clear();
  accepted_.clear();
  early_done_.clear();
  early_done_order_.clear();
  dec_applied_.clear();
  // Aggregator role (in-network mode): buffered replica traffic and the
  // fan-out cache die with the switch.  Liveness comes from the replicas'
  // ack timers — their retransmissions escalate to full bodies and are
  // routed to the domain's re-designated aggregator by the Deployment.
  innet_pending_.clear();
  innet_completed_.clear();
  innet_completed_order_.clear();
}

void SwitchRuntime::recover() {
  if (!down_) return;
  down_ = false;
  // Re-request a route for every rule lost in the crash and every packet
  // miss swallowed while down, through the normal signed-event path.
  std::map<std::pair<net::NodeIndex, net::NodeIndex>, double> wanted;
  for (const net::FlowRule& rule : lost_rules_) {
    wanted.emplace(std::make_pair(rule.match.src_host, rule.match.dst_host),
                   rule.reserved_bps);
  }
  wanted.insert(missed_while_down_.begin(), missed_while_down_.end());
  lost_rules_.clear();
  missed_while_down_.clear();
  CICERO_LOG_INFO(kLog, "s%u: recover (re-requesting %zu routes)", config_.topo_index,
                  wanted.size());
  for (const auto& [key, bps] : wanted) {
    if (outstanding_events_.count(key) != 0) continue;
    outstanding_events_.insert(key);
    emit_flow_request(net::FlowMatch{key.first, key.second}, bps,
                      config_.event_max_retries);
  }
}

void SwitchRuntime::request_teardown(const net::FlowMatch& match) {
  if (down_) return;
  emit_event(EventKind::kFlowTeardown, match);
}

void SwitchRuntime::report_link_failure(net::NodeIndex neighbor) {
  if (down_) return;
  for (const net::FlowRule& rule : table_.rules()) {
    if (rule.next_hop != neighbor) continue;
    emit_event(EventKind::kFlowRequest, rule.match, rule.reserved_bps);  // re-route request
  }
}

void SwitchRuntime::emit_event(EventKind kind, const net::FlowMatch& match,
                               double reserved_bps) {
  Event e;
  e.id = EventId{config_.topo_index, ++event_seq_};
  e.kind = kind;
  e.match = match;
  e.reserved_bps = reserved_bps;
  events_emitted_.inc();
  config_.crypto->sign(config_.key, e);
  // Miss detection + event signing cost, then transmit (Fig. 6a).
  cpu_.execute(config_.costs.packet_in_cost + config_.costs.event_sign,
               "packet_in.sign", [this, e = std::move(e)] {
                 const util::Bytes wire = e.encode();
                 if (config_.delivery == Delivery::kControllerAgg &&
                     config_.aggregator != sim::kInvalidNode) {
                   net_.send(config_.node, config_.aggregator, wire);
                 } else {
                   net_.multicast(config_.node, config_.controllers, wire);
                 }
               });
}

void SwitchRuntime::handle_message(sim::NodeId from, const util::Bytes& wire) {
  if (down_) return;  // a crashed switch drops all traffic
  const auto tag = peek_tag(wire);
  if (!tag) return;
  switch (static_cast<CoreMsgTag>(*tag)) {
    case CoreMsgTag::kUpdate: return handle(from, wire, &SwitchRuntime::on_update);
    case CoreMsgTag::kAggUpdate: return handle(from, wire, &SwitchRuntime::on_agg_update);
    case CoreMsgTag::kPartialShare: return handle(from, wire, &SwitchRuntime::on_partial_share);
    case CoreMsgTag::kAggregatedUpdate:
      return handle(from, wire, &SwitchRuntime::on_aggregated_update);
    case CoreMsgTag::kManifest: return handle(from, wire, &SwitchRuntime::on_manifest);
    case CoreMsgTag::kSegmentDone: return handle(from, wire, &SwitchRuntime::on_segment_done);
    case CoreMsgTag::kAggregatorNotify:
      if (auto m = AggregatorNotifyMsg::decode(wire)) on_aggregator_notify(*m);
      return;
    default:
      CICERO_LOG_DEBUG(kLog, "s%u: unexpected tag 0x%02x", config_.topo_index, *tag);
  }
}

// Every control message but the aggregator notice takes one path in:
// decode, charge the handling cost, then dispatch to its handler.
template <typename Msg>
void SwitchRuntime::handle(sim::NodeId from, const util::Bytes& wire,
                           void (SwitchRuntime::*on)(sim::NodeId, const Msg&)) {
  if (auto m = Msg::decode(wire)) {
    cpu_.execute(config_.costs.ctrl_msg_handling, "msg.handle",
                 [this, from, on, m = std::move(*m)] { (this->*on)(from, m); });
  }
}

void SwitchRuntime::on_aggregator_notify(const AggregatorNotifyMsg& m) {
  config_.aggregator = m.aggregator;
  config_.quorum = m.quorum;
  if (!m.controllers.empty()) config_.controllers = m.controllers;
}

void SwitchRuntime::on_update(sim::NodeId from, const UpdateMsg& m) {
  if (down_) return;
  if (config_.delivery == Delivery::kInNetwork) {
    // In-network mode the replicas only ever address the designated
    // aggregator, so every body copy arriving here is aggregation input.
    util::Bytes signing_bytes = update_signing_bytes(m.update);
    const std::uint64_t digest = signing_digest64(signing_bytes);
    add_innet_partial(from, m.update.id, digest, m, std::move(signing_bytes), m.partial);
    return;
  }
  // A duplicate means the sender retransmitted because it never saw our
  // ack (or its partial arrived after the quorum closed).
  if (answer_duplicate(m.update.id, from)) return;
  note_rx(m.update.id);

  if (!threshold_signed(config_.framework)) {
    // No quorum authentication: the first copy of the update is applied
    // as-is.  (This is the attack surface the Byzantine tests exploit.)
    apply_update(m.update);
    return;
  }

  // Cicero switch aggregation (Fig. 6b): buffer identical updates until a
  // quorum of distinct signers accumulated, bucketed by update body.
  if (m.partial.signer == 0) return;  // Cicero updates must carry a partial
  util::Bytes signing_bytes = update_signing_bytes(m.update);
  const crypto::Digest digest = crypto::Sha256::hash(signing_bytes);
  add_partial(pending_, m.update.id, digest, std::optional(m), std::move(signing_bytes),
              m.partial, "update", [this](const UpdateMsg& verified, const util::Bytes&) {
                apply_update(verified.update);
              });
}

template <typename Key, typename Body, typename Accept>
void SwitchRuntime::add_partial(Buckets<Key, Body>& pending, sched::UpdateId id, const Key& key,
                                std::optional<Body> body, util::Bytes signing_bytes,
                                const crypto::PartialSignature& partial, const char* what,
                                Accept accept) {
  auto& buckets = pending[id];
  const auto [slot, opened] = buckets.try_emplace(key);
  Bucket<Body>& bucket = slot->second;
  if (!bucket.body && body) {
    bucket.body = std::move(body);
    bucket.signing_bytes = std::move(signing_bytes);
  }
  bucket.partials[partial.signer] = partial;
  // An id's buckets only grow until it is erased, so opening the second
  // one happens at most once per pending id.
  if (opened && buckets.size() == 2) {
    CICERO_LOG_WARN(kLog, "s%u: conflicting %s bodies for id %llu", config_.topo_index, what,
                    static_cast<unsigned long long>(id));
    if (config_.delivery == Delivery::kInNetwork) {
      // P4BFT-style response comparison: conflicting digests mean at least
      // one replica lied about this update.  Report through the signed-
      // event path so the control plane sees an authenticated, attributable
      // alarm; the honest quorum's bucket still aggregates on its own.
      agg_mismatches_.inc();
      net::FlowMatch match;
      for (const auto& [k, b] : buckets) {
        if (!b.body) continue;
        match = b.body->update.rule.match;
        break;
      }
      emit_event(EventKind::kAggMismatch, match);
    }
  }
  if (bucket.aggregating || !bucket.body || bucket.partials.size() < config_.quorum) return;
  bucket.aggregating = true;

  // Charge aggregation (per-share Lagrange work) + threshold verification.
  const sim::SimTime cost =
      config_.costs.aggregate_per_share * static_cast<sim::SimTime>(config_.quorum) +
      config_.costs.threshold_verify;
  cpu_.execute(cost, "aggregate", [this, &pending, id, key, what, accept] {
    if (down_) return;
    const auto it = pending.find(id);
    if (it == pending.end()) return;
    const auto bit = it->second.find(key);
    if (bit == it->second.end()) return;
    Bucket<Body>& b = bit->second;
    b.aggregating = false;
    if (applied_ids_.count(id) != 0 || accepted_.count(id) != 0 ||
        innet_completed_.count(id) != 0) {
      return;
    }
    auto agg_sig =
        config_.crypto->combine(config_.group_pk, b.signing_bytes, b.partials, config_.quorum);
    if (!agg_sig) {
      // Wait for more partials; a later arrival retries.
      updates_rejected_.inc();
      CICERO_LOG_WARN(kLog, "s%u: %s aggregate verification failed for update %llu",
                      config_.topo_index, what, static_cast<unsigned long long>(id));
      return;
    }
    const Body verified = std::move(*b.body);
    pending.erase(it);
    accept(verified, *agg_sig);
  });
}

// ---------------------------------------------------------------------------
// In-network aggregation (P4BFT-style offload; DESIGN.md §16)
// ---------------------------------------------------------------------------

bool SwitchRuntime::replay_innet(sched::UpdateId id) {
  const auto it = innet_completed_.find(id);
  if (it == innet_completed_.end()) return false;
  // The replica retransmitted because it never saw the target's ack —
  // resend the cached fan-out; the target's own dedupe then re-acks the
  // whole control plane.  When the target is this switch, the apply-side
  // dedupe in add_innet_partial already re-acked.
  if (it->second.target_topo == config_.topo_index) return true;
  ++agg_replays_;
  const util::Bytes wire = it->second.wire;
  rec_.phase_bytes(obs::CritPhase::kRetransmit, wire.size());
  net_.send(config_.node, it->second.target_node, wire);
  return true;
}

void SwitchRuntime::on_partial_share(sim::NodeId from, const PartialShareMsg& m) {
  if (down_ || config_.delivery != Delivery::kInNetwork) return;
  add_innet_partial(from, m.update_id, m.digest, std::nullopt, {}, m.partial);
}

void SwitchRuntime::add_innet_partial(sim::NodeId from, sched::UpdateId id,
                                      std::uint64_t digest, std::optional<UpdateMsg> body,
                                      util::Bytes signing_bytes,
                                      const crypto::PartialSignature& partial) {
  // Self-targeted update already applied (and evicted from the fan-out
  // cache, or applied via an escalated duplicate): plain re-ack.
  if (replay_innet(id) || answer_duplicate(id, from)) return;
  if (partial.signer == 0) return;  // in-network updates must carry a partial
  add_partial(innet_pending_, id, digest, std::move(body), std::move(signing_bytes), partial,
              "in-network", [this](const UpdateMsg& verified, const util::Bytes& agg_sig) {
                fan_out(AggregatedUpdateMsg{verified.update, verified.cause, agg_sig});
              });
}

void SwitchRuntime::fan_out(const AggregatedUpdateMsg& out) {
  const sched::UpdateId id = out.update.id;
  const util::Bytes wire = out.encode();
  // Cache the fan-out for idempotent replay; bounded like the apply-side
  // dedupe window (retransmission windows are short).
  const auto dir = config_.switch_directory;
  const sim::NodeId target = dir != nullptr && dir->count(out.update.switch_node) != 0
                                 ? dir->at(out.update.switch_node)
                                 : sim::kInvalidNode;
  innet_completed_[id] = InnetCompleted{wire, out.update.switch_node, target};
  remember(innet_completed_order_, id,
           [this](sched::UpdateId old) { innet_completed_.erase(old); });

  agg_fanouts_.inc();
  rec_.update_aggregated(id, wire.size());
  if (out.update.switch_node == config_.topo_index) {
    // The aggregator is itself the target: skip the network hop (and
    // re-verifying a signature this switch just produced).
    apply_update(out.update);
    return;
  }
  if (target == sim::kInvalidNode) return;  // no directory: nothing to fan out to
  net_.send(config_.node, target, wire);
}

// Same dedupe/verify/apply path as controller-side aggregation: the only
// difference is who aggregated (a peer switch).
void SwitchRuntime::on_aggregated_update(sim::NodeId from, const AggregatedUpdateMsg& m) {
  on_agg_update(from, AggUpdateMsg{m.update, m.cause, m.agg_sig});
}

void SwitchRuntime::on_agg_update(sim::NodeId /*from*/, const AggUpdateMsg& m) {
  if (down_) return;
  // The aggregator forwards retransmissions on behalf of whichever
  // controller is still missing the ack, so the re-ack goes to the whole
  // control plane rather than just the aggregator.
  if (answer_duplicate(m.update.id, sim::kInvalidNode)) return;
  note_rx(m.update.id);
  cpu_.execute(config_.costs.threshold_verify, "threshold.verify", [this, m] {
    if (down_) return;
    if (applied_ids_.count(m.update.id) != 0) return;
    if (!config_.crypto->verify_update(config_.group_pk, m.update, m.agg_sig)) {
      updates_rejected_.inc();
      CICERO_LOG_WARN(kLog, "s%u: bad aggregated signature for update %llu", config_.topo_index,
                      static_cast<unsigned long long>(m.update.id));
      return;
    }
    apply_update(m.update);
  });
}

// First receipt of a fresh update or manifest: the apply-latency start
// and the lifecycle's rx fact.
void SwitchRuntime::note_rx(sched::UpdateId id) {
  if (config_.obs != nullptr) first_rx_.emplace(id, sim_.now());
  rec_.update_rx(id);
}

// Idempotent retransmission handling (§5.1): a copy of an applied id is
// answered instead of re-applied.  An applied segment re-signals its
// successors (the likely lost messages) and re-acks only as its chain's
// sink; anything else re-acks `to`.
bool SwitchRuntime::answer_duplicate(sched::UpdateId id, sim::NodeId to) {
  if (applied_ids_.count(id) == 0) return false;
  const auto dec = dec_applied_.find(id);
  if (dec != dec_applied_.end()) signal_successors(id, dec->second.succs, /*resignal=*/true);
  if (dec == dec_applied_.end() || dec->second.sink) re_ack(id, to);
  return true;
}

void SwitchRuntime::note_applied(sched::UpdateId id) {
  if (!applied_ids_.insert(id).second) return;
  remember(applied_order_, id, [this](sched::UpdateId old) {
    applied_ids_.erase(old);
    dec_applied_.erase(old);
  });
}

// The one retention rule for the switch's bounded memories — applied ids
// (with their decentralized peers), cached fan-outs and parked
// SegmentDones: `order` holds the remembered ids oldest first, and past
// Config::applied_dedupe_window the oldest is handed to `forget`.
template <typename Order, typename Forget>
void SwitchRuntime::remember(Order& order, sched::UpdateId id, Forget forget) {
  order.push_back(id);
  while (order.size() > config_.applied_dedupe_window) {
    forget(order.front());
    order.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Decentralized execution (ez-Segway mode; DESIGN.md §15)
// ---------------------------------------------------------------------------

void SwitchRuntime::on_manifest(sim::NodeId from, const ManifestMsg& m) {
  if (down_) return;
  if (m.epoch < phase_) return;  // stale control-plane epoch
  phase_ = m.epoch;
  const sched::UpdateId id = m.manifest.update.id;
  // A duplicate segment: the controller retransmitted because the chain's
  // sink never acked.
  if (answer_duplicate(id, from)) return;
  note_rx(id);

  if (!threshold_signed(config_.framework)) {
    if (accepted_.count(id) == 0) accept_manifest(m.manifest);
    return;
  }

  // Cicero: identical-manifest counting, bucketed by the signed bytes
  // (which pin the segment's position in the chain, not just the rule).
  if (m.partial.signer == 0) return;  // Cicero manifests must carry a partial
  util::Bytes signing_bytes = manifest_signing_bytes(m.manifest, m.epoch);
  const crypto::Digest digest = crypto::Sha256::hash(signing_bytes);
  add_partial(pending_manifests_, id, digest, std::optional(m.manifest),
              std::move(signing_bytes), m.partial, "manifest",
              [this](const SegmentManifest& manifest, const util::Bytes&) {
                accept_manifest(manifest);
              });
}

void SwitchRuntime::accept_manifest(const SegmentManifest& manifest) {
  const sched::UpdateId id = manifest.update.id;
  // Switch-local precondition (the decentralized analogue of the
  // controller-side consistency proof): an install whose next hop is this
  // switch itself would forward traffic into a one-hop loop.  A quorum of
  // honest controllers never produces one, so this only fires on corrupted
  // manifests that slipped past a first-copy baseline.
  if (manifest.update.op == sched::UpdateOp::kInstall &&
      manifest.update.rule.next_hop == config_.topo_index) {
    updates_rejected_.inc();
    CICERO_LOG_WARN(kLog, "s%u: rejecting manifest %llu (self-loop next hop)",
                    config_.topo_index, static_cast<unsigned long long>(id));
    return;
  }
  AcceptedManifest& am = accepted_[id];
  am.manifest = manifest;
  const auto early = early_done_.find(id);
  if (early != early_done_.end()) {
    am.done_preds.insert(early->second.begin(), early->second.end());
    early_done_.erase(early);
    early_done_order_.erase(std::find(early_done_order_.begin(), early_done_order_.end(), id));
  }
  maybe_apply_manifest(id);
}

void SwitchRuntime::maybe_apply_manifest(sched::UpdateId id) {
  const auto it = accepted_.find(id);
  if (it == accepted_.end()) return;
  for (const SegmentPeer& p : it->second.manifest.preds) {
    if (it->second.done_preds.count(p.update_id) == 0) return;
  }
  const SegmentManifest manifest = std::move(it->second.manifest);
  accepted_.erase(it);
  rec_.update_peer_ready(id);
  apply_update(manifest.update);
  dec_applied_[id] = DecApplied{manifest.succs, manifest.sink};  // read once the apply lands
}

void SwitchRuntime::on_segment_done(sim::NodeId /*from*/, const SegmentDoneMsg& d) {
  if (down_) return;
  if (d.epoch < phase_) return;  // stale epoch
  phase_ = d.epoch;
  ++peer_signals_received_;
  // The one mode read outside the suite (DESIGN.md §4.2a): modeled runs
  // charge nothing for this verify.  Making the charge unconditional would
  // move the decentralized runs' simulated outputs.
  const bool verify = threshold_signed(config_.framework) && config_.crypto->real();
  const sim::SimTime cost = verify ? config_.costs.ack_verify : sim::SimTime{0};
  cpu_.execute(cost, "segdone.verify", [this, verify, d] {
    if (down_) return;
    if (verify && !config_.crypto->verify_segment_done(d)) {
      updates_rejected_.inc();
      CICERO_LOG_WARN(kLog, "s%u: bad SegmentDone signature from s%u", config_.topo_index,
                      d.switch_node);
      return;
    }
    if (applied_ids_.count(d.for_update) != 0) return;  // already applied
    const auto it = accepted_.find(d.for_update);
    if (it != accepted_.end()) {
      it->second.done_preds.insert(d.done_update);
      maybe_apply_manifest(d.for_update);
      return;
    }
    // Signal raced ahead of the manifest (or its quorum); park it.  The
    // bound keeps abandoned chains from pinning memory.
    const auto [parked, fresh] = early_done_.try_emplace(d.for_update);
    parked->second.insert(d.done_update);
    if (fresh) {
      remember(early_done_order_, d.for_update,
               [this](sched::UpdateId old) { early_done_.erase(old); });
    }
  });
}

void SwitchRuntime::signal_successors(sched::UpdateId id,
                                      const std::vector<SegmentPeer>& succs, bool resignal) {
  for (const SegmentPeer& succ : succs) {
    if (succ.node == sim::kInvalidNode) continue;
    send_signed(SegmentDoneMsg{succ.update_id, id, config_.topo_index, phase_, {}}, succ.node,
                resignal ? obs::CritPhase::kRetransmit : obs::CritPhase::kPeerSignal,
                "segdone.sign");
  }
}

void SwitchRuntime::apply_update(const sched::Update& update) {
  note_applied(update.id);
  rec_.apply_begin(update.id);
  cpu_.execute(config_.costs.flow_table_update, "flow_table.update", [this, update] {
    if (down_) return;
    if (update.op == sched::UpdateOp::kInstall) {
      table_.install(update.rule);
      outstanding_events_.erase({update.rule.match.src_host, update.rule.match.dst_host});
    } else {
      table_.remove(update.rule.match);
    }
    updates_applied_.inc();
    const auto rx = first_rx_.find(update.id);
    if (rx != first_rx_.end()) {
      update_apply_ms_.observe(sim::to_ms(sim_.now() - rx->second));
      first_rx_.erase(rx);
    }
    rec_.update_applied(update.id);
    for (const auto& observer : observers_) observer(update);
    const auto dec = dec_applied_.find(update.id);
    if (dec != dec_applied_.end()) {
      // Decentralized: done signals flow in-band to the downstream peers;
      // only the chain sink acks the control plane (for its whole chain).
      signal_successors(update.id, dec->second.succs, /*resignal=*/false);
      if (dec->second.sink) send_ack(update.id, sim::kInvalidNode, obs::CritPhase::kPropagate);
    } else {
      send_ack(update.id, sim::kInvalidNode, obs::CritPhase::kPropagate);
    }
  });
}

void SwitchRuntime::send_ack(sched::UpdateId id, sim::NodeId to, obs::CritPhase phase) {
  send_signed(AckMsg{id, config_.topo_index, {}}, to, phase, "ack.sign");
}

// The one signed send, for acks and SegmentDones: PKI-signed under the
// threshold-signed frameworks (signing charged), then sent to `to` — or
// to the whole control plane when `to` is kInvalidNode.
template <typename Msg>
void SwitchRuntime::send_signed(Msg msg, sim::NodeId to, obs::CritPhase phase,
                                std::string_view op) {
  const bool sign = threshold_signed(config_.framework);
  if (sign) config_.crypto->sign(config_.key, msg);
  const sim::SimTime cost = sign ? config_.costs.ack_sign : sim::SimTime{0};
  cpu_.execute(cost, op, [this, to, phase, msg = std::move(msg)] {
    if (down_) return;
    if constexpr (std::is_same_v<Msg, SegmentDoneMsg>) ++peer_signals_sent_;
    const util::Bytes wire = msg.encode();
    const bool everyone = to == sim::kInvalidNode;
    rec_.phase_bytes(phase, wire.size() * (everyone ? config_.controllers.size() : 1));
    if (everyone) {
      net_.multicast(config_.node, config_.controllers, wire);
    } else {
      net_.send(config_.node, to, wire);
    }
  });
}

void SwitchRuntime::re_ack(sched::UpdateId id, sim::NodeId to) {
  ++acks_reissued_;
  send_ack(id, to, obs::CritPhase::kRetransmit);
}

}  // namespace cicero::core
