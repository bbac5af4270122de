#include "core/controller.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace cicero::core {

namespace {
constexpr const char* kLog = "controller";
/// PBFT request timeout: a request unordered this long triggers a view change.
constexpr sim::SimTime kBftTimeout = sim::milliseconds(400);

bft::PbftConfig make_pbft_config(const Controller::Config& c, sim::CpuServer* cpu) {
  bft::PbftConfig pc;
  // Replica id = our position in the (id-sorted) member list.
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    if (c.members[i].id == c.id) pc.id = static_cast<bft::ReplicaId>(i);
    pc.group.push_back(c.members[i].node);
  }
  pc.request_timeout = kBftTimeout;
  pc.sign_messages = false;  // PbftConfig signs by default; no evaluated setup signs BFT traffic
  pc.msg_processing_cost = c.costs.bft_msg_cost;
  pc.cpu = cpu;
  pc.obs = c.obs;
  return pc;
}

bft::PbftKeys make_pbft_keys(const Controller::Config& c) {
  bft::PbftKeys keys;
  keys.own = c.key;
  for (const auto& m : c.members) keys.replica_pks.push_back(m.pk);
  return keys;
}
}  // namespace

Controller::Controller(sim::Simulator& simulator, sim::NetworkSim& network, Config config,
                       Environment env)
    : sim_(simulator), net_(network), config_(std::move(config)), env_(std::move(env)),
      rec_(config_.obs, config_.node, config_.domain, [&s = simulator] { return s.now(); }),
      cpu_(simulator) {
  frost_ = env_.crypto->frost_party(config_.share, config_.group_pk, config_.nonce_seed);
  if (config_.obs != nullptr) cpu_.set_obs(config_.obs, config_.node, obs::kTidMain);
  rebuild_replica();
}

// Also re-derives the recorder's leader role: the aggregator (lowest id)
// records each event's and update's deployment-wide lifecycle.
void Controller::rebuild_replica() {
  replica_ = std::make_unique<bft::PbftReplica>(
      sim_, net_, make_pbft_config(config_, &cpu_), make_pbft_keys(config_),
      [this](bft::SeqNum seq, const util::Bytes& payload) { on_deliver(seq, payload); });
  rec_.set_leader(is_aggregator());
}

bool Controller::is_aggregator() const { return aggregator_member().id == config_.id; }

void Controller::send_southbound(sim::NodeId to, const util::Bytes& wire) {
  southbound_bytes_.inc(wire.size());
  net_.send(config_.node, to, wire);
}

void Controller::handle_message(sim::NodeId from, const util::Bytes& wire) {
  if (fault_ == ControllerFault::kSilent) return;
  const auto tag = peek_tag(wire);
  if (!tag) return;
  if (*tag == bft::kBftWireTag) {
    replica_->on_message(from, wire);
    return;
  }
  const sim::SimTime ack_verify =
      threshold_signed(config_.framework) ? config_.costs.ack_verify : sim::SimTime{0};
  switch (static_cast<CoreMsgTag>(*tag)) {
    case CoreMsgTag::kEvent:
      return handle(wire, config_.costs.event_verify, "event.verify", &Controller::on_event);
    case CoreMsgTag::kAck: return handle(wire, ack_verify, "ack.verify", &Controller::on_ack);
    case CoreMsgTag::kUpdate: return handle(wire, 0, "msg.handle", &Controller::on_peer_update);
    case CoreMsgTag::kFrostSession:
      return handle(wire, 0, "msg.handle", &Controller::on_frost_session);
    case CoreMsgTag::kFrostPartial:
      return handle(wire, config_.costs.partial_verify, "partial.verify",
                    &Controller::on_frost_partial);
    default:
      break;  // AggregatorNotifyMsg and switch-to-switch traffic are not ours
  }
}

// Decodes `wire` as a Msg and, when it parses, charges the handling cost
// plus `verify` before handing the message to `on`.
template <typename Msg>
void Controller::handle(const util::Bytes& wire, sim::SimTime verify, std::string_view op,
                        void (Controller::*on)(const Msg&)) {
  if (auto m = Msg::decode(wire)) {
    cpu_.execute(config_.costs.ctrl_msg_handling + verify, op,
                 [this, on, m = std::move(*m)] { (this->*on)(m); });
  }
}

// ---------------------------------------------------------------------------
// Event intake and cross-domain forwarding (Fig. 7a)
// ---------------------------------------------------------------------------

void Controller::on_event(const Event& e) {
  events_seen_.inc();
  if (events_submitted_.count(e.id) != 0 || events_processed_set_.count(e.id) != 0) return;
  if (!env_.crypto->verify_event(e)) {
    CICERO_LOG_WARN(kLog, "c%u: event with bad origin signature dropped", config_.id);
    return;
  }

  // The centralized/crash-tolerant baselines run one global control plane
  // spanning every domain: no filtering, no forwarding.
  bool ours = true;
  if (!global_plane(config_.framework) &&
      (e.kind == EventKind::kFlowRequest || e.kind == EventKind::kFlowTeardown)) {
    const auto path = env_.topology->shortest_path(e.match.src_host, e.match.dst_host);
    if (path.empty()) return;
    const auto domains = domains_of_path(path);
    ours = domains.count(config_.domain) != 0;
    if (!e.forwarded && domains.size() > 1) forward_cross_domain(e, domains);
  }
  if (!ours) return;

  events_submitted_.insert(e.id);
  rec_.event_submitted(e.id.origin, e.id.seq);
  replica_->submit(e.encode());
}

std::set<net::DomainId> Controller::domains_of_path(
    const std::vector<net::NodeIndex>& path) const {
  std::set<net::DomainId> domains;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    domains.insert(env_.topology->node(path[i]).domain);
  }
  return domains;
}

void Controller::forward_cross_domain(const Event& e, const std::set<net::DomainId>& domains) {
  for (const net::DomainId d : domains) {
    if (d == config_.domain) continue;
    const auto it = env_.members->find(d);
    if (it == env_.members->end() || it->second.empty()) continue;
    Event fwd = e;
    fwd.forwarded = true;  // never re-forwarded (§4.1)
    const util::Bytes wire = fwd.encode();
    rec_.phase_bytes(obs::CritPhase::kOrder, wire.size());
    // The remote domain's lowest-id member (any valid recipient works;
    // lowest-id matches the aggregator-selection rule).
    net_.send(config_.node, it->second.front().node, wire);
    events_forwarded_.inc();
  }
}

// ---------------------------------------------------------------------------
// Ordered delivery -> scheduling -> signed updates (Fig. 7b)
// ---------------------------------------------------------------------------

void Controller::on_deliver(bft::SeqNum seq, const util::Bytes& payload) {
  (void)seq;
  const auto e = Event::decode(payload);
  if (!e) return;
  if (membership_changing_) {
    queued_events_.push_back(*e);
    return;
  }
  process_event(*e);
}

void Controller::process_event(const Event& e) {
  if (!events_processed_set_.insert(e.id).second) return;
  if (events_submitted_.erase(e.id) != 0) rec_.event_ordered(e.id.origin, e.id.seq);
  events_processed_.inc();

  switch (e.kind) {
    case EventKind::kFlowRequest:
    case EventKind::kFlowTeardown:
      process_flow_event(e);
      break;
    case EventKind::kAddController:
    case EventKind::kRemoveController:
      if (on_membership_) on_membership_(e);
      break;
    case EventKind::kAggMismatch:
      // An aggregator switch saw conflicting replica digests for one
      // update (in-network response comparison, DESIGN.md §16).  The
      // honest quorum's bucket still aggregates on its own; the alarm is
      // recorded so operators (and the Byzantine tests) can see the
      // attempted corruption.
      agg_mismatch_reports_.inc();
      CICERO_LOG_WARN(kLog, "c%u: aggregator s%u reported conflicting update digests",
                      config_.id, e.id.origin);
      break;
  }
}

void Controller::process_flow_event(const Event& e) {
  if (fault_ == ControllerFault::kSilent) return;

  // Controller application: shortest-path routing (§5.1).
  const auto path = env_.topology->shortest_path(e.match.src_host, e.match.dst_host);
  if (path.size() < 3) return;

  sched::RouteIntent intent;
  intent.kind = e.kind == EventKind::kFlowRequest ? sched::RouteIntent::Kind::kEstablish
                                                  : sched::RouteIntent::Kind::kTeardown;
  intent.match = e.match;
  intent.path = path;
  intent.reserved_bps = e.reserved_bps;

  sched::UpdateSchedule schedule = env_.scheduler->build(intent, update_id_base(e.id));

  // Domain filter (§3.3): keep updates for our own switches; dependencies
  // on other domains' updates are dropped — each domain applies its
  // segment independently and in parallel.  Global planes keep everything.
  sched::UpdateSchedule local;
  std::set<sched::UpdateId> local_ids;
  for (const auto& su : schedule.updates) {
    if (global_plane(config_.framework) ||
        env_.topology->node(su.update.switch_node).domain == config_.domain) {
      local_ids.insert(su.update.id);
    }
  }
  for (auto& su : schedule.updates) {
    if (local_ids.count(su.update.id) == 0) continue;
    sched::ScheduledUpdate filtered;
    filtered.update = su.update;
    for (const sched::UpdateId d : su.deps) {
      if (local_ids.count(d) != 0) filtered.deps.push_back(d);
    }
    local.updates.push_back(std::move(filtered));
  }
  if (local.updates.empty()) return;

  for (const auto& su : local.updates) update_cause_[su.update.id] = e.id;

  cpu_.execute(config_.costs.route_compute, "route.compute",
               [this, eid = e.id, local = std::move(local)] {
    std::vector<sched::UpdateId> ready;
    try {
      ready = tracker_.add(local);
    } catch (const std::invalid_argument&) {
      return;  // duplicate replay of an already-scheduled event
    }
    for (const auto& su : local.updates) {
      rec_.update_scheduled(su.update.id, eid.origin, eid.seq, su.update.switch_node,
                            su.deps.size());
    }
    if (config_.delivery == Delivery::kDecentralized) {
      dispatch_decentralized(local, eid);
    } else {
      for (const sched::UpdateId id : ready) release_update(id);
    }
  });
}

void Controller::release_update(sched::UpdateId id, std::optional<sched::UpdateId> parent) {
  updates_released_.inc();
  rec_.update_released(id, parent);
  send_update(tracker_.update(id), update_cause_.at(id));
}

void Controller::send_update(const sched::Update& update, const EventId& cause) {
  if (fault_ == ControllerFault::kSilent) return;
  await_ack(update.id, cause);
  dispatch_update(update, cause);
}

// The one ack-wait entry, for controller-driven updates and chain sinks
// alike: stamp the first send and arm the retransmission timer.
void Controller::await_ack(sched::UpdateId id, const EventId& cause) {
  update_sent_at_.emplace(id, sim_.now());
  if (config_.ack_timeout <= 0 || config_.update_max_retries == 0) return;
  Inflight& fl = inflight_[id];
  fl.cause = cause;
  fl.attempt = 0;
  ++fl.epoch;
  arm_ack_timer(id, config_.ack_timeout);
}

// One ack-timeout round: if the update is still un-acked when the timer
// fires, re-sign and retransmit it (decentralized: resend the chain's
// manifests — idempotent, switches dedupe and re-signal), then re-arm with
// twice the delay.  Bounded by Config::update_max_retries; past that the
// update and every dependent that could never be released are abandoned
// outright (abandon_update) so the tracker drains and the bookkeeping is
// finalized — the switch-side event retry eventually restarts the whole
// pipeline with a fresh event if connectivity returns.
void Controller::arm_ack_timer(sched::UpdateId id, sim::SimTime delay) {
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  sim_.cancel(it->second.timer);  // re-arm: at most one pending timer per id
  const std::uint64_t epoch = it->second.epoch;
  it->second.timer = sim_.after_cancellable(delay, [this, id, epoch, delay] {
    const auto fl = inflight_.find(id);
    if (fl == inflight_.end() || fl->second.epoch != epoch) return;  // acked or re-armed
    if (fault_ == ControllerFault::kSilent || !tracker_.knows(id)) {
      inflight_.erase(fl);
      return;
    }
    if (fl->second.attempt >= config_.update_max_retries) {
      CICERO_LOG_WARN(kLog, "c%u: update %llu unacked after %u retransmits; giving up",
                      config_.id, static_cast<unsigned long long>(id), fl->second.attempt);
      abandon_update(id);
      return;
    }
    ++fl->second.attempt;
    updates_retransmitted_.inc();
    rec_.update_retry(id, fl->second.attempt);
    const auto chain = dec_chains_.find(id);  // keyed by chain sinks only
    if (chain != dec_chains_.end()) {
      // Any hop of the chain may have lost its manifest or its in-band
      // SegmentDone; resending every manifest re-triggers both (switches
      // dedupe applied segments and re-signal their successors).
      for (const SegmentManifest& m : chain->second->plan.manifests) {
        send_manifest(m, chain->second->cause, /*retransmit=*/true);
      }
    } else {
      dispatch_update(tracker_.update(id), fl->second.cause, /*retransmit=*/true);
    }
    arm_ack_timer(id, delay * 2);
  });
}

// Retry exhaustion (both execution modes): finalize every update that can
// no longer make progress.  The tracker abandons `id` plus its transitive
// dependents (none of them can ever be released once `id` will never
// complete); each abandoned id sheds its timer, latency bookkeeping and
// open trace track, so pending() drains to zero and a late ack is the
// usual already-completed no-op.  Abandoned updates keep their CritPath
// record incomplete — attribution summaries only cover completed records,
// so the 95 % floor is unaffected.
void Controller::abandon_update(sched::UpdateId id) {
  std::vector<sched::UpdateId> removed;
  const auto chain = dec_chains_.find(id);
  if (chain != dec_chains_.end()) {
    // A sink gave up: its whole ancestor closure is unreachable (only the
    // sink's ack would have completed it).
    for (const sched::UpdateId a : chain->second->plan.ancestors(id)) {
      for (const sched::UpdateId r : tracker_.abandon(a)) removed.push_back(r);
    }
    dec_chains_.erase(chain);
  } else {
    removed = tracker_.abandon(id);
  }
  // The tracker already saw `id` complete (shouldn't happen with a live
  // inflight entry, but stay defensive): shed the local state without
  // double-closing its already-closed trace track.
  if (std::find(removed.begin(), removed.end(), id) == removed.end()) shed(id);
  for (const sched::UpdateId r : removed) {
    shed(r);
    updates_abandoned_.inc();
    rec_.update_abandoned(r);
  }
}

// Every per-id record of an update that will never be acked.
void Controller::shed(sched::UpdateId id) {
  disarm_ack_timer(id);
  update_sent_at_.erase(id);
  update_cause_.erase(id);
}

void Controller::disarm_ack_timer(sched::UpdateId id) {
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  sim_.cancel(it->second.timer);
  inflight_.erase(it);
}

void Controller::dispatch_update(const sched::Update& update, const EventId& cause,
                                 bool retransmit) {
  if (fault_ == ControllerFault::kSilent) return;

  UpdateMsg msg;
  msg.update = update;
  msg.cause = cause;
  if (fault_ == ControllerFault::kMutateUpdates || fault_ == ControllerFault::kRogueUpdates) {
    // Corrupt the rule: point the flow at the wrong neighbor (a loop- or
    // blackhole-inducing change a compromised controller would make).
    msg.update.rule.next_hop = update.switch_node;
  }

  const sim::SimTime sign_cost =
      threshold_signed(config_.framework) ? config_.costs.partial_sign : sim::SimTime{0};

  const sched::UpdateId uid = update.id;
  rec_.sign_begin(uid);
  cpu_.execute(sign_cost, "update.sign", [this, uid, retransmit,
                                          msg = std::move(msg)]() mutable {
    rec_.sign_end(uid);
    if (retransmit) rec_.update_resent(uid);
    // Decision audit trail: record the exact update body we are about to
    // sign and emit (a mutating controller thereby signs evidence of its
    // own corruption; see core/audit.hpp).
    const util::Bytes signing = update_signing_bytes(msg.update);
    audit_.append(msg.cause, signing, config_.key);
    if (threshold_signed(config_.framework)) {
      if (env_.crypto->backend() == ThresholdBackend::kFrost) {
        // FROST round 1: attach a fresh one-time nonce commitment; the
        // actual partial is produced in round 2 (on_frost_session).
        msg.partial = crypto::PartialSignature{config_.share.index, {0x01}};
        msg.frost_commitment = env_.crypto->frost_commit(frost_.get());
      } else {
        msg.partial = env_.crypto->partial_sign(config_.share, signing);
      }
    }
    const bool innet = config_.delivery == Delivery::kInNetwork;
    if (innet && !retransmit && member_rank() >= config_.quorum) return;  // fast-path silence
    updates_sent_.inc();
    if (innet) {
      dispatch_innet(msg, retransmit);
    } else if (config_.delivery != Delivery::kControllerAgg) {
      ship(msg.update.switch_node, uid, msg.encode(), retransmit);
    } else if (is_aggregator()) {
      on_peer_update(msg);  // we are the aggregator: count our own partial
    } else {
      // Route through the aggregator (Fig. 7c).  The partial-carrying hop
      // is part of the signing phase's control-plane traffic.
      const util::Bytes wire = msg.encode();
      rec_.phase_bytes(retransmit ? obs::CritPhase::kRetransmit : obs::CritPhase::kSign,
                       wire.size());
      net_.send(config_.node, aggregator_member().node, wire);
    }
  });
}

// The one "signed message to its switch" tail — direct updates, manifests
// and the aggregator's shipments and replays, counted in the propagate (or
// retransmit) phase.
void Controller::ship(net::NodeIndex sw, sched::UpdateId id, const util::Bytes& wire,
                      bool retransmit) {
  const auto node = env_.switch_nodes->find(sw);
  if (node == env_.switch_nodes->end()) return;
  rec_.update_sent(id, retransmit ? obs::CritPhase::kRetransmit : obs::CritPhase::kPropagate,
                   wire.size());
  send_southbound(node->second, wire);
}

std::size_t Controller::member_rank() const {
  for (std::size_t i = 0; i < config_.members.size(); ++i) {
    if (config_.members[i].id == config_.id) return i;
  }
  return 0;
}

void Controller::dispatch_innet(const UpdateMsg& msg, bool retransmit) {
  if (config_.innet_aggregator == sim::kInvalidNode) return;
  const sched::UpdateId uid = msg.update.id;
  util::Bytes wire;
  if (retransmit || member_rank() == 0) {
    // Body supplier (or escalated retransmission): the full update, so
    // the aggregator has a bucket body to aggregate into even when every
    // optimistic share was lost or the original supplier lied.
    wire = msg.encode();
  } else {
    PartialShareMsg share;
    share.update_id = uid;
    share.digest = signing_digest64(update_signing_bytes(msg.update));
    share.partial = msg.partial;
    wire = share.encode();
  }
  // The partial-carrying hop to the aggregator switch is signing-phase
  // traffic (like controller aggregation's partial hop); the single fan-out send the
  // aggregator makes afterwards is the propagate phase.
  rec_.update_sent(uid, retransmit ? obs::CritPhase::kRetransmit : obs::CritPhase::kSign,
                   wire.size());
  send_southbound(config_.innet_aggregator, wire);
}

// ---------------------------------------------------------------------------
// Decentralized execution (ez-Segway mode; DESIGN.md §15)
// ---------------------------------------------------------------------------

void Controller::dispatch_decentralized(const sched::UpdateSchedule& local,
                                        const EventId& cause) {
  if (fault_ == ControllerFault::kSilent) return;
  auto chain = std::make_shared<DecChain>();
  chain->cause = cause;
  chain->plan = plan_decentralized(local, *env_.switch_nodes);
  // Every segment leaves the controller immediately — there is no
  // controller-side dependency wait past this point, the switches
  // sequence the chain in-band.  (The domain filter in process_flow_event
  // keeps only dependencies inside this schedule, so no segment can wait
  // on another schedule's update.)  Only the sinks are tracked for acks:
  // a sink ack covers its whole ancestor closure.
  for (const SegmentManifest& m : chain->plan.manifests) {
    updates_released_.inc();
    rec_.update_released(m.update.id);
  }
  for (const sched::UpdateId sink : chain->plan.sinks) {
    dec_chains_[sink] = chain;
    await_ack(sink, chain->cause);
  }
  for (const SegmentManifest& m : chain->plan.manifests) {
    send_manifest(m, chain->cause, /*retransmit=*/false);
  }
}

void Controller::send_manifest(const SegmentManifest& manifest, const EventId& cause,
                               bool retransmit) {
  if (fault_ == ControllerFault::kSilent) return;

  ManifestMsg msg;
  msg.manifest = manifest;
  msg.cause = cause;
  msg.epoch = membership_phase_;
  if (fault_ == ControllerFault::kMutateUpdates || fault_ == ControllerFault::kRogueUpdates) {
    // Same corruption as dispatch_update: a loop-inducing next hop.  The
    // switch-local precondition (and, under Cicero, the quorum) rejects it.
    msg.manifest.update.rule.next_hop = manifest.update.switch_node;
  }

  const bool threshold = threshold_signed(config_.framework);
  const sim::SimTime sign_cost = threshold ? config_.costs.partial_sign : sim::SimTime{0};
  const sched::UpdateId uid = manifest.update.id;
  cpu_.execute(sign_cost, "manifest.sign", [this, uid, retransmit, threshold,
                                            msg = std::move(msg)]() mutable {
    if (retransmit) rec_.update_resent(uid);
    const util::Bytes signing = manifest_signing_bytes(msg.manifest, msg.epoch);
    // Decision audit trail, as for updates: the signed bytes pin the
    // segment's position in the chain, not just the rule.
    audit_.append(msg.cause, signing, config_.key);
    if (threshold) msg.partial = env_.crypto->partial_sign(config_.share, signing);
    manifests_sent_.inc();
    ship(msg.manifest.update.switch_node, uid, msg.encode(), retransmit);
  });
}

// ---------------------------------------------------------------------------
// Acknowledgements -> dependency release
// ---------------------------------------------------------------------------

void Controller::on_ack(const AckMsg& ack) {
  if (threshold_signed(config_.framework) && !env_.crypto->verify_ack(ack)) {
    CICERO_LOG_WARN(kLog, "c%u: ack with bad signature dropped", config_.id);
    return;
  }
  acks_received_.inc();
  const sched::UpdateId acked = ack.update_id;
  const bool decentralized = config_.delivery == Delivery::kDecentralized;
  const auto chain = dec_chains_.find(acked);
  if (decentralized && chain == dec_chains_.end()) return;  // duplicate sink ack, or not a sink

  // The first ack ends the wait: no more retransmissions, and one
  // round-trip sample (first send -> ack; per chain sink when
  // decentralized).
  disarm_ack_timer(acked);
  const auto sent = update_sent_at_.find(acked);
  const bool first = sent != update_sent_at_.end();
  if (first) {
    update_ack_ms_.observe(sim::to_ms(sim_.now() - sent->second));
    update_sent_at_.erase(sent);
  }

  if (decentralized) {
    // A sink acked: its whole ancestor closure is installed (the sink's
    // local preconditions required every upstream SegmentDone,
    // transitively).  Complete the closure in the tracker, stamp the acked
    // milestone on every segment (records stay complete, keeping the
    // attribution floor intact) and close the lifecycle traces.
    const std::shared_ptr<DecChain> ch = chain->second;
    dec_chains_.erase(chain);
    for (const sched::UpdateId id : ch->plan.ancestors(acked)) {
      if (!ch->finalized.insert(id).second) continue;  // shared with another sink
      tracker_.complete(id);  // ready list unused: every segment already shipped
      update_cause_.erase(id);
      rec_.update_acked(id, /*close=*/true, /*arrow_end=*/id == acked);
    }
    return;
  }
  rec_.update_acked(acked, /*close=*/first, /*arrow_end=*/first);
  // Retransmits use inflight_'s copy, so the cause can go — but only once
  // the tracker has scheduled the id.  An ack can outrun our own
  // route.compute (the switch answered a faster replica's copy while ours
  // is still queued); erasing then would strip the cause the pending
  // dispatch still reads.  The switch dedupes our late copy and re-acks.
  if (tracker_.knows(acked)) update_cause_.erase(acked);
  for (const sched::UpdateId id : tracker_.complete(acked)) release_update(id, acked);
}

// ---------------------------------------------------------------------------
// Aggregator role (Fig. 7c)
// ---------------------------------------------------------------------------

void Controller::on_peer_update(const UpdateMsg& m) {
  if (config_.delivery != Delivery::kControllerAgg || !is_aggregator()) return;
  // A partial for an update we already aggregated means the sender never
  // saw the ack: the aggregated update or the ack was lost downstream.
  // Replay the cached aggregate; the switch dedupes and re-acks.
  const auto done = agg_completed_.find(m.update.id);
  if (done != agg_completed_.end()) {
    rec_.update_resent(m.update.id);
    ship(m.update.switch_node, m.update.id, done->second, /*retransmit=*/true);
    return;
  }
  AggPending& p = agg_pending_[m.update.id];
  if (p.done) return;
  if (p.partials.empty() && p.frost_commitments.empty()) {
    p.update = m.update;
    p.cause = m.cause;
    p.signing_bytes = update_signing_bytes(m.update);
  } else if (!(p.update == m.update)) {
    return;  // conflicting body: not counted with the first
  }
  if (m.partial.signer == 0) return;

  if (env_.crypto->backend() == ThresholdBackend::kFrost) {
    if (p.session_started) {
      // Retransmission while a signing session is in flight: the sender
      // missed the session message (or its partial was lost).  Re-send the
      // existing session — its stored nonce for the original commitment is
      // still valid — rather than corrupting the fixed signer set.
      send_frost_session(m.update.id, m.partial.signer, obs::CritPhase::kRetransmit);
      return;
    }
    const auto c = env_.crypto->frost_commitment(m.partial.signer, m.frost_commitment);
    if (!c) return;
    p.frost_commitments[m.partial.signer] = *c;
    maybe_start_frost_session(m.update.id);
    return;
  }

  // Verify the partial against the signer's verification share so a bad
  // partial is attributed and excluded before aggregation.
  const sim::SimTime vcost = config_.costs.partial_verify;
  cpu_.execute(vcost, "partial.verify", [this, id = m.update.id, partial = m.partial] {
    auto it = agg_pending_.find(id);
    if (it == agg_pending_.end() || it->second.done) return;
    AggPending& p2 = it->second;
    if (!env_.crypto->verify_partial(config_.verification_shares, p2.signing_bytes, partial)) {
      CICERO_LOG_WARN(kLog, "aggregator c%u: bad partial from share %u dropped", config_.id,
                      partial.signer);
      return;
    }
    p2.partials[partial.signer] = partial;
    if (p2.partials.size() < config_.quorum) return;
    p2.done = true;
    aggregate_and_ship(id);
  });
}

// ---------------------------------------------------------------------------
// FROST signing round (kFrost backend, aggregator-coordinated; §4.2 with a
// cryptographically real threshold scheme — costs one extra round trip)
// ---------------------------------------------------------------------------

void Controller::maybe_start_frost_session(sched::UpdateId id) {
  auto it = agg_pending_.find(id);
  if (it == agg_pending_.end()) return;
  AggPending& p = it->second;
  if (p.session_started || p.frost_commitments.size() < config_.quorum) return;
  p.session_started = true;

  std::size_t taken = 0;
  for (const auto& [idx, c] : p.frost_commitments) {
    if (taken++ == config_.quorum) break;
    p.frost_session.push_back(c);
  }
  for (const auto& c : p.frost_session) {
    send_frost_session(id, c.signer, obs::CritPhase::kSign);
  }
}

// Hands update `id`'s signing session to the member holding share
// `signer` (share index = id + 1); our own share signs in place.
void Controller::send_frost_session(sched::UpdateId id, crypto::ShareIndex signer,
                                    obs::CritPhase phase) {
  const AggPending& p = agg_pending_.at(id);
  bool in_session = false;
  for (const auto& c : p.frost_session) in_session |= (c.signer == signer);
  if (!in_session) return;
  FrostSessionMsg session;
  session.update_id = id;
  for (const auto& c : p.frost_session) session.commitments.push_back(c.to_bytes());
  for (const auto& m : config_.members) {
    if (m.id + 1 != signer) continue;
    if (m.id == config_.id) {
      on_frost_session(session);
      continue;
    }
    const util::Bytes wire = session.encode();
    rec_.phase_bytes(phase, wire.size());
    net_.send(config_.node, m.node, wire);
  }
}

void Controller::on_frost_session(const FrostSessionMsg& m) {
  if (fault_ == ControllerFault::kSilent) return;
  if (!tracker_.knows(m.update_id)) return;
  const util::Bytes msg_bytes = update_signing_bytes(tracker_.update(m.update_id));

  FrostPartialMsg reply;
  reply.update_id = m.update_id;
  reply.signer_index = config_.share.index;
  try {
    const auto z = env_.crypto->frost_sign(frost_.get(), msg_bytes, m.commitments);
    if (!z) return;
    reply.z = *z;
    frost_sent_partials_[m.update_id] = reply;
  } catch (const std::invalid_argument&) {
    // Nonce already consumed: we signed this session before and the
    // partial was lost in transit.  Replaying the identical z is safe
    // (same signature share, not a second nonce use); an unknown/stale
    // session has no cached partial and is dropped.
    const auto cached = frost_sent_partials_.find(m.update_id);
    if (cached == frost_sent_partials_.end()) return;
    reply = cached->second;
  }
  cpu_.execute(config_.costs.partial_sign, "update.sign", [this, reply = std::move(reply)] {
    if (is_aggregator()) {
      on_frost_partial(reply);
    } else {
      const util::Bytes wire = reply.encode();
      rec_.phase_bytes(obs::CritPhase::kSign, wire.size());
      net_.send(config_.node, aggregator_member().node, wire);
    }
  });
}

void Controller::on_frost_partial(const FrostPartialMsg& m) {
  if (!is_aggregator()) return;
  auto it = agg_pending_.find(m.update_id);
  if (it == agg_pending_.end() || it->second.done) return;
  AggPending& p = it->second;
  bool in_session = false;
  for (const auto& c : p.frost_session) in_session |= (c.signer == m.signer_index);
  if (!in_session) return;
  const auto z = env_.crypto->frost_partial(p.signing_bytes, p.frost_session, config_.group_pk,
                                            config_.verification_shares, m.signer_index, m.z);
  if (!z) {
    CICERO_LOG_WARN(kLog, "aggregator c%u: bad FROST partial from %u", config_.id,
                    m.signer_index);
    return;
  }
  p.frost_partials[m.signer_index] = *z;
  if (p.frost_partials.size() < p.frost_session.size()) return;
  p.done = true;
  aggregate_and_ship(m.update_id);
}

// Aggregator role, both backends: charge the combine, aggregate the
// collected partials (SimBLS) or z shares (FROST) and ship the signed
// update to its switch.
void Controller::aggregate_and_ship(sched::UpdateId id) {
  const sim::SimTime agg_cost =
      config_.costs.aggregate_per_share * static_cast<sim::SimTime>(config_.quorum);
  cpu_.execute(agg_cost, "aggregate", [this, id] {
    auto it = agg_pending_.find(id);
    if (it == agg_pending_.end()) return;
    AggPending& p = it->second;
    const auto sig = env_.crypto->backend() == ThresholdBackend::kFrost
                         ? env_.crypto->frost_aggregate(p.signing_bytes, p.frost_session,
                                                        config_.group_pk, p.frost_partials)
                         : env_.crypto->aggregate(p.signing_bytes, p.partials, config_.quorum);
    if (!sig) return;
    const util::Bytes& wire = agg_completed_[id] = AggUpdateMsg{p.update, p.cause, *sig}.encode();
    ship(p.update.switch_node, id, wire, /*retransmit=*/false);
    agg_pending_.erase(it);
  });
}

// ---------------------------------------------------------------------------
// Membership (§4.3)
// ---------------------------------------------------------------------------

void Controller::propose_membership(EventKind kind, std::uint32_t member) {
  Event e;
  e.id = EventId{kControllerOriginBase + config_.id, ++origin_seq_};
  e.kind = kind;
  e.member = member;
  env_.crypto->sign(config_.key, e);
  events_submitted_.insert(e.id);
  replica_->submit(e.encode());
}

void Controller::finish_membership_change(std::uint64_t phase, Config new_group_config) {
  membership_phase_ = phase;
  config_ = std::move(new_group_config);
  rebuild_replica();
  membership_changing_ = false;
  auto queued = std::move(queued_events_);
  queued_events_.clear();
  for (const auto& e : queued) process_event(e);
}

void Controller::inject_rogue_update(net::NodeIndex switch_node, const sched::Update& update) {
  const auto sw_it = env_.switch_nodes->find(switch_node);
  if (sw_it == env_.switch_nodes->end()) return;
  UpdateMsg msg;
  msg.update = update;
  if (threshold_signed(config_.framework)) {
    // The rogue controller signs with its own (single) share — deliberately
    // short of a quorum; switches must never apply this.
    msg.partial = env_.crypto->partial_sign(config_.share, update_signing_bytes(msg.update));
  }
  send_southbound(sw_it->second, msg.encode());
}

}  // namespace cicero::core
