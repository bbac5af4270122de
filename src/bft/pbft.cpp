#include "bft/pbft.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace cicero::bft {

namespace {
constexpr const char* kLog = "pbft";

bool digests_equal(const crypto::Digest& a, const crypto::Digest& b) {
  return std::equal(a.begin(), a.end(), b.begin());
}

PbftConfig validated(PbftConfig c) {
  if (c.group.empty() || c.id >= c.group.size()) {
    throw std::invalid_argument("PbftReplica: bad id/group");
  }
  return c;
}
}  // namespace

PbftReplica::ReqKey PbftReplica::request_key(const BftRequest& r) {
  const crypto::Digest d = crypto::Sha256::hash(r.payload);
  std::uint64_t a = 0, b = 0;
  for (int i = 0; i < 8; ++i) {
    a = (a << 8) | d[static_cast<std::size_t>(i)];
    b = (b << 8) | d[static_cast<std::size_t>(i + 8)];
  }
  return {a, b};
}

PbftReplica::PbftReplica(sim::Simulator& simulator, sim::NetworkSim& network,
                         PbftConfig config, PbftKeys keys, DeliverFn deliver)
    : sim_(simulator),
      net_(network),
      config_(validated(std::move(config))),
      rec_(config_.obs, node_of(config_.id), 0, [&s = simulator] { return s.now(); }),
      keys_(std::move(keys)),
      deliver_(std::move(deliver)) {
  for (ReplicaId r = 0; r < n(); ++r) {
    if (r != config_.id) peers_.push_back(node_of(r));
  }
  arm_timer();
}

void PbftReplica::observe_order_latency(const ReqKey& key) {
  const auto it = pending_.find(key);
  if (it != pending_.end()) {
    order_latency_ms_.observe(sim::to_ms(sim_.now() - it->second.since));
  }
}

util::Bytes PbftReplica::sign_and_encode(const BftMessage& m) const {
  if (!config_.sign_messages) return m.encode({});
  const util::Bytes body = m.encode_body();
  return m.encode(crypto::schnorr_sign(keys_.own, body).to_bytes());
}

void PbftReplica::send_to(ReplicaId target, const BftMessage& m) {
  if (target == config_.id) {
    handle(m);
    return;
  }
  util::Bytes wire = sign_and_encode(m);
  rec_.phase_bytes(obs::CritPhase::kOrder, wire.size());
  net_.send(node_of(config_.id), node_of(target), std::move(wire));
}

void PbftReplica::send_to_peers(const BftMessage& m) {
  // Byzantine-primary fault: selectively disseminate pre-prepares to a
  // single backup so no prepare quorum can form.  (Forging request bodies
  // is pointless — receivers check the digest against the carried request,
  // and application payloads are PKI-signed — so withholding is the
  // primary's strongest equivocation-style move here; recovery must come
  // from the view change.)
  if (equivocate_ && m.type == BftMsgType::kPrePrepare && m.request) {
    const ReplicaId lucky = static_cast<ReplicaId>((config_.id + 1) % n());
    util::Bytes wire = sign_and_encode(m);
    rec_.phase_bytes(obs::CritPhase::kOrder, wire.size());
    net_.send(node_of(config_.id), node_of(lucky), std::move(wire));
    return;
  }
  util::Bytes wire = sign_and_encode(m);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    rec_.phase_bytes(obs::CritPhase::kOrder, wire.size());
  }
  net_.multicast(node_of(config_.id), peers_, std::move(wire));
}

void PbftReplica::broadcast(const BftMessage& m) {
  send_to_peers(m);
  handle(m);  // loopback: our own vote counts immediately
}

void PbftReplica::on_message(sim::NodeId from, const util::Bytes& wire) {
  if (crashed_) return;
  auto decoded = BftMessage::decode(wire);
  if (!decoded) {
    CICERO_LOG_WARN(kLog, "replica %u: undecodable message", config_.id);
    return;
  }
  auto& [msg, sig] = *decoded;
  // Authenticated channels: a member speaks only for itself, so a vote
  // cast in another replica's name is dropped even when messages are not
  // signed.
  if (msg.sender >= n() || config_.group[msg.sender] != from) return;
  if (config_.sign_messages) {
    const auto s = crypto::SchnorrSignature::from_bytes(sig);
    if (!s || !crypto::schnorr_verify(keys_.replica_pks.at(msg.sender), msg.encode_body(), *s)) {
      CICERO_LOG_WARN(kLog, "replica %u: bad signature from %u", config_.id, msg.sender);
      return;
    }
  }
  if (config_.cpu != nullptr && config_.msg_processing_cost > 0) {
    config_.cpu->execute(config_.msg_processing_cost, "bft.msg",
                         [this, alive = alive_, m = std::move(msg)] {
                           if (*alive && !crashed_) handle(m);
                         });
  } else {
    handle(msg);
  }
}

void PbftReplica::handle(const BftMessage& m) {
  switch (m.type) {
    case BftMsgType::kRequest:
      handle_request(m);
      break;
    case BftMsgType::kPrePrepare:
      handle_pre_prepare(m);
      break;
    case BftMsgType::kPrepare:
      handle_prepare(m);
      break;
    case BftMsgType::kCommit:
      handle_commit(m);
      break;
    case BftMsgType::kViewChange:
      handle_view_change(m);
      break;
    case BftMsgType::kNewView:
      handle_new_view(m);
      break;
    case BftMsgType::kFetch:
      handle_fetch(m);
      break;
    case BftMsgType::kFetchReply:
      handle_fetch_reply(m);
      break;
    case BftMsgType::kHeartbeat:
      break;  // no longer sent; ignored
  }
}

void PbftReplica::submit(util::Bytes payload) {
  if (crashed_) return;
  BftRequest req;
  req.submitter = config_.id;
  req.local_seq = ++local_req_seq_;
  req.payload = std::move(payload);
  const ReqKey key = request_key(req);
  pending_[key] = Pending{req, sim_.now()};

  BftMessage m;
  m.type = BftMsgType::kRequest;
  m.sender = config_.id;
  m.view = view_;
  m.request = std::move(req);
  // Broadcast the request to every replica (paper §3.2: events are
  // broadcast to all controllers): backups remember it for retransmission
  // and timeout tracking; the primary orders it.
  send_to_peers(m);
  accept_request(*m.request, key);
}

void PbftReplica::handle_request(const BftMessage& m) {
  if (m.request) accept_request(*m.request, request_key(*m.request));
}

void PbftReplica::accept_request(const BftRequest& request, const ReqKey& key) {
  if (delivered_reqs_.count(key) != 0) return;
  pending_.try_emplace(key, Pending{request, sim_.now()});
  if (is_primary() && !in_view_change_) order_request(request, key);
}

void PbftReplica::order_request(const BftRequest& request, const ReqKey& key) {
  if (ordered_reqs_.count(key) != 0 || delivered_reqs_.count(key) != 0) return;
  ordered_reqs_.insert(key);
  const SeqNum s = next_seq_++;

  BftMessage pp;
  pp.type = BftMsgType::kPrePrepare;
  pp.sender = config_.id;
  pp.view = view_;
  pp.seq = s;
  pp.request = request;
  pp.digest = request.digest();
  send_to_peers(pp);
  handle_pre_prepare(pp, &key);  // loopback
}

void PbftReplica::handle_pre_prepare(const BftMessage& m, const ReqKey* own_key) {
  if (in_view_change_ || m.view != view_ || m.sender != primary_of(view_)) return;
  if (!m.request) return;
  if (own_key == nullptr && !digests_equal(m.digest, m.request->digest())) return;
  if (m.seq <= last_delivered_) return;
  m_preprepares_.inc();

  LogEntry& e = log_[m.seq];
  if (e.request && e.view == m.view && !digests_equal(e.digest, m.digest)) {
    // Conflicting pre-prepare in the same view: primary is faulty.
    start_view_change(view_ + 1);
    return;
  }
  if (!e.request) {
    e.request = *m.request;
    e.key = own_key != nullptr ? *own_key : request_key(*m.request);
    e.digest = m.digest;
    e.view = m.view;
  }
  // The pre-prepare carries the primary's (implicit) prepare vote.
  e.prepare_senders.insert(m.sender);

  BftMessage p;
  p.type = BftMsgType::kPrepare;
  p.sender = config_.id;
  p.view = view_;
  p.seq = m.seq;
  p.digest = m.digest;
  if (config_.id != primary_of(view_)) broadcast(p);
  check_prepared(m.seq);
}

void PbftReplica::handle_prepare(const BftMessage& m) {
  if (in_view_change_ || m.view != view_ || m.seq <= last_delivered_) return;
  m_prepares_.inc();
  LogEntry& e = log_[m.seq];
  if (e.request && !digests_equal(e.digest, m.digest)) return;  // vote for other digest
  if (!e.request) {
    // Prepare arrived before pre-prepare; remember the vote keyed by digest
    // optimistically (single-digest slot: first digest wins; conflicting
    // votes are simply not counted, which only affects liveness).
    e.digest = m.digest;
  }
  e.prepare_senders.insert(m.sender);
  check_prepared(m.seq);
}

void PbftReplica::check_prepared(SeqNum s) {
  LogEntry& e = log_[s];
  if (e.prepared || !e.request) return;
  if (e.prepare_senders.size() < quorum()) return;
  e.prepared = true;

  BftMessage c;
  c.type = BftMsgType::kCommit;
  c.sender = config_.id;
  c.view = view_;
  c.seq = s;
  c.digest = e.digest;
  broadcast(c);
}

void PbftReplica::handle_commit(const BftMessage& m) {
  if (in_view_change_ || m.view != view_ || m.seq <= last_delivered_) return;
  m_commits_.inc();
  LogEntry& e = log_[m.seq];
  if (e.request && !digests_equal(e.digest, m.digest)) return;
  e.commit_senders.insert(m.sender);
  check_committed(m.seq);
}

void PbftReplica::check_committed(SeqNum s) {
  LogEntry& e = log_[s];
  if (e.committed || !e.prepared) return;
  if (e.commit_senders.size() < quorum()) return;
  e.committed = true;
  try_deliver();
}

void PbftReplica::try_deliver() {
  for (;;) {
    const auto it = log_.find(last_delivered_ + 1);
    if (it == log_.end() || !it->second.committed) return;
    LogEntry& e = it->second;
    ++last_delivered_;
    if (!e.noop && e.request) {
      const ReqKey key = e.key;
      if (delivered_reqs_.insert(key).second) {
        observe_order_latency(key);
        m_delivered_.inc();
        pending_.erase(key);
        if (deliver_) deliver_(last_delivered_, e.request->payload);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// View changes
// ---------------------------------------------------------------------------

void PbftReplica::start_view_change(ViewId target) {
  if (target <= view_ || (in_view_change_ && target <= view_change_target_)) return;
  in_view_change_ = true;
  view_change_target_ = target;
  CICERO_LOG_INFO(kLog, "replica %u: view change -> %llu", config_.id,
                  static_cast<unsigned long long>(target));
  m_view_changes_.inc();
  rec_.view_change(target);

  BftMessage vc;
  vc.type = BftMsgType::kViewChange;
  vc.sender = config_.id;
  vc.view = target;
  vc.last_delivered = last_delivered_;
  // Report ALL prepared entries (delivered ones included): the new-view
  // base is the quorum *minimum* delivered seq, so lagging replicas catch
  // up from the re-issued entries (delivery stays exactly-once via request
  // dedup).  The log is never truncated in these finite simulations, so
  // the payloads are available.
  for (const auto& [s, e] : log_) {
    if (e.prepared && e.request && !e.noop) {
      vc.prepared.push_back(PreparedEntry{s, *e.request});
    }
  }
  broadcast(vc);
}

void PbftReplica::handle_view_change(const BftMessage& m) {
  if (m.view <= view_) return;
  view_changes_[m.view][m.sender] = m;

  // Join a view change once f+1 peers demand one (we cannot all be wrong).
  if (view_changes_[m.view].size() >= f() + 1 &&
      (!in_view_change_ || view_change_target_ < m.view)) {
    start_view_change(m.view);
  }
  maybe_assemble_new_view(m.view);
}

void PbftReplica::maybe_assemble_new_view(ViewId target) {
  if (primary_of(target) != config_.id) return;
  const auto it = view_changes_.find(target);
  if (it == view_changes_.end() || it->second.size() < quorum()) return;
  if (view_ >= target) return;  // already assembled

  // Base: the LOWEST delivered seq among the quorum — every seq above it
  // that anyone may have delivered is covered by some quorum member's
  // prepared set (quorum intersection), so re-issuing from here lets
  // laggards catch up without a separate state-transfer protocol.
  SeqNum base = last_delivered_;
  for (const auto& [sender, vc] : it->second) base = std::min(base, vc.last_delivered);

  // Union of prepared entries above base (quorum intersection guarantees
  // any potentially-delivered request appears here).
  std::map<SeqNum, BftRequest> entries;
  for (const auto& [sender, vc] : it->second) {
    for (const auto& p : vc.prepared) {
      if (p.seq > base) entries.emplace(p.seq, p.request);
    }
  }
  SeqNum max_seq = base;
  for (const auto& [s, r] : entries) max_seq = std::max(max_seq, s);
  // Fill holes with explicit no-ops so delivery can advance.
  for (SeqNum s = base + 1; s < max_seq; ++s) {
    if (entries.count(s) == 0) entries.emplace(s, BftRequest{});  // no-op
  }

  BftMessage nv;
  nv.type = BftMsgType::kNewView;
  nv.sender = config_.id;
  nv.view = target;
  nv.seq = base;
  nv.new_view_entries = std::move(entries);
  nv.new_view_next_seq = max_seq + 1;
  broadcast(nv);
}

void PbftReplica::handle_new_view(const BftMessage& m) {
  if (m.view <= view_ || m.sender != primary_of(m.view)) return;
  adopt_new_view(m);
}

void PbftReplica::adopt_new_view(const BftMessage& m) {
  view_ = m.view;
  in_view_change_ = false;
  next_seq_ = m.new_view_next_seq;
  ordered_reqs_.clear();
  view_changes_.erase(view_);

  // Reset per-seq voting state above the base and replay the re-issued
  // entries as fresh pre-prepares in the new view.
  const SeqNum base = m.seq;
  for (auto it = log_.upper_bound(base); it != log_.end();) {
    it = log_.erase(it);
  }
  for (const auto& [s, req] : m.new_view_entries) {
    LogEntry& e = log_[s];
    e.request = req;
    e.digest = req.digest();
    e.view = view_;
    e.noop = req.payload.empty() && req.submitter == 0 && req.local_seq == 0;
    if (!e.noop) e.key = request_key(req);
    e.prepare_senders.insert(primary_of(view_));

    if (config_.id != primary_of(view_)) {
      BftMessage p;
      p.type = BftMsgType::kPrepare;
      p.sender = config_.id;
      p.view = view_;
      p.seq = s;
      p.digest = e.digest;
      broadcast(p);
    }
    check_prepared(s);
  }
  resubmit_pending();
  arm_timer();
}

void PbftReplica::resubmit_pending() {
  for (auto& [key, p] : pending_) {
    p.since = sim_.now();
    BftMessage m;
    m.type = BftMsgType::kRequest;
    m.sender = config_.id;
    m.view = view_;
    m.request = p.request;
    if (is_primary()) {
      order_request(p.request, key);
    } else {
      send_to(primary_of(view_), m);
    }
  }
}

// ---------------------------------------------------------------------------
// State transfer (lagging-replica catch-up)
// ---------------------------------------------------------------------------

void PbftReplica::handle_fetch(const BftMessage& m) {
  if (m.last_delivered >= last_delivered_) return;  // nothing to offer
  BftMessage reply;
  reply.type = BftMsgType::kFetchReply;
  reply.sender = config_.id;
  reply.seq = m.last_delivered;
  // Cap the batch; repeated fetches page through long gaps.
  const SeqNum upto = std::min(last_delivered_, m.last_delivered + 64);
  for (SeqNum s = m.last_delivered + 1; s <= upto; ++s) {
    const auto it = log_.find(s);
    if (it == log_.end() || !it->second.request) return;  // gap: cannot help
    reply.new_view_entries[s] = it->second.noop ? BftRequest{} : *it->second.request;
  }
  if (!reply.new_view_entries.empty()) send_to(m.sender, reply);
}

void PbftReplica::handle_fetch_reply(const BftMessage& m) {
  for (const auto& [s, req] : m.new_view_entries) {
    if (s <= last_delivered_) continue;
    // Peers that agree send equal requests: count another responder for a
    // request already held at this seq without hashing it again.
    auto& by_digest = fetched_[s];
    auto it = std::find_if(by_digest.begin(), by_digest.end(),
                           [&req](const auto& held) { return held.second.first == req; });
    if (it == by_digest.end()) {
      it = by_digest.try_emplace(req.digest(), req, std::set<ReplicaId>{}).first;
    }
    it->second.second.insert(m.sender);
  }
  try_deliver_fetched();
}

void PbftReplica::try_deliver_fetched() {
  // Deliver consecutive fetched entries confirmed by f+1 distinct
  // responders (at least one of which must be correct, and a correct
  // replica only reports entries it delivered).
  for (;;) {
    const auto it = fetched_.find(last_delivered_ + 1);
    if (it == fetched_.end()) return;
    const BftRequest* confirmed = nullptr;
    for (const auto& [digest, entry] : it->second) {
      if (entry.second.size() >= f() + 1) confirmed = &entry.first;
    }
    if (confirmed == nullptr) return;
    ++last_delivered_;
    const bool noop =
        confirmed->payload.empty() && confirmed->submitter == 0 && confirmed->local_seq == 0;
    if (!noop) {
      const ReqKey key = request_key(*confirmed);
      if (delivered_reqs_.insert(key).second) {
        observe_order_latency(key);
        m_delivered_.inc();
        pending_.erase(key);
        if (deliver_) deliver_(last_delivered_, confirmed->payload);
      }
    }
    fetched_.erase(it);
    try_deliver();  // regular committed entries may now be unblocked too
  }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

PbftReplica::~PbftReplica() { *alive_ = false; }

void PbftReplica::arm_timer() {
  const std::uint64_t epoch = ++timer_epoch_;
  auto fire = [this, epoch, alive = alive_] {
    if (*alive && epoch == timer_epoch_) on_timer();
  };
  static_assert(sim::Callback::fits_inline<decltype(fire)>);
  sim_.after(config_.request_timeout / 2, std::move(fire));
}

void PbftReplica::on_timer() {
  if (crashed_) return;
  bool stuck = false;
  for (const auto& [key, p] : pending_) {
    if (sim_.now() - p.since >= config_.request_timeout) {
      stuck = true;
      break;
    }
  }
  // Lag probe: every timer tick, ask one (rotating) peer whether it has
  // delivered beyond our watermark; peers that are not ahead stay silent.
  // This is how a replica that missed messages entirely (and so has no
  // pending request to time out on) still catches up.
  if (n() > 1) {
    BftMessage fetch;
    fetch.type = BftMsgType::kFetch;
    fetch.sender = config_.id;
    fetch.last_delivered = last_delivered_;
    const ReplicaId peer =
        static_cast<ReplicaId>((config_.id + 1 + timer_epoch_ % (n() - 1)) % n());
    if (peer != config_.id) send_to(peer, fetch);
    if (stuck) {
      // Actively stuck: widen the probe to everyone.
      for (ReplicaId r = 0; r < n(); ++r) {
        if (r != config_.id) send_to(r, fetch);
      }
    }
  }
  if (stuck && !in_view_change_) {
    start_view_change(view_ + 1);
  } else if (stuck && in_view_change_) {
    // View change itself is stuck (e.g. the next primary is also faulty):
    // escalate to the following view.
    start_view_change(view_change_target_ + 1);
  }
  arm_timer();
}

}  // namespace cicero::bft
