// Message-level unit tests for the switch runtime (no Deployment): quorum
// counting, body bucketing, signature rejection, dedup, acks, retries.
#include "core/switch_runtime.hpp"

#include <gtest/gtest.h>

#include "core/crypto_suite.hpp"
#include "crypto/dkg.hpp"
#include "crypto/simbls.hpp"

namespace cicero::core {
namespace {

class SwitchRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::NetworkSim>(sim_);
    switch_node_ = net_->add_node("sw");
    for (int i = 0; i < 4; ++i) ctrl_nodes_.push_back(net_->add_node("c" + std::to_string(i)));

    // Threshold material: 4 members, quorum 2.
    drbg_ = std::make_unique<crypto::Drbg>(55);
    results_ = crypto::run_dkg({1, 2, 3, 4}, 2, *drbg_);

    SwitchRuntime::Config cfg;
    cfg.topo_index = 7;
    cfg.node = switch_node_;
    cfg.framework = FrameworkKind::kCicero;
    cfg.key = crypto::SchnorrKeyPair::generate(*drbg_);
    cfg.group_pk = results_.front().group_public_key;
    cfg.quorum = 2;
    cfg.controllers = ctrl_nodes_;
    cfg.crypto = &suite_;
    switch_pk_ = cfg.key.pk;
    base_cfg_ = cfg;
    rt_ = std::make_unique<SwitchRuntime>(sim_, *net_, cfg);
    net_->set_handler(switch_node_, [this](sim::NodeId from, const util::Bytes& wire) {
      rt_->handle_message(from, wire);
    });
    // Capture control-plane-bound traffic (events + acks).
    for (int i = 0; i < 4; ++i) {
      net_->set_handler(ctrl_nodes_[static_cast<std::size_t>(i)],
                        [this](sim::NodeId, const util::Bytes& wire) {
                          to_controllers_.push_back(wire);
                        });
    }
  }

  /// Replaces the runtime with one built from a tweaked config (the
  /// network handler resolves rt_ through `this`, so it stays wired).
  template <typename Mutate>
  void rebuild(Mutate mutate) {
    SwitchRuntime::Config cfg = base_cfg_;
    mutate(cfg);
    rt_ = std::make_unique<SwitchRuntime>(sim_, *net_, cfg);
  }

  sched::Update make_update(sched::UpdateId id, net::NodeIndex next_hop = 9) {
    sched::Update u;
    u.id = id;
    u.switch_node = 7;
    u.op = sched::UpdateOp::kInstall;
    u.rule = {{100, 200}, next_hop, 1e6};
    return u;
  }

  /// Sends a signed UpdateMsg from share-holder `signer_pos`.
  void send_partial(const sched::Update& u, std::size_t signer_pos) {
    UpdateMsg m;
    m.update = u;
    m.cause = EventId{7, 1};
    m.partial = crypto::SimBlsScheme::instance().partial_sign(results_[signer_pos].share,
                                                              update_signing_bytes(u));
    net_->send(ctrl_nodes_[signer_pos], switch_node_, m.encode());
    sim_.run_until(sim_.now() + sim::milliseconds(50));
  }

  std::size_t acks_received() const {
    std::size_t n = 0;
    for (const auto& w : to_controllers_) {
      if (AckMsg::decode(w)) ++n;
    }
    return n;
  }

  sim::Simulator sim_;
  CryptoSuite suite_{/*real=*/true, ThresholdBackend::kSimBls};
  std::unique_ptr<sim::NetworkSim> net_;
  std::unique_ptr<crypto::Drbg> drbg_;
  std::vector<crypto::DkgParticipant::Result> results_;
  sim::NodeId switch_node_ = 0;
  std::vector<sim::NodeId> ctrl_nodes_;
  crypto::Point switch_pk_;
  SwitchRuntime::Config base_cfg_;
  obs::Observability obs_;  ///< optional sink; outlives rt_
  std::unique_ptr<SwitchRuntime> rt_;
  std::vector<util::Bytes> to_controllers_;
};

TEST_F(SwitchRuntimeTest, AppliesAfterQuorum) {
  const auto u = make_update(1);
  send_partial(u, 0);
  EXPECT_EQ(rt_->updates_applied(), 0u);  // one partial < quorum of 2
  EXPECT_FALSE(rt_->table().has({100, 200}));
  send_partial(u, 1);
  EXPECT_EQ(rt_->updates_applied(), 1u);
  EXPECT_TRUE(rt_->table().has({100, 200}));
}

TEST_F(SwitchRuntimeTest, DuplicateSignerDoesNotCount) {
  const auto u = make_update(1);
  send_partial(u, 0);
  send_partial(u, 0);  // same share again
  EXPECT_EQ(rt_->updates_applied(), 0u);
}

TEST_F(SwitchRuntimeTest, AcksSignedAndSentToAllControllers) {
  const auto u = make_update(1);
  send_partial(u, 0);
  send_partial(u, 1);
  // One ack per controller (4), verifiable under the switch key.
  EXPECT_EQ(acks_received(), 4u);
  PkiDirectory pki;
  pki.register_origin(7, switch_pk_);
  for (const auto& w : to_controllers_) {
    if (const auto ack = AckMsg::decode(w)) {
      EXPECT_EQ(ack->update_id, 1u);
      EXPECT_TRUE(pki.verify_ack(*ack));
    }
  }
}

TEST_F(SwitchRuntimeTest, ConflictingBodiesBucketSeparately) {
  // A corrupted body (different next hop) from signer 0 must not merge
  // with honest copies; the honest bucket completes on signers 1+2.
  send_partial(make_update(1, /*next_hop=*/7), 0);  // corrupt
  send_partial(make_update(1), 1);
  EXPECT_EQ(rt_->updates_applied(), 0u);
  send_partial(make_update(1), 2);
  EXPECT_EQ(rt_->updates_applied(), 1u);
  EXPECT_EQ(rt_->table().lookup({100, 200})->next_hop, 9u);  // honest rule won
}

TEST_F(SwitchRuntimeTest, AppliedUpdateIsIdempotent) {
  const auto u = make_update(1);
  send_partial(u, 0);
  send_partial(u, 1);
  const auto version = rt_->table().version();
  send_partial(u, 2);  // duplicate of an already-applied update
  EXPECT_EQ(rt_->updates_applied(), 1u);       // applied exactly once
  EXPECT_EQ(rt_->table().version(), version);  // table untouched
  // The duplicate is re-acked — unicast to its sender, in case the
  // original ack was lost — rather than re-applied.
  EXPECT_EQ(rt_->acks_reissued(), 1u);
  EXPECT_EQ(acks_received(), 5u);  // 4 multicast + 1 re-ack
}

TEST_F(SwitchRuntimeTest, FlowRequestRecoversAfterRetryExhaustion) {
  // Regression: once retries exhausted with no route installed, the
  // outstanding-event marker must clear so a later packet miss can
  // restart the request cycle (a stuck marker blackholed the flow
  // forever).
  rebuild([](SwitchRuntime::Config& cfg) {
    cfg.event_retry = sim::milliseconds(100);
    cfg.event_max_retries = 1;
  });
  sim_.at(sim_.now(), [this] { rt_->packet_in({100, 200}, 1e6); });
  sim_.run_until(sim_.now() + sim::seconds(1));
  EXPECT_EQ(rt_->events_emitted(), 2u);  // initial + final retry, then quiet
  // Connectivity returns: a new miss must re-request the route.
  sim_.at(sim_.now(), [this] { EXPECT_FALSE(rt_->packet_in({100, 200}, 1e6)); });
  sim_.run_until(sim_.now() + sim::milliseconds(50));
  EXPECT_EQ(rt_->events_emitted(), 3u);
}

TEST_F(SwitchRuntimeTest, CrashLosesStateRecoveryRerequestsRoutes) {
  const auto u = make_update(1);
  send_partial(u, 0);
  send_partial(u, 1);
  ASSERT_TRUE(rt_->table().has({100, 200}));

  rt_->crash();
  EXPECT_TRUE(rt_->down());
  EXPECT_EQ(rt_->table().size(), 0u);  // volatile state gone

  // A crashed switch ignores control traffic...
  const auto u2 = make_update(2, /*next_hop=*/3);
  send_partial(u2, 0);
  send_partial(u2, 1);
  EXPECT_EQ(rt_->updates_applied(), 1u);
  // ...and swallows (but remembers) data-plane misses.
  sim_.at(sim_.now(), [this] { EXPECT_FALSE(rt_->packet_in({300, 400}, 1e6)); });
  sim_.run_until(sim_.now() + sim::milliseconds(10));
  const auto emitted = rt_->events_emitted();

  sim_.at(sim_.now(), [this] { rt_->recover(); });
  sim_.run_until(sim_.now() + sim::milliseconds(100));
  EXPECT_FALSE(rt_->down());
  // One re-request per rule lost in the crash + one per miss seen while
  // down: {100,200} and {300,400}.
  EXPECT_EQ(rt_->events_emitted(), emitted + 2);
  EXPECT_EQ(rt_->crashes(), 1u);
}

TEST_F(SwitchRuntimeTest, RemoveOpDeletesRule) {
  auto ins = make_update(1);
  send_partial(ins, 0);
  send_partial(ins, 1);
  ASSERT_TRUE(rt_->table().has({100, 200}));
  auto rem = make_update(2);
  rem.op = sched::UpdateOp::kRemove;
  send_partial(rem, 0);
  send_partial(rem, 1);
  EXPECT_FALSE(rt_->table().has({100, 200}));
}

TEST_F(SwitchRuntimeTest, ForgedAggregateRejected) {
  // An AggUpdateMsg whose signature does not verify must be ignored.
  AggUpdateMsg m;
  m.update = make_update(1);
  m.cause = EventId{7, 1};
  m.agg_sig = crypto::Point::mul_gen(drbg_->next_scalar()).to_bytes();  // junk
  net_->send(ctrl_nodes_[0], switch_node_, m.encode());
  sim_.run_until(sim::milliseconds(50));
  EXPECT_EQ(rt_->updates_applied(), 0u);
  EXPECT_GE(rt_->updates_rejected(), 1u);
}

TEST_F(SwitchRuntimeTest, ValidAggregateApplied) {
  const auto u = make_update(1);
  const auto bytes = update_signing_bytes(u);
  const auto& scheme = crypto::SimBlsScheme::instance();
  std::vector<crypto::PartialSignature> partials = {
      scheme.partial_sign(results_[0].share, bytes),
      scheme.partial_sign(results_[1].share, bytes)};
  AggUpdateMsg m;
  m.update = u;
  m.cause = EventId{7, 1};
  m.agg_sig = *scheme.aggregate(bytes, partials, 2);
  net_->send(ctrl_nodes_[0], switch_node_, m.encode());
  sim_.run_until(sim::milliseconds(50));
  EXPECT_EQ(rt_->updates_applied(), 1u);
}

TEST_F(SwitchRuntimeTest, PacketInEmitsSignedEventOnce) {
  sim_.at(sim_.now(), [this] {
    EXPECT_FALSE(rt_->packet_in({100, 200}, 1e6));
    EXPECT_FALSE(rt_->packet_in({100, 200}, 1e6));  // dup miss, no new event
  });
  sim_.run_until(sim_.now() + sim::milliseconds(100));
  std::size_t events = 0;
  PkiDirectory pki;
  pki.register_origin(7, switch_pk_);
  for (const auto& w : to_controllers_) {
    if (const auto e = Event::decode(w)) {
      ++events;
      EXPECT_TRUE(pki.verify_event(*e));
      EXPECT_EQ(e->kind, EventKind::kFlowRequest);
    }
  }
  EXPECT_EQ(events, 4u);  // one multicast to all 4 controllers
  EXPECT_EQ(rt_->events_emitted(), 1u);
}

TEST_F(SwitchRuntimeTest, EventRetriedWhileUnanswered) {
  sim_.at(sim_.now(), [this] { rt_->packet_in({100, 200}, 1e6); });
  sim_.run_until(sim_.now() + sim::seconds(5));  // two retry periods
  EXPECT_GE(rt_->events_emitted(), 2u);
}

TEST_F(SwitchRuntimeTest, RetryStopsOnceRuleInstalled) {
  sim_.at(sim_.now(), [this] { rt_->packet_in({100, 200}, 1e6); });
  sim_.run_until(sim_.now() + sim::milliseconds(10));
  const auto u = make_update(1);
  send_partial(u, 0);
  send_partial(u, 1);
  const auto emitted = rt_->events_emitted();
  sim_.run_until(sim_.now() + sim::seconds(6));
  EXPECT_EQ(rt_->events_emitted(), emitted);  // no retries after install
}

TEST_F(SwitchRuntimeTest, AggregatorNotifyUpdatesConfig) {
  AggregatorNotifyMsg m;
  m.phase = 2;
  m.aggregator = ctrl_nodes_[2];
  m.quorum = 3;
  m.controllers = {ctrl_nodes_[1], ctrl_nodes_[2], ctrl_nodes_[3]};
  net_->send(ctrl_nodes_[0], switch_node_, m.encode());
  sim_.run_until(sim::milliseconds(10));
  EXPECT_EQ(rt_->config().quorum, 3u);
  EXPECT_EQ(rt_->config().aggregator, ctrl_nodes_[2]);
  EXPECT_EQ(rt_->config().controllers.size(), 3u);
}

TEST_F(SwitchRuntimeTest, AppliedDedupeWindowBoundsMemory) {
  // Regression: the applied ids grew without bound for the lifetime of
  // the switch.  With a window of 8, applying 20 distinct updates must
  // leave at most 8 id records — and dedupe still works inside the window.
  rebuild([](SwitchRuntime::Config& cfg) { cfg.applied_dedupe_window = 8; });
  for (sched::UpdateId id = 1; id <= 20; ++id) {
    sched::Update u;
    u.id = id;
    u.switch_node = 7;
    u.op = sched::UpdateOp::kInstall;
    u.rule = {{100 + static_cast<net::NodeIndex>(id), 200}, 9, 1e6};
    send_partial(u, 0);
    send_partial(u, 1);
  }
  EXPECT_EQ(rt_->updates_applied(), 20u);
  EXPECT_LE(rt_->id_records(), 8u);
  // A duplicate inside the window is still suppressed and re-acked.
  sched::Update last;
  last.id = 20;
  last.switch_node = 7;
  last.op = sched::UpdateOp::kInstall;
  last.rule = {{120, 200}, 9, 1e6};
  send_partial(last, 2);
  EXPECT_EQ(rt_->updates_applied(), 20u);
  EXPECT_EQ(rt_->acks_reissued(), 1u);
}

TEST_F(SwitchRuntimeTest, LonePartialsForgottenWithTheirRecords) {
  // Ids that never reach a quorum (one partial each, as a lone Byzantine
  // signer would send) share the window with applied ids: with a window
  // of 8, 24 of them leave at most 8 records.  The receipt stamps of a
  // metrics run live in those records, so they stay bounded too.
  rebuild([this](SwitchRuntime::Config& cfg) {
    cfg.applied_dedupe_window = 8;
    cfg.obs = &obs_;
  });
  for (sched::UpdateId id = 1; id <= 24; ++id) send_partial(make_update(id), 0);
  EXPECT_EQ(rt_->updates_applied(), 0u);
  EXPECT_LE(rt_->id_records(), 8u);
  // The oldest id's bucket went with its record: a second partial opens a
  // fresh bucket instead of completing the quorum...
  send_partial(make_update(1), 1);
  EXPECT_EQ(rt_->updates_applied(), 0u);
  // ...while an id inside the window still completes.
  send_partial(make_update(24), 1);
  EXPECT_EQ(rt_->updates_applied(), 1u);
  EXPECT_LE(rt_->id_records(), 8u);
}

TEST_F(SwitchRuntimeTest, CrashForgetsAppliedIdsSoARetransmissionReinstalls) {
  // A crash forgets applied ids on purpose (DESIGN.md §10): the control
  // plane's retransmission of an update applied before the crash must
  // re-install the lost rule, not be answered as a duplicate.
  const auto u = make_update(1);
  send_partial(u, 0);
  send_partial(u, 1);
  ASSERT_EQ(rt_->updates_applied(), 1u);
  rt_->crash();
  EXPECT_EQ(rt_->id_records(), 0u);
  sim_.at(sim_.now(), [this] { rt_->recover(); });
  sim_.run_until(sim_.now() + sim::milliseconds(10));
  send_partial(u, 0);
  send_partial(u, 1);
  EXPECT_EQ(rt_->updates_applied(), 2u);
  EXPECT_EQ(rt_->acks_reissued(), 0u);
  EXPECT_TRUE(rt_->table().has({100, 200}));
}

TEST_F(SwitchRuntimeTest, InNetworkReplayCacheBoundedByWindow) {
  // As the designated aggregator, the switch caches each fan-out for
  // idempotent replay.  The cache shares the dedupe window: with a window
  // of 2, after three fan-outs only the two newest ids still replay.
  const sim::NodeId target = net_->add_node("target");
  std::size_t to_target = 0;
  net_->set_handler(target, [&to_target](sim::NodeId, const util::Bytes&) { ++to_target; });
  const std::map<net::NodeIndex, sim::NodeId> directory = {{9, target}};
  rebuild([&directory](SwitchRuntime::Config& cfg) {
    cfg.delivery = Delivery::kInNetwork;
    cfg.switch_directory = &directory;
    cfg.applied_dedupe_window = 2;
  });
  const auto to_target_switch = [this](sched::UpdateId id) {
    sched::Update u = make_update(id);
    u.switch_node = 9;
    return u;
  };
  for (sched::UpdateId id = 1; id <= 3; ++id) {
    send_partial(to_target_switch(id), 0);
    send_partial(to_target_switch(id), 1);
  }
  ASSERT_EQ(rt_->agg_fanouts(), 3u);
  ASSERT_EQ(to_target, 3u);
  send_partial(to_target_switch(3), 2);  // late body for a cached id
  EXPECT_EQ(rt_->agg_replays(), 1u);
  EXPECT_EQ(to_target, 4u);
  send_partial(to_target_switch(1), 2);  // late body for an evicted id
  EXPECT_EQ(rt_->agg_replays(), 1u);
  EXPECT_EQ(to_target, 4u);
}

TEST_F(SwitchRuntimeTest, InNetworkSelfTargetedRetransmissionReacked) {
  // The designated aggregator is itself the update's target, so it
  // applies in place.  A replica that missed the ack then retransmits the
  // full body: the switch must re-ack that replica rather than treat the
  // copy as a replayed fan-out.
  rebuild([](SwitchRuntime::Config& cfg) { cfg.delivery = Delivery::kInNetwork; });
  const auto u = make_update(1);  // targets switch 7: this one
  send_partial(u, 0);
  send_partial(u, 1);
  ASSERT_EQ(rt_->updates_applied(), 1u);
  std::size_t acks_to_replica = 0;
  net_->set_handler(ctrl_nodes_[2], [&acks_to_replica](sim::NodeId, const util::Bytes& wire) {
    if (AckMsg::decode(wire)) ++acks_to_replica;
  });
  send_partial(u, 2);  // escalated retransmission
  EXPECT_EQ(rt_->updates_applied(), 1u);
  EXPECT_EQ(rt_->acks_reissued(), 1u);
  EXPECT_EQ(acks_to_replica, 1u);
}

// ---------------------------------------------------------------------------
// Decentralized execution (manifest + SegmentDone handling)
// ---------------------------------------------------------------------------

class DecentralizedSwitchTest : public SwitchRuntimeTest {
 protected:
  void SetUp() override {
    SwitchRuntimeTest::SetUp();
    peer_node_ = net_->add_node("peer");
    net_->set_handler(peer_node_, [this](sim::NodeId, const util::Bytes& wire) {
      to_peer_.push_back(wire);
    });
    peer_key_ = crypto::SchnorrKeyPair::generate(*drbg_);
    suite_.pki().register_origin(7, switch_pk_);
    suite_.pki().register_origin(8, peer_key_.pk);
    rebuild([](SwitchRuntime::Config& cfg) { cfg.delivery = Delivery::kDecentralized; });
  }

  SegmentManifest make_manifest(sched::UpdateId id, std::vector<SegmentPeer> preds,
                                std::vector<SegmentPeer> succs,
                                net::NodeIndex next_hop = 9) {
    SegmentManifest m;
    m.update = make_update(id, next_hop);
    m.preds = std::move(preds);
    m.succs = std::move(succs);
    m.sink = m.succs.empty();
    return m;
  }

  void send_manifest_partial(const SegmentManifest& m, std::size_t signer_pos,
                             std::uint64_t epoch = 0) {
    ManifestMsg msg;
    msg.manifest = m;
    msg.cause = EventId{7, 1};
    msg.epoch = epoch;
    msg.partial = crypto::SimBlsScheme::instance().partial_sign(
        results_[signer_pos].share, manifest_signing_bytes(m, epoch));
    net_->send(ctrl_nodes_[signer_pos], switch_node_, msg.encode());
    sim_.run_until(sim_.now() + sim::milliseconds(50));
  }

  void send_segment_done(sched::UpdateId for_update, sched::UpdateId done_update,
                         bool good_sig = true) {
    SegmentDoneMsg d;
    d.for_update = for_update;
    d.done_update = done_update;
    d.switch_node = 8;  // the registered peer
    d.epoch = 0;
    const auto& key = good_sig ? peer_key_ : base_cfg_.key;  // wrong key = forged
    d.sig = crypto::schnorr_sign(key, d.body()).to_bytes();
    net_->send(peer_node_, switch_node_, d.encode());
    sim_.run_until(sim_.now() + sim::milliseconds(50));
  }

  std::size_t peer_signals_delivered() const {
    std::size_t n = 0;
    for (const auto& w : to_peer_) {
      if (SegmentDoneMsg::decode(w)) ++n;
    }
    return n;
  }

  sim::NodeId peer_node_ = 0;
  crypto::SchnorrKeyPair peer_key_;
  std::vector<util::Bytes> to_peer_;
};

TEST_F(DecentralizedSwitchTest, SinkManifestQuorumAppliesAndAcks) {
  const auto m = make_manifest(1, {}, {});
  send_manifest_partial(m, 0);
  EXPECT_EQ(rt_->updates_applied(), 0u);  // one partial < quorum of 2
  send_manifest_partial(m, 1);
  EXPECT_EQ(rt_->updates_applied(), 1u);
  EXPECT_TRUE(rt_->table().has({100, 200}));
  EXPECT_EQ(acks_received(), 4u);  // sink acks the whole control plane
}

TEST_F(DecentralizedSwitchTest, ManifestWaitsForPredecessorSignal) {
  const auto m = make_manifest(2, {SegmentPeer{1, 8, peer_node_}}, {});
  send_manifest_partial(m, 0);
  send_manifest_partial(m, 1);
  EXPECT_EQ(rt_->updates_applied(), 0u);  // quorum met, but pred 1 not done
  send_segment_done(/*for_update=*/2, /*done_update=*/1);
  EXPECT_EQ(rt_->updates_applied(), 1u);
  EXPECT_EQ(rt_->peer_signals_received(), 1u);
}

TEST_F(DecentralizedSwitchTest, EarlySegmentDoneParkedUntilManifest) {
  // The peer's signal can race ahead of our manifest quorum.
  send_segment_done(/*for_update=*/2, /*done_update=*/1);
  EXPECT_EQ(rt_->updates_applied(), 0u);
  const auto m = make_manifest(2, {SegmentPeer{1, 8, peer_node_}}, {});
  send_manifest_partial(m, 0);
  send_manifest_partial(m, 1);
  EXPECT_EQ(rt_->updates_applied(), 1u);  // parked signal satisfied the pred
}

TEST_F(DecentralizedSwitchTest, ParkedSignalsForgetTheOldestFirst) {
  // Parked signals are bounded by the dedupe window and forget in arrival
  // order.  Update ids are origin-major, so evicting the smallest id
  // instead would drop this fresh signal for a low-numbered origin.
  rebuild([](SwitchRuntime::Config& cfg) {
    cfg.delivery = Delivery::kDecentralized;
    cfg.applied_dedupe_window = 2;
  });
  send_segment_done(/*for_update=*/30, /*done_update=*/1);
  send_segment_done(/*for_update=*/40, /*done_update=*/1);
  send_segment_done(/*for_update=*/10, /*done_update=*/1);  // evicts 30's signal
  const auto m = make_manifest(10, {SegmentPeer{1, 8, peer_node_}}, {});
  send_manifest_partial(m, 0);
  send_manifest_partial(m, 1);
  EXPECT_EQ(rt_->updates_applied(), 1u);
}

TEST_F(DecentralizedSwitchTest, StalledManifestsBoundedByWindow) {
  // Accepted manifests whose predecessor never signals (an abandoned
  // chain) are forgotten oldest first like any other record.
  rebuild([](SwitchRuntime::Config& cfg) {
    cfg.delivery = Delivery::kDecentralized;
    cfg.applied_dedupe_window = 8;
  });
  for (sched::UpdateId id = 101; id <= 124; ++id) {
    const auto m = make_manifest(id, {SegmentPeer{1, 8, peer_node_}}, {});
    send_manifest_partial(m, 0);
    send_manifest_partial(m, 1);
  }
  EXPECT_EQ(rt_->updates_applied(), 0u);
  EXPECT_LE(rt_->id_records(), 8u);
  send_segment_done(/*for_update=*/101, /*done_update=*/1);  // forgotten: parks
  EXPECT_EQ(rt_->updates_applied(), 0u);
  send_segment_done(/*for_update=*/124, /*done_update=*/1);  // still waiting: applies
  EXPECT_EQ(rt_->updates_applied(), 1u);
  EXPECT_LE(rt_->id_records(), 8u);
}

TEST_F(DecentralizedSwitchTest, ForgedSegmentDoneRejected) {
  const auto m = make_manifest(2, {SegmentPeer{1, 8, peer_node_}}, {});
  send_manifest_partial(m, 0);
  send_manifest_partial(m, 1);
  send_segment_done(2, 1, /*good_sig=*/false);
  EXPECT_EQ(rt_->updates_applied(), 0u);  // forged signal must not unblock
  EXPECT_GE(rt_->updates_rejected(), 1u);
  send_segment_done(2, 1, /*good_sig=*/true);
  EXPECT_EQ(rt_->updates_applied(), 1u);
}

TEST_F(DecentralizedSwitchTest, NonSinkSignalsSuccessorInsteadOfAck) {
  const auto m = make_manifest(1, {}, {SegmentPeer{2, 8, peer_node_}});
  send_manifest_partial(m, 0);
  send_manifest_partial(m, 1);
  EXPECT_EQ(rt_->updates_applied(), 1u);
  EXPECT_EQ(peer_signals_delivered(), 1u);  // in-band signal to the successor
  EXPECT_EQ(rt_->peer_signals_sent(), 1u);
  EXPECT_EQ(acks_received(), 0u);  // only the chain sink acks
  // The signal verifies under this switch's PKI key.
  for (const auto& w : to_peer_) {
    if (const auto d = SegmentDoneMsg::decode(w)) {
      EXPECT_EQ(d->for_update, 2u);
      EXPECT_EQ(d->done_update, 1u);
      EXPECT_TRUE(suite_.pki().verify_segment_done(*d));
    }
  }
}

TEST_F(DecentralizedSwitchTest, DuplicateManifestTriggersIdempotentResignal) {
  const auto m = make_manifest(1, {}, {SegmentPeer{2, 8, peer_node_}});
  send_manifest_partial(m, 0);
  send_manifest_partial(m, 1);
  ASSERT_EQ(rt_->updates_applied(), 1u);
  ASSERT_EQ(peer_signals_delivered(), 1u);
  // The controller retransmits (sink never acked — our signal was "lost").
  send_manifest_partial(m, 2);
  EXPECT_EQ(rt_->updates_applied(), 1u);     // not re-applied
  EXPECT_EQ(peer_signals_delivered(), 2u);   // but the signal went out again
}

TEST_F(DecentralizedSwitchTest, SelfLoopManifestRejectedLocally) {
  // Switch-local precondition: an install forwarding to this switch
  // itself (topo_index 7) is a one-hop loop and must never reach the
  // table, even with a valid quorum.
  const auto m = make_manifest(1, {}, {}, /*next_hop=*/7);
  send_manifest_partial(m, 0);
  send_manifest_partial(m, 1);
  EXPECT_EQ(rt_->updates_applied(), 0u);
  EXPECT_GE(rt_->updates_rejected(), 1u);
  EXPECT_FALSE(rt_->table().has({100, 200}));
}

TEST_F(DecentralizedSwitchTest, StaleEpochManifestDropped) {
  const auto fresh = make_manifest(1, {}, {});
  send_manifest_partial(fresh, 0, /*epoch=*/3);  // advances phase to 3
  const auto stale = make_manifest(2, {}, {});
  send_manifest_partial(stale, 0, /*epoch=*/1);
  send_manifest_partial(stale, 1, /*epoch=*/1);
  EXPECT_EQ(rt_->updates_applied(), 0u);  // stale copies never reach quorum
  send_manifest_partial(fresh, 1, /*epoch=*/3);
  EXPECT_EQ(rt_->updates_applied(), 1u);
}

TEST_F(DecentralizedSwitchTest, CrashDuringHandoffRerequestsOnRecover) {
  // The switch accepted a manifest but crashes before its predecessor
  // signals: the pending install must be re-requested via the signed
  // event path on recover(), not waited on forever.
  const auto m = make_manifest(2, {SegmentPeer{1, 8, peer_node_}}, {});
  send_manifest_partial(m, 0);
  send_manifest_partial(m, 1);
  ASSERT_EQ(rt_->updates_applied(), 0u);  // waiting on pred
  rt_->crash();
  const auto emitted = rt_->events_emitted();
  sim_.at(sim_.now(), [this] { rt_->recover(); });
  sim_.run_until(sim_.now() + sim::milliseconds(100));
  // One fresh flow-request event for the manifest's flow.
  EXPECT_EQ(rt_->events_emitted(), emitted + 1);
  // The late SegmentDone for the dead chain is ignored (state was lost).
  send_segment_done(2, 1);
  EXPECT_EQ(rt_->updates_applied(), 0u);
}

TEST_F(SwitchRuntimeTest, TeardownRequestEmitsEvent) {
  sim_.at(sim_.now(), [this] { rt_->request_teardown({100, 200}); });
  sim_.run_until(sim_.now() + sim::milliseconds(50));
  bool saw = false;
  for (const auto& w : to_controllers_) {
    if (const auto e = Event::decode(w)) {
      saw |= (e->kind == EventKind::kFlowTeardown);
    }
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace cicero::core
