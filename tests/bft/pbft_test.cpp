#include "bft/pbft.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "crypto/drbg.hpp"
#include "obs/metrics.hpp"

namespace cicero::bft {
namespace {

/// A group of n replicas wired over a simulated network.
class Cluster {
 public:
  explicit Cluster(std::size_t n, bool sign = true)
      : net_(sim_), delivered_(n) {
    crypto::Drbg drbg(4242);
    std::vector<crypto::SchnorrKeyPair> kps;
    std::vector<crypto::Point> pks;
    for (std::size_t i = 0; i < n; ++i) {
      nodes_.push_back(net_.add_node("r" + std::to_string(i)));
      kps.push_back(crypto::SchnorrKeyPair::generate(drbg));
      pks.push_back(kps.back().pk);
    }
    for (std::size_t i = 0; i < n; ++i) {
      PbftConfig cfg;
      cfg.id = static_cast<ReplicaId>(i);
      cfg.group = nodes_;
      cfg.request_timeout = sim::milliseconds(50);
      cfg.sign_messages = sign;
      replicas_.push_back(std::make_unique<PbftReplica>(
          sim_, net_, cfg, PbftKeys{kps[i], pks},
          [this, i](SeqNum, const util::Bytes& p) { delivered_[i].push_back(p); }));
      net_.set_handler(nodes_[i], [this, i](sim::NodeId from, const util::Bytes& m) {
        replicas_[i]->on_message(from, m);
      });
    }
  }

  void submit(std::size_t replica, std::uint8_t tag) {
    replicas_[replica]->submit(util::Bytes{tag});
  }
  void run(sim::SimTime t = sim::seconds(5)) { sim_.run_until(t); }

  sim::Simulator sim_;
  sim::NetworkSim net_;
  std::vector<sim::NodeId> nodes_;
  std::vector<std::unique_ptr<PbftReplica>> replicas_;
  std::vector<std::vector<util::Bytes>> delivered_;
};

class PbftSizes : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(GroupSizes, PbftSizes, ::testing::Values(1u, 4u, 7u));

TEST_P(PbftSizes, TotalOrderNoFaults) {
  Cluster c(GetParam(), /*sign=*/GetParam() <= 4);
  for (int k = 0; k < 8; ++k) c.submit(k % GetParam(), static_cast<std::uint8_t>(k));
  c.run();
  for (std::size_t i = 0; i < GetParam(); ++i) {
    ASSERT_EQ(c.delivered_[i].size(), 8u) << "replica " << i;
    EXPECT_EQ(c.delivered_[i], c.delivered_[0]);
  }
}

TEST(Pbft, DuplicateSubmissionsDeliverOnce) {
  // All four replicas relay the same payload (the paper's event relay
  // pattern); the protocol must deliver it exactly once.
  Cluster c(4);
  for (int i = 0; i < 4; ++i) c.submit(i, 0x55);
  c.run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.delivered_[i].size(), 1u);
}

TEST(Pbft, CrashedBackupDoesNotBlock) {
  Cluster c(4);
  c.replicas_[2]->crash();
  for (int k = 0; k < 5; ++k) c.submit(1, static_cast<std::uint8_t>(k));
  c.run();
  for (int i : {0, 1, 3}) {
    EXPECT_EQ(c.delivered_[static_cast<std::size_t>(i)].size(), 5u);
  }
  EXPECT_TRUE(c.delivered_[2].empty());
}

TEST(Pbft, CrashedPrimaryTriggersViewChange) {
  Cluster c(4);
  c.replicas_[0]->crash();  // replica 0 is the view-0 primary
  for (int k = 0; k < 5; ++k) c.submit(1, static_cast<std::uint8_t>(k));
  c.run();
  for (int i : {1, 2, 3}) {
    ASSERT_EQ(c.delivered_[static_cast<std::size_t>(i)].size(), 5u) << "replica " << i;
    EXPECT_EQ(c.delivered_[static_cast<std::size_t>(i)], c.delivered_[1]);
    EXPECT_GE(c.replicas_[static_cast<std::size_t>(i)]->view(), 1u);
  }
}

TEST(Pbft, TwoConsecutiveFaultyPrimariesNeedSevenReplicas) {
  Cluster c(7);  // f = 2
  c.replicas_[0]->crash();
  c.replicas_[1]->crash();  // primary of view 1 too
  for (int k = 0; k < 3; ++k) c.submit(3, static_cast<std::uint8_t>(k));
  c.run(sim::seconds(10));
  for (std::size_t i = 2; i < 7; ++i) {
    ASSERT_EQ(c.delivered_[i].size(), 3u) << "replica " << i;
    EXPECT_EQ(c.delivered_[i], c.delivered_[2]);
    EXPECT_GE(c.replicas_[i]->view(), 2u);
  }
}

TEST(Pbft, EquivocatingPrimarySafeAndLive) {
  Cluster c(4);
  c.replicas_[0]->set_equivocate(true);
  for (int k = 0; k < 5; ++k) c.submit(1, static_cast<std::uint8_t>(k));
  c.run(sim::seconds(10));
  // Safety: the correct replicas agree on an identical sequence with no
  // duplicates; liveness: all five requests eventually deliver after the
  // view change moves the primary role off the Byzantine replica.
  for (int i : {1, 2, 3}) {
    ASSERT_EQ(c.delivered_[static_cast<std::size_t>(i)].size(), 5u) << "replica " << i;
    EXPECT_EQ(c.delivered_[static_cast<std::size_t>(i)], c.delivered_[1]);
    EXPECT_GE(c.replicas_[static_cast<std::size_t>(i)]->view(), 1u);
  }
}

TEST(Pbft, BeyondFaultBoundLosesLivenessNotSafety) {
  Cluster c(4);  // f = 1, but crash two
  c.replicas_[0]->crash();
  c.replicas_[1]->crash();
  c.submit(2, 0x01);
  c.run(sim::seconds(2));
  // No quorum of 3 among 2 live replicas: nothing may be delivered.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(c.delivered_[static_cast<std::size_t>(i)].empty());
}

TEST(Pbft, TamperedMessagesRejected) {
  Cluster c(4, /*sign=*/true);
  // Flip a byte in every 3rd of the first 30 in-flight messages; the
  // signatures must reject them, and once the burst passes the protocol
  // recovers (view change + request resubmission).  Sustained random loss
  // is out of scope: like the paper's BFT-SMaRt substrate, liveness
  // assumes eventually-reliable channels.
  int count = 0;
  c.net_.set_mutate_fn([&count](sim::NodeId, sim::NodeId, util::Bytes& m) {
    ++count;
    if (count <= 30 && count % 3 == 0 && m.size() > 10) m[m.size() / 2] ^= 0x01;
  });
  for (int k = 0; k < 4; ++k) c.submit(1, static_cast<std::uint8_t>(k));
  c.run(sim::seconds(10));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.delivered_[static_cast<std::size_t>(i)].size(), 4u) << "replica " << i;
  }
}

TEST(Pbft, ForgedVotesDroppedWithoutSignatures) {
  // Unsigned deployments rest on authenticated channels.  Replica 3
  // forges the primary's pre-prepare and replicas 0's and 1's prepares
  // and commits for a request no honest replica proposed; replica 2 must
  // drop every message that names a sender other than the member it came
  // from, and deliver nothing.
  Cluster c(4, /*sign=*/false);
  BftRequest forged;
  forged.submitter = 0;
  forged.local_seq = 1;
  forged.payload = {0x66};
  const auto forge = [&](BftMsgType type, ReplicaId as) {
    BftMessage m;
    m.type = type;
    m.sender = as;
    m.seq = 1;
    m.digest = forged.digest();
    if (type == BftMsgType::kPrePrepare) m.request = forged;
    c.net_.send(c.nodes_[3], c.nodes_[2], m.encode({}));
  };
  forge(BftMsgType::kPrePrepare, 0);
  for (const ReplicaId as : {0u, 1u}) {
    forge(BftMsgType::kPrepare, as);
    forge(BftMsgType::kCommit, as);
  }
  c.run(sim::seconds(2));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(c.delivered_[static_cast<std::size_t>(i)].empty());
  // The group stays live for honest traffic.
  c.submit(1, 0x01);
  c.run(sim::seconds(4));
  const std::vector<util::Bytes> honest = {util::Bytes{0x01}};
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.delivered_[static_cast<std::size_t>(i)], honest);
}

TEST(Pbft, LateSubmissionsAfterViewChange) {
  Cluster c(4);
  c.replicas_[0]->crash();
  c.submit(1, 0x01);
  c.run(sim::seconds(2));  // force the view change first
  c.submit(2, 0x02);
  c.run(sim::seconds(4));
  for (int i : {1, 2, 3}) {
    EXPECT_EQ(c.delivered_[static_cast<std::size_t>(i)].size(), 2u);
  }
}

TEST(Pbft, ConcurrentBurstKeepsTotalOrder) {
  // 60 requests fired from all four replicas in the same instant: every
  // correct replica must deliver all 60 in the identical order, exactly
  // once (no signing, to keep the burst cheap).
  Cluster c(4, /*sign=*/false);
  for (int k = 0; k < 60; ++k) c.submit(k % 4, static_cast<std::uint8_t>(k));
  c.run(sim::seconds(10));
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(c.delivered_[static_cast<std::size_t>(i)].size(), 60u) << "replica " << i;
    EXPECT_EQ(c.delivered_[static_cast<std::size_t>(i)], c.delivered_[0]);
  }
  // Exactly-once: 60 distinct payloads.
  std::set<util::Bytes> uniq(c.delivered_[0].begin(), c.delivered_[0].end());
  EXPECT_EQ(uniq.size(), 60u);
}

TEST(Pbft, CrashAfterPartialDeliveryStaysConsistent) {
  // Kill the primary midway through a stream; everything delivered before
  // and after must form one agreed sequence among the survivors.
  Cluster c(4);
  for (int k = 0; k < 4; ++k) c.submit(1, static_cast<std::uint8_t>(k));
  c.run(sim::milliseconds(500));
  c.replicas_[0]->crash();
  for (int k = 4; k < 8; ++k) c.submit(2, static_cast<std::uint8_t>(k));
  c.run(sim::seconds(10));
  for (int i : {1, 2, 3}) {
    ASSERT_EQ(c.delivered_[static_cast<std::size_t>(i)].size(), 8u) << "replica " << i;
    EXPECT_EQ(c.delivered_[static_cast<std::size_t>(i)], c.delivered_[1]);
  }
}

TEST(Pbft, RequestHashedOncePerReplica) {
  // Every replica relays the same payloads (the paper's event relay).  Per
  // delivered request the group hashes 4 submits, 12 requests off the wire,
  // the primary's digest, and each backup's digest check and key: 23
  // SHA-256 hashes.  Rehashing the request at every step cost 33.
  Cluster c(4, /*sign=*/false);
  obs::CryptoOpCounters& ops = obs::crypto_ops();
  ops.reset();
  constexpr std::size_t kRequests = 20;
  for (std::size_t k = 0; k < kRequests; ++k) {
    for (std::size_t r = 0; r < 4; ++r) c.submit(r, static_cast<std::uint8_t>(k));
  }
  c.run();
  for (std::size_t i = 0; i < 4; ++i) ASSERT_EQ(c.delivered_[i].size(), kRequests);
  EXPECT_LE(ops.sha256_hashes.load(), 23 * kRequests);
  ops.reset();
}

TEST(Pbft, AlteredPrePrepareRefusedByEveryBackup) {
  // The primary trusts the digest of its own pre-prepare; every backup must
  // still check it.  The network swaps the carried request under the
  // primary's digest, so no backup may prepare and nothing is delivered.
  Cluster c(4, /*sign=*/false);
  int prepares = 0;
  c.net_.set_mutate_fn([&prepares](sim::NodeId, sim::NodeId, util::Bytes& wire) {
    auto decoded = BftMessage::decode(wire);
    if (!decoded) return;
    BftMessage& m = decoded->first;
    if (m.type == BftMsgType::kPrepare) ++prepares;
    if (m.type != BftMsgType::kPrePrepare || !m.request) return;
    m.request->payload.push_back(0xee);
    wire = m.encode(decoded->second);
  });
  c.submit(1, 0x01);
  c.run(sim::seconds(1));
  EXPECT_EQ(prepares, 0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(c.delivered_[i].empty()) << "replica " << i;
}

/// A kFetchReply from replica `from` offering `entries` above seq 0.
util::Bytes fetch_reply(ReplicaId from, const std::map<SeqNum, BftRequest>& entries) {
  BftMessage m;
  m.type = BftMsgType::kFetchReply;
  m.sender = from;
  m.new_view_entries = entries;
  return m.encode({});
}

BftRequest request_of(std::uint8_t tag) {
  BftRequest r;
  r.submitter = 1;
  r.local_seq = tag;
  r.payload = {tag};
  return r;
}

TEST(Pbft, FetchRepliesHashEachEntryOnce) {
  // Three honest peers answer a lagging replica's fetch with the same ten
  // entries (f = 1, so the second reply confirms them all).  Each distinct
  // entry is hashed once when first fetched and keyed once on delivery;
  // hashing every entry of every reply cost one more hash per entry per
  // extra responder.
  Cluster c(4, /*sign=*/false);
  constexpr std::uint8_t kEntries = 10;
  std::map<SeqNum, BftRequest> entries;
  for (std::uint8_t k = 1; k <= kEntries; ++k) entries[k] = request_of(k);
  obs::CryptoOpCounters& ops = obs::crypto_ops();
  ops.reset();
  for (const ReplicaId peer : {1u, 2u, 3u}) {
    c.replicas_[0]->on_message(c.nodes_[peer], fetch_reply(peer, entries));
  }
  EXPECT_EQ(c.replicas_[0]->last_delivered(), kEntries);
  ASSERT_EQ(c.delivered_[0].size(), kEntries);
  for (std::uint8_t k = 1; k <= kEntries; ++k) {
    EXPECT_EQ(c.delivered_[0][k - 1u], util::Bytes{k});
  }
  EXPECT_EQ(ops.sha256_hashes.load(), 2u * kEntries);
  ops.reset();
}

TEST(Pbft, ConflictingFetchedEntryNeedsFPlusOneResponders) {
  // f = 2: a fetched entry is delivered only once three distinct peers
  // report the same request; a conflicting request splits the votes, and a
  // repeated reply from one peer counts once.
  Cluster c(7, /*sign=*/false);
  const BftRequest a = request_of(0xa1);
  const BftRequest b = request_of(0xb2);
  const auto reply = [&c](ReplicaId peer, const BftRequest& r) {
    c.replicas_[0]->on_message(c.nodes_[peer], fetch_reply(peer, {{1, r}}));
  };
  reply(1, a);
  reply(2, b);
  reply(3, a);
  reply(3, a);  // the same responder again
  reply(4, b);
  EXPECT_EQ(c.replicas_[0]->last_delivered(), 0u);
  EXPECT_TRUE(c.delivered_[0].empty());
  reply(5, a);
  EXPECT_EQ(c.replicas_[0]->last_delivered(), 1u);
  EXPECT_EQ(c.delivered_[0], std::vector<util::Bytes>{a.payload});
  reply(6, b);  // a third vote for b arrives after a was delivered
  EXPECT_EQ(c.delivered_[0], std::vector<util::Bytes>{a.payload});
}

TEST(Pbft, QuorumArithmetic) {
  Cluster c(7);
  EXPECT_EQ(c.replicas_[0]->f(), 2u);
  EXPECT_EQ(c.replicas_[0]->quorum(), 5u);
  Cluster c1(1);
  EXPECT_EQ(c1.replicas_[0]->f(), 0u);
  EXPECT_EQ(c1.replicas_[0]->quorum(), 1u);
}

TEST(Pbft, ConfigValidation) {
  sim::Simulator s;
  sim::NetworkSim net(s);
  PbftConfig cfg;  // empty group
  EXPECT_THROW(PbftReplica(s, net, cfg, PbftKeys{}, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace cicero::bft
