#include "core/audit.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"

namespace cicero::core {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crypto::Drbg d(77);
    kp_ = crypto::SchnorrKeyPair::generate(d);
  }
  crypto::SchnorrKeyPair kp_;

  AuditLog make_unsealed_log(int entries) {
    AuditLog log;
    for (int i = 0; i < entries; ++i) {
      log.append(EventId{1, static_cast<std::uint64_t>(i)},
                 util::to_bytes("update-" + std::to_string(i)), kp_);
    }
    return log;
  }

  AuditLog make_log(int entries) {
    AuditLog log = make_unsealed_log(entries);
    log.seal(kp_);
    return log;
  }

  static std::vector<std::size_t> signed_indices(const AuditLog& log) {
    std::vector<std::size_t> out;
    for (const AuditEntry& e : log.entries()) {
      if (!e.sig.empty()) out.push_back(e.index);
    }
    return out;
  }
};

TEST_F(AuditTest, ChainVerifies) {
  const AuditLog log = make_log(5);
  EXPECT_EQ(log.size(), 5u);
  EXPECT_TRUE(AuditLog::verify_chain(log.entries(), kp_.pk));
}

TEST_F(AuditTest, EmptyChainVerifies) {
  EXPECT_TRUE(AuditLog::verify_chain({}, kp_.pk));
}

TEST_F(AuditTest, TamperedDecisionDetected) {
  AuditLog log = make_log(5);
  auto entries = log.entries();
  entries[2].update_digest[0] ^= 0x01;
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, RemovedEntryBreaksChain) {
  AuditLog log = make_log(5);
  auto entries = log.entries();
  entries.erase(entries.begin() + 2);
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, ReorderedEntriesDetected) {
  AuditLog log = make_log(4);
  auto entries = log.entries();
  std::swap(entries[1], entries[2]);
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, WrongKeyRejected) {
  const AuditLog log = make_log(3);
  crypto::Drbg d(78);
  const auto other = crypto::SchnorrKeyPair::generate(d);
  EXPECT_FALSE(AuditLog::verify_chain(log.entries(), other.pk));
}

TEST_F(AuditTest, ForgedSignatureDetected) {
  // Only the sealed head carries a signature in a short log.
  AuditLog log = make_log(3);
  auto entries = log.entries();
  ASSERT_FALSE(entries.back().sig.empty());
  entries.back().sig[10] ^= 0xFF;
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, CheckpointCadence) {
  AuditLog log = make_unsealed_log(130);
  EXPECT_EQ(signed_indices(log), (std::vector<std::size_t>{63, 127}));
  log.seal(kp_);
  EXPECT_EQ(signed_indices(log), (std::vector<std::size_t>{63, 127, 129}));
  EXPECT_TRUE(AuditLog::verify_chain(log.entries(), kp_.pk));
  const auto sealed = log.entries();
  log.seal(kp_);
  EXPECT_EQ(log.entries().back().sig, sealed.back().sig);
  EXPECT_EQ(signed_indices(log), (std::vector<std::size_t>{63, 127, 129}));
}

TEST_F(AuditTest, UnsealedTailRejected) {
  const AuditLog log = make_unsealed_log(5);
  EXPECT_TRUE(log.entries().back().sig.empty());
  EXPECT_FALSE(AuditLog::verify_chain(log.entries(), kp_.pk));
}

TEST_F(AuditTest, TamperBeforeCheckpointDetected) {
  // Entry 70 is covered only by the seal at index 99: no checkpoint sits
  // between them, so only the chain links it to a signature.
  AuditLog log = make_log(100);
  auto entries = log.entries();
  ASSERT_TRUE(entries[70].sig.empty());
  entries[70].update_digest[0] ^= 0x01;
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
  // Re-linking the chain after the edit still breaks the signed head.
  for (std::size_t i = 71; i < entries.size(); ++i) entries[i].prev = entries[i - 1].digest();
  EXPECT_FALSE(AuditLog::verify_chain(entries, kp_.pk));
}

TEST_F(AuditTest, PrefixEndingBetweenCheckpointsRejected) {
  const AuditLog log = make_log(130);
  const auto& all = log.entries();
  const std::vector<AuditEntry> at_checkpoint(all.begin(), all.begin() + 64);
  EXPECT_TRUE(AuditLog::verify_chain(at_checkpoint, kp_.pk));
  const std::vector<AuditEntry> between(all.begin(), all.begin() + 100);
  EXPECT_FALSE(AuditLog::verify_chain(between, kp_.pk));
}

TEST_F(AuditTest, HonestLogsAgree) {
  // Two controllers emitting the same decisions (possibly in different
  // per-event order) have no divergence.
  crypto::Drbg d(79);
  const auto kp2 = crypto::SchnorrKeyPair::generate(d);
  AuditLog a, b;
  a.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  a.append(EventId{1, 1}, util::to_bytes("u2"), kp_);
  a.append(EventId{1, 2}, util::to_bytes("u3"), kp_);
  b.append(EventId{1, 1}, util::to_bytes("u2"), kp2);  // different order
  b.append(EventId{1, 1}, util::to_bytes("u1"), kp2);
  b.append(EventId{1, 2}, util::to_bytes("u3"), kp2);
  EXPECT_FALSE(AuditLog::first_divergence(a.entries(), b.entries()).has_value());
}

TEST_F(AuditTest, DivergenceLocatesEvent) {
  AuditLog a, b;
  a.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  a.append(EventId{1, 2}, util::to_bytes("honest"), kp_);
  b.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  b.append(EventId{1, 2}, util::to_bytes("corrupted"), kp_);
  const auto div = AuditLog::first_divergence(a.entries(), b.entries());
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(*div, (EventId{1, 2}));
}

TEST_F(AuditTest, LaggingLogIsNotDivergence) {
  AuditLog a, b;
  a.append(EventId{1, 1}, util::to_bytes("u1"), kp_);
  a.append(EventId{1, 2}, util::to_bytes("u2"), kp_);
  b.append(EventId{1, 1}, util::to_bytes("u1"), kp_);  // b is behind
  EXPECT_FALSE(AuditLog::first_divergence(a.entries(), b.entries()).has_value());
}

}  // namespace
}  // namespace cicero::core
