#include "core/crypto_suite.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"

namespace cicero::core {
namespace {

TEST(CryptoSuite, ModeledSwitchKeyDrawsLikeRealAndSkipsThePublicKey) {
  const CryptoSuite real(true, ThresholdBackend::kSimBls);
  const CryptoSuite modeled(false, ThresholdBackend::kSimBls);
  crypto::Drbg real_drbg(7919);
  crypto::Drbg modeled_drbg(7919);

  const crypto::SchnorrKeyPair real_key = real.switch_key(real_drbg);
  const crypto::SchnorrKeyPair modeled_key = modeled.switch_key(modeled_drbg);

  // Both consumed the same draw, so every later key, share and nonce of a
  // deployment is the same in either crypto mode.
  EXPECT_EQ(real_drbg.next_scalar(), modeled_drbg.next_scalar());
  EXPECT_TRUE(real_key.pk == crypto::Point::mul_gen(real_key.sk));
  EXPECT_FALSE(real_key.pk.is_infinity());
  EXPECT_TRUE(modeled_key.pk.is_infinity());
}

class VerifyMemoTest : public ::testing::Test {
 protected:
  AckMsg signed_ack(sched::UpdateId id) const {
    AckMsg a;
    a.update_id = id;
    a.switch_node = kSwitch;
    suite_.sign(key_, a);
    return a;
  }
  const PkiDirectory& pki() const { return suite_.pki(); }

  static constexpr std::uint32_t kSwitch = 7;
  crypto::Drbg drbg_{42};
  crypto::SchnorrKeyPair key_ = crypto::SchnorrKeyPair::generate(drbg_);
  CryptoSuite suite_{/*real=*/true, ThresholdBackend::kSimBls};

  void SetUp() override { suite_.pki().register_origin(kSwitch, key_.pk); }
};

TEST_F(VerifyMemoTest, RepeatIsAnsweredFromTheMemo) {
  const AckMsg ack = signed_ack(1);
  const std::uint64_t real_before = obs::crypto_ops().schnorr_verify.load();
  EXPECT_TRUE(suite_.verify_ack(ack));
  EXPECT_TRUE(suite_.verify_ack(ack));
  EXPECT_TRUE(suite_.verify_ack(AckMsg(ack)));
  EXPECT_EQ(obs::crypto_ops().schnorr_verify.load() - real_before, 1u);
  EXPECT_EQ(pki().verify_memo_hits(), 2u);
  EXPECT_EQ(pki().verify_memo_entries(), 1u);
}

TEST_F(VerifyMemoTest, ForgedSignatureOverAVerifiedBodyIsRejected) {
  const AckMsg honest = signed_ack(1);
  ASSERT_TRUE(suite_.verify_ack(honest));

  crypto::Drbg other(43);
  AckMsg forged = honest;
  forged.sig = crypto::schnorr_sign(crypto::SchnorrKeyPair::generate(other), forged.body())
                   .to_bytes();
  EXPECT_FALSE(suite_.verify_ack(forged));
  AckMsg flipped = honest;
  flipped.sig.back() ^= 0x01;
  EXPECT_FALSE(suite_.verify_ack(flipped));
  AckMsg retargeted = honest;  // the honest signature over another body
  retargeted.update_id = 2;
  EXPECT_FALSE(suite_.verify_ack(retargeted));

  // Failures are not remembered: the memo still holds the honest triple only.
  EXPECT_FALSE(suite_.verify_ack(forged));
  EXPECT_EQ(pki().verify_memo_hits(), 0u);
  EXPECT_EQ(pki().verify_memo_entries(), 1u);
  EXPECT_TRUE(suite_.verify_ack(honest));
  EXPECT_EQ(pki().verify_memo_hits(), 1u);
}

TEST_F(VerifyMemoTest, ReRegisteringAnOriginInvalidatesItsEntries) {
  const AckMsg ack = signed_ack(1);
  ASSERT_TRUE(suite_.verify_ack(ack));
  ASSERT_EQ(pki().verify_memo_entries(), 1u);

  crypto::Drbg other(43);
  suite_.pki().register_origin(kSwitch, crypto::SchnorrKeyPair::generate(other).pk);
  EXPECT_EQ(pki().verify_memo_entries(), 0u);
  EXPECT_FALSE(suite_.verify_ack(ack));  // checked against the new key
  EXPECT_EQ(pki().verify_memo_hits(), 0u);
}

TEST_F(VerifyMemoTest, WindowEvictsOldestFirst) {
  const std::size_t window = PkiDirectory::kVerifyMemoWindow;
  std::vector<AckMsg> acks;
  for (std::size_t i = 0; i <= window; ++i) acks.push_back(signed_ack(i + 1));
  for (const AckMsg& a : acks) ASSERT_TRUE(suite_.verify_ack(a));
  EXPECT_EQ(pki().verify_memo_entries(), window);

  EXPECT_TRUE(suite_.verify_ack(acks.back()));  // newest: still held
  EXPECT_EQ(pki().verify_memo_hits(), 1u);
  EXPECT_TRUE(suite_.verify_ack(acks.front()));  // oldest: evicted, verified again
  EXPECT_EQ(pki().verify_memo_hits(), 1u);
  EXPECT_EQ(pki().verify_memo_entries(), window);
}

}  // namespace
}  // namespace cicero::core
