#include "core/crypto_suite.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace cicero::core
