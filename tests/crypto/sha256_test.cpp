#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace cicero::crypto {
namespace {

using util::from_hex;
using util::to_hex;

std::string hash_hex(std::string_view s) {
  const Digest d = Sha256::hash(s);
  return to_hex(d.data(), d.size());
}

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const Digest d = h.finish();
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Known answers at the padding boundaries (55/56 bytes: the length fits in
// the last data block or needs another; 64/65 and 119/120: the same one
// block later) plus a long input.  Input byte i is (7i + 3) mod 256; the
// digests were computed with Python's hashlib.
util::Bytes boundary_input(std::size_t n) {
  util::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return b;
}

TEST(Sha256, ExactBlockBoundary) {
  const std::pair<std::size_t, const char*> kAnswers[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b"},
      {56, "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27"},
      {63, "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055"},
      {64, "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241"},
      {65, "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e"},
      {119, "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e"},
      {120, "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5"},
      {1000, "1e9bc38cbf860b9ec31918b065f9b52476c549a782e0e7990bed8ce3868d2371"},
  };
  for (const auto& [len, hex] : kAnswers) {
    const util::Bytes input = boundary_input(len);
    const Digest d = Sha256::hash(input);
    EXPECT_EQ(to_hex(d.data(), d.size()), hex) << "length " << len;
    const Digest p = detail::sha256_portable(input.data(), input.size());
    EXPECT_EQ(to_hex(p.data(), p.size()), hex) << "portable, length " << len;
  }
}

// The dispatched kernel (SHA-NI on CPUs that have it) against the portable
// reference, over random lengths and random update split points.
TEST(Sha256, DispatchedKernelMatchesPortable) {
  if (!detail::sha256_uses_shani()) GTEST_SKIP() << "CPU lacks SHA-NI: both paths are portable";
  util::Rng rng(0x5a256);
  for (int trial = 0; trial < 400; ++trial) {
    util::Bytes input(rng.next_below(1025));
    for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
    Sha256 h;
    std::size_t at = 0;
    while (at < input.size()) {
      const std::size_t take = static_cast<std::size_t>(rng.next_below(input.size() - at + 1));
      h.update(input.data() + at, take);
      at += take;
    }
    const Digest streamed = h.finish();
    const Digest reference = detail::sha256_portable(input.data(), input.size());
    ASSERT_EQ(to_hex(streamed.data(), streamed.size()), to_hex(reference.data(), reference.size()))
        << "length " << input.size() << ", trial " << trial;
  }
}

TEST(Sha256, CountsHashesAndBlocks) {
  obs::CryptoOpCounters& ops = obs::crypto_ops();
  ops.reset();
  Sha256::hash(boundary_input(55));   // 1 block
  Sha256::hash(boundary_input(56));   // 2 blocks
  Sha256::hash(boundary_input(120));  // 3 blocks
  EXPECT_EQ(ops.sha256_hashes.load(), 3u);
  EXPECT_EQ(ops.sha256_blocks.load(), 6u);
  ops.reset();
}

TEST(Sha256, StreamingEqualsOneShot) {
  const util::Bytes data = from_hex("00112233445566778899aabbccddeeff");
  Sha256 h;
  for (const auto b : data) h.update(&b, 1);
  const Digest streamed = h.finish();
  const Digest oneshot = Sha256::hash(data);
  EXPECT_EQ(to_hex(streamed.data(), streamed.size()), to_hex(oneshot.data(), oneshot.size()));
}

// RFC 4231 HMAC-SHA256 test case 2.
TEST(HmacSha256, Rfc4231Case2) {
  const util::Bytes key = util::to_bytes("Jefe");
  const util::Bytes msg = util::to_bytes("what do ya want for nothing?");
  const Digest d = hmac_sha256(key, msg);
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1) {
  const util::Bytes key(20, 0x0b);
  const util::Bytes msg = util::to_bytes("Hi There");
  const Digest d = hmac_sha256(key, msg);
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 6: key longer than one block (hashed first).
TEST(HmacSha256, LongKey) {
  const util::Bytes key(131, 0xaa);
  const util::Bytes msg = util::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  const Digest d = hmac_sha256(key, msg);
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Sha256, DigestBytesCopies) {
  const Digest d = Sha256::hash("x");
  const util::Bytes b = digest_bytes(d);
  ASSERT_EQ(b.size(), 32u);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

}  // namespace
}  // namespace cicero::crypto
