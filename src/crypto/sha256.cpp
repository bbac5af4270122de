#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "obs/metrics.hpp"

namespace cicero::crypto {

namespace {
constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);

void blocks_portable(std::uint32_t* state, const std::uint8_t* p, std::size_t n) {
  for (; n > 0; --n, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(p[4 * i]) << 24 |
             static_cast<std::uint32_t>(p[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(p[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
// SHA-NI kernel, after Intel's "New Instructions Supporting the Secure Hash
// Algorithm on Intel Architecture Processors" (2013).  The state lives in
// two registers as ABEF and CDGH; each sha256rnds2 runs two rounds, and
// sha256msg1/msg2 extend the message schedule four words at a time.  All
// loads and stores are unaligned.
#define CICERO_SHANI __attribute__((target("sha,sse4.1")))

/// Rounds 4i..4i+3 on schedule words `w` (W[4i] in the low lane).
CICERO_SHANI inline void shani_rounds(__m128i& abef, __m128i& cdgh, __m128i w, int i) {
  const __m128i wk =
      _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * i])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Finishes schedule words W[4i+4..4i+7] in `next`, which holds
/// msg1(W[4i-12..4i-9], W[4i-8..4i-5]), from `prev` = W[4i-4..4i-1] and
/// `cur` = W[4i..4i+3].
CICERO_SHANI inline __m128i shani_schedule(__m128i next, __m128i cur, __m128i prev) {
  return _mm_sha256msg2_epu32(_mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur);
}

CICERO_SHANI void blocks_shani(std::uint32_t* state, const std::uint8_t* p, std::size_t n) {
  // Byte order within each 32-bit word: big-endian message words.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, p += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
    __m128i m1 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)), bswap);
    __m128i m2 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)), bswap);
    __m128i m3 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)), bswap);

    shani_rounds(abef, cdgh, m0, 0);
    shani_rounds(abef, cdgh, m1, 1);
    m0 = _mm_sha256msg1_epu32(m0, m1);
    shani_rounds(abef, cdgh, m2, 2);
    m1 = _mm_sha256msg1_epu32(m1, m2);
    shani_rounds(abef, cdgh, m3, 3);
    m0 = shani_schedule(m0, m3, m2);
    m2 = _mm_sha256msg1_epu32(m2, m3);
    for (int i = 4; i < 12; i += 4) {
      shani_rounds(abef, cdgh, m0, i);
      m1 = shani_schedule(m1, m0, m3);
      m3 = _mm_sha256msg1_epu32(m3, m0);
      shani_rounds(abef, cdgh, m1, i + 1);
      m2 = shani_schedule(m2, m1, m0);
      m0 = _mm_sha256msg1_epu32(m0, m1);
      shani_rounds(abef, cdgh, m2, i + 2);
      m3 = shani_schedule(m3, m2, m1);
      m1 = _mm_sha256msg1_epu32(m1, m2);
      shani_rounds(abef, cdgh, m3, i + 3);
      m0 = shani_schedule(m0, m3, m2);
      m2 = _mm_sha256msg1_epu32(m2, m3);
    }
    shani_rounds(abef, cdgh, m0, 12);
    m1 = shani_schedule(m1, m0, m3);
    m3 = _mm_sha256msg1_epu32(m3, m0);
    shani_rounds(abef, cdgh, m1, 13);
    m2 = shani_schedule(m2, m1, m0);
    shani_rounds(abef, cdgh, m2, 14);
    m3 = shani_schedule(m3, m2, m1);
    shani_rounds(abef, cdgh, m3, 15);

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}
#undef CICERO_SHANI

bool cpu_has_shani() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & (1u << 19)) == 0) return false;  // SSE4.1
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return (b & (1u << 29)) != 0;  // SHA
}
#endif

/// The kernel every default-constructed Sha256 uses, chosen once from cpuid.
BlockFn dispatched_blocks() {
#if defined(__x86_64__)
  static const BlockFn kBlocks = cpu_has_shani() ? blocks_shani : blocks_portable;
  return kBlocks;
#else
  return blocks_portable;
#endif
}
}  // namespace

namespace detail {
Digest sha256_portable(const std::uint8_t* data, std::size_t len) {
  return Sha256(blocks_portable).update(data, len).finish();
}

bool sha256_uses_shani() { return dispatched_blocks() != blocks_portable; }
}  // namespace detail

Sha256::Sha256() : Sha256(dispatched_blocks()) {}

Sha256::Sha256(BlockFn blocks) : blocks_(blocks) {
  static constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::memcpy(state_, kInit, sizeof(state_));
}

Sha256& Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return *this;
  bit_len_ += static_cast<std::uint64_t>(len) * 8;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(len, sizeof(buf_) - buf_len_);
    std::memcpy(buf_ + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ < sizeof(buf_)) return *this;
    blocks_(state_, buf_, 1);
    buf_len_ = 0;
  }
  const std::size_t whole = len / sizeof(buf_);
  if (whole > 0) {
    blocks_(state_, data, whole);
    data += whole * sizeof(buf_);
    len -= whole * sizeof(buf_);
  }
  if (len > 0) std::memcpy(buf_, data, len);
  buf_len_ = len;
  return *this;
}

Digest Sha256::finish() {
  // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit
  // length; one extra block when the tail leaves no room for the length.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, sizeof(buf_) - buf_len_);
    blocks_(state_, buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) buf_[56 + i] = static_cast<std::uint8_t>(bit_len_ >> (56 - 8 * i));
  blocks_(state_, buf_, 1);

  obs::CryptoOpCounters& ops = obs::crypto_ops();
  ops.sha256_hashes.fetch_add(1, std::memory_order_relaxed);
  ops.sha256_blocks.fetch_add((bit_len_ / 8 + 8) / 64 + 1, std::memory_order_relaxed);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(const util::Bytes& data) { return Sha256().update(data).finish(); }
Digest Sha256::hash(std::string_view data) { return Sha256().update(data).finish(); }

Digest hmac_sha256(const util::Bytes& key, const util::Bytes& msg) {
  std::uint8_t k[64] = {0};
  if (key.size() > 64) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(k, kd.data(), kd.size());
  } else {
    std::memcpy(k, key.data(), key.size());
  }
  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(ipad, 64).update(msg);
  const Digest inner_d = inner.finish();
  Sha256 outer;
  outer.update(opad, 64).update(inner_d.data(), inner_d.size());
  return outer.finish();
}

util::Bytes digest_bytes(const Digest& d) { return util::Bytes(d.begin(), d.end()); }

}  // namespace cicero::crypto
