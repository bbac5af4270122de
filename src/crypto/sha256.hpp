// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for message digests, hash-to-scalar, commitment hashing, and the
// deterministic DRBG.  Streaming interface plus one-shot helpers.
//
// Two block kernels compute the same function.  On x86-64 CPUs that
// report the SHA extensions (cpuid leaf 7 EBX bit 29) and SSE4.1, every
// Sha256 uses the SHA-NI kernel (`sha256rnds2`/`msg1`/`msg2`); elsewhere
// it uses the portable C++ kernel.  The choice is made once, when the
// first Sha256 is built, from cpuid alone.  The portable kernel stays as the
// fallback and as the reference the SHA-NI kernel is tested against
// (`detail::sha256_portable`).  Both kernels have data-independent timing,
// so HMAC over key bytes stays constant-time (DESIGN.md §7).
//
// `update` compresses whole 64-byte blocks straight from the caller's
// buffer; only a partial tail is copied.  `finish` pads in place and runs
// one or two more blocks, then adds one hash and its block count to
// `obs::crypto_ops()`.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace cicero::crypto {

using Digest = std::array<std::uint8_t, 32>;

namespace detail {
/// SHA-256 of `data` computed with the portable kernel whatever the CPU:
/// the reference for differential tests and micro-benchmarks.
Digest sha256_portable(const std::uint8_t* data, std::size_t len);
/// True when Sha256 runs the SHA-NI kernel on this CPU.
bool sha256_uses_shani();
}  // namespace detail

class Sha256 {
 public:
  Sha256();

  /// Absorbs more input.
  Sha256& update(const std::uint8_t* data, std::size_t len);
  Sha256& update(const util::Bytes& data) { return update(data.data(), data.size()); }
  Sha256& update(std::string_view s) {
    return update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  /// Finalizes and returns the digest.  The object must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(const util::Bytes& data);
  static Digest hash(std::string_view data);

 private:
  /// Compresses `n` consecutive 64-byte blocks into `state`.
  using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);
  explicit Sha256(BlockFn blocks);
  friend Digest detail::sha256_portable(const std::uint8_t* data, std::size_t len);

  BlockFn blocks_;
  std::uint32_t state_[8];
  std::uint64_t bit_len_ = 0;
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104); used by the deterministic nonce derivation.
Digest hmac_sha256(const util::Bytes& key, const util::Bytes& msg);

/// Converts a digest to an owned byte string.
util::Bytes digest_bytes(const Digest& d);

}  // namespace cicero::crypto
