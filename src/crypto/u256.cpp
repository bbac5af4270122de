#include "crypto/u256.hpp"

#include <stdexcept>

namespace cicero::crypto {

unsigned U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (w[i] != 0) return static_cast<unsigned>(i * 64 + 64 - __builtin_clzll(w[i]));
  }
  return 0;
}

int U256::cmp(const U256& o) const {
  for (int i = 3; i >= 0; --i) {
    if (w[i] < o.w[i]) return -1;
    if (w[i] > o.w[i]) return 1;
  }
  return 0;
}

U256 U256::ct_select(std::uint64_t mask, const U256& a, const U256& b) {
  U256 r;
  for (int i = 0; i < 4; ++i) r.w[i] = ct::ct_select(mask, a.w[i], b.w[i]);
  return r;
}

void U256::ct_swap(U256& a, U256& b, std::uint64_t mask) {
  for (int i = 0; i < 4; ++i) ct::ct_swap(a.w[i], b.w[i], mask);
}

std::uint64_t U256::eq_mask(const U256& o) const {
  std::uint64_t acc = 0;
  for (int i = 0; i < 4; ++i) acc |= w[i] ^ o.w[i];
  return ct::mask_zero(acc);
}

std::uint64_t U256::zero_mask() const { return ct::mask_zero(w[0] | w[1] | w[2] | w[3]); }

U256 U256::shl(unsigned k) const {
  U256 r;
  if (k >= 256) return r;
  const unsigned limb = k / 64, bits = k % 64;
  for (int i = 3; i >= 0; --i) {
    std::uint64_t v = 0;
    const int src = i - static_cast<int>(limb);
    if (src >= 0) {
      v = w[src] << bits;
      if (bits != 0 && src >= 1) v |= w[src - 1] >> (64 - bits);
    }
    r.w[i] = v;
  }
  return r;
}

U256 U256::shr(unsigned k) const {
  U256 r;
  if (k >= 256) return r;
  const unsigned limb = k / 64, bits = k % 64;
  for (unsigned i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    const unsigned src = i + limb;
    if (src < 4) {
      v = w[src] >> bits;
      if (bits != 0 && src + 1 < 4) v |= w[src + 1] << (64 - bits);
    }
    r.w[i] = v;
  }
  return r;
}

std::array<std::uint8_t, 32> U256::to_bytes_be() const {
  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t limb = w[3 - i];
    for (int b = 0; b < 8; ++b) {
      out[static_cast<std::size_t>(i * 8 + b)] = static_cast<std::uint8_t>(limb >> (56 - 8 * b));
    }
  }
  return out;
}

U256 U256::from_bytes_be(const std::uint8_t* data, std::size_t len) {
  if (len > 32) throw std::invalid_argument("U256::from_bytes_be: more than 32 bytes");
  U256 r;
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t bit_pos = (len - 1 - i) * 8;
    r.w[bit_pos / 64] |= static_cast<std::uint64_t>(data[i]) << (bit_pos % 64);
  }
  return r;
}

std::string U256::to_hex() const {
  const auto b = to_bytes_be();
  return util::to_hex(b.data(), b.size());
}

U256 U256::from_hex(std::string_view hex) {
  if (hex.size() > 64) throw std::invalid_argument("U256::from_hex: too long");
  std::string padded(64 - hex.size(), '0');
  padded.append(hex);
  const auto bytes = util::from_hex(padded);
  return from_bytes_be(bytes.data(), bytes.size());
}

U256 add_wrap(const U256& a, const U256& b) {
  U256 r = a;
  r.add_assign(b);
  return r;
}

U256 sub_wrap(const U256& a, const U256& b) {
  U256 r = a;
  r.sub_assign(b);
  return r;
}

}  // namespace cicero::crypto
