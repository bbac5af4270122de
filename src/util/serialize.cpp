#include "util/serialize.hpp"

#include <algorithm>
#include <cstring>

namespace cicero::util {

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Reader::need(std::size_t n) const {
  if (size_ - pos_ < n) throw DeserializeError("truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw DeserializeError("invalid boolean");
  return v == 1;
}

Bytes Reader::bytes() {
  const std::uint32_t len = u32();
  return raw(len);
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

Bytes Reader::raw(std::size_t len) {
  need(len);
  Bytes out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

std::uint32_t Reader::count(std::size_t min_elem_size) {
  const std::uint32_t n = u32();
  if (n > remaining() / std::max<std::size_t>(min_elem_size, 1)) {
    throw DeserializeError("element count exceeds message");
  }
  return n;
}

void Reader::expect_end() const {
  if (!at_end()) throw DeserializeError("trailing bytes after message");
}

}  // namespace cicero::util
