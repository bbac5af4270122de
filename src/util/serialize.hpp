// Binary serialization primitives: little-endian fixed-width integers,
// u32-length-prefixed byte strings, bounded element counts.
//
// Protocol messages (events, updates, acks, BFT phases, membership) do not
// call these field by field: each states its layout once as a field list,
// and util/codec.hpp walks that list with one rule per field type.  The
// format is simple and self-delimiting, so the same bytes that are signed
// can be transported and re-verified byte-for-byte.  Crypto objects
// (points, commitments, partials) still use Writer/Reader directly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace cicero::util {

/// Thrown by Reader on truncated or malformed input.
class DeserializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only binary writer.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  /// Length-prefixed byte string (u32 length).
  void bytes(const Bytes& v);
  void bytes(const std::uint8_t* data, std::size_t len);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view v);
  /// Raw append without a length prefix (for fixed-width fields).
  void raw(const std::uint8_t* data, std::size_t len);

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Sequential binary reader over a borrowed buffer.  The buffer must outlive
/// the Reader.
class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  Bytes bytes();
  std::string str();
  /// Reads exactly `len` raw bytes (no length prefix).
  Bytes raw(std::size_t len);
  /// Reads a u32 element count and rejects it unless `count` elements of
  /// at least `min_elem_size` bytes each fit in what is left, so a corrupt
  /// count cannot make the caller reserve gigabytes.
  std::uint32_t count(std::size_t min_elem_size);

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }
  /// Throws DeserializeError unless the whole buffer was consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace cicero::util
