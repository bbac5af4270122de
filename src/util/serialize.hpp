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
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace cicero::util {

/// Thrown by Reader on truncated or malformed input.
class DeserializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only binary writer.  Fixed-width fields grow the buffer once
/// and store in place; a caller that knows the final size reserves it
/// first (`util::encode` does, from a `SizeWriter` pass), so the buffer is
/// allocated once and `take()` returns it without capacity slack.
class Writer {
 public:
  Writer() = default;
  /// Starts with room for `capacity` bytes.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { store_le(grow(2), v, 2); }
  void u32(std::uint32_t v) { store_le(grow(4), v, 4); }
  void u64(std::uint64_t v) { store_le(grow(8), v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed byte string (u32 length).
  void bytes(const Bytes& v) { bytes(v.data(), v.size()); }
  void bytes(const std::uint8_t* data, std::size_t len) {
    u32(static_cast<std::uint32_t>(len));
    raw(data, len);
  }
  /// Length-prefixed UTF-8 string.
  void str(std::string_view v) {
    bytes(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  }
  /// Raw append without a length prefix (for fixed-width fields).
  void raw(const std::uint8_t* data, std::size_t len) { buf_.insert(buf_.end(), data, data + len); }

  /// Opens a u32-length frame in place: writes a placeholder and returns
  /// its offset for `end_frame`, which stores the length of everything
  /// written since.  The bytes equal `bytes(<the frame's content>)`.
  std::size_t begin_frame() {
    const std::size_t at = buf_.size();
    grow(4);
    return at;
  }
  void end_frame(std::size_t at) {
    store_le(buf_.data() + at, buf_.size() - at - 4, 4);
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::uint8_t* grow(std::size_t n) {
    buf_.resize(buf_.size() + n);
    return buf_.data() + buf_.size() - n;
  }
  static void store_le(std::uint8_t* p, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  Bytes buf_;
};

/// A Writer that stores nothing: each call only adds what the same call
/// on a Writer would append, so one pass over a field list sizes it.
class SizeWriter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u16(std::uint16_t) { n_ += 2; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i64(std::int64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void boolean(bool) { n_ += 1; }
  void bytes(const Bytes& v) { n_ += 4 + v.size(); }
  void bytes(const std::uint8_t*, std::size_t len) { n_ += 4 + len; }
  void str(std::string_view v) { n_ += 4 + v.size(); }
  void raw(const std::uint8_t*, std::size_t len) { n_ += len; }
  std::size_t begin_frame() {
    n_ += 4;
    return 0;
  }
  void end_frame(std::size_t) {}

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
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
