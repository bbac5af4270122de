// Field-list codec: each message's byte layout is written once.
//
// A message states its layout as one field list, found by ADL:
//
//   template <class IO, util::Of<AckMsg> M>
//   void fields(IO& io, M& m) { io(m.update_id, m.switch_node, util::kSignedEnd, m.sig); }
//
// `Encoder` walks it to write, `Decoder` to read, and `signed_bytes` to
// write the part before `kSignedEnd`.  Every encoding entry point walks
// the list twice: once over a `SizeWriter` to learn the exact size, then
// into a Writer that reserved it, so an encoded message is one allocation
// with no capacity slack.  Each field type has one rule, a
// `Wire<T>` here (or beside the one user of a type this layer cannot see):
//
//   u32, u64     little-endian            bool, double  one byte 0/1, IEEE bits
//   enum E       one byte <= wire_max(E{}), declared beside the enum
//   Bytes        u32 length + bytes       byte array    its N bytes, raw
//   vector<T>    u32 count (at most remaining() / min_size<T>()), then each T
//   map<K, V>    u32 count, then each (K, V) with keys strictly ascending
//   optional<T>  presence bool, then T    pair          first, then second
//   struct       its field list, inline or, if it sets kFramed, as Bytes
//                (written in place: length placeholder, fields, length)
//
// Decoding rejects what no encoder writes, so accepted bytes re-encode to
// themselves.
#pragma once

#include <array>
#include <concepts>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "util/serialize.hpp"

namespace cicero::util {

/// Constrains a field list to one message type, const (encode) or not.
template <class M, class T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

/// Ends the signed part of a field list; what follows (a signature, a
/// relay flag) travels outside the signature.
struct SignedEnd {};
inline constexpr SignedEnd kSignedEnd{};

template <class T> struct Wire;

/// Writes values through a Writer, or sizes them through a SizeWriter.
template <class W>
struct BasicEncoder {
  W& w;
  bool signing = false;  ///< stop each field list at kSignedEnd
  bool done = false;
  template <class... T>
  void operator()(const T&... v) {
    ((done ? void() : Wire<T>::put(*this, v)), ...);
  }
  template <class M> void list(const M& m) { fields(*this, m); }
};
using Encoder = BasicEncoder<Writer>;
using SizeEncoder = BasicEncoder<SizeWriter>;

/// Reads into default-constructed values.
struct Decoder {
  Reader& r;
  template <class... T> void operator()(T&... v) { (Wire<std::remove_const_t<T>>::get(r, v), ...); }
  template <class M> void list(M& m) { fields(*this, m); }
};

/// Every rule encodes a default value at its shortest, so a default T's
/// encoding is the least room any T takes on the wire.
template <class T>
std::size_t min_size() {
  static const std::size_t n = [] { SizeWriter w; SizeEncoder{w}(T{}); return w.size(); }();
  return n;
}

template <> struct Wire<SignedEnd> {
  template <class Enc> static void put(Enc& e, SignedEnd) { e.done = e.signing; }
  static void get(Reader&, const SignedEnd&) {}
};

template <std::unsigned_integral T> requires(sizeof(T) == 4 || sizeof(T) == 8) struct Wire<T> {
  template <class Enc> static void put(Enc& e, T v) {
    if constexpr (sizeof(T) == 4) e.w.u32(v); else e.w.u64(v);
  }
  static void get(Reader& r, T& v) { if constexpr (sizeof(T) == 4) v = r.u32(); else v = r.u64(); }
};

template <> struct Wire<bool> {
  template <class Enc> static void put(Enc& e, bool v) { e.w.boolean(v); }
  static void get(Reader& r, bool& v) { v = r.boolean(); }
};

template <> struct Wire<double> {
  template <class Enc> static void put(Enc& e, double v) { e.w.f64(v); }
  static void get(Reader& r, double& v) { v = r.f64(); }
};

template <class E> requires std::is_enum_v<E> struct Wire<E> {
  template <class Enc> static void put(Enc& e, E v) { e.w.u8(static_cast<std::uint8_t>(v)); }
  static void get(Reader& r, E& v) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(wire_max(E{}))) throw DeserializeError("enum out of range");
    v = static_cast<E>(raw);
  }
};

template <> struct Wire<Bytes> {
  template <class Enc> static void put(Enc& e, const Bytes& v) { e.w.bytes(v); }
  static void get(Reader& r, Bytes& v) { v = r.bytes(); }
};

template <std::size_t N> struct Wire<std::array<std::uint8_t, N>> {
  template <class Enc> static void put(Enc& e, const std::array<std::uint8_t, N>& v) {
    e.w.raw(v.data(), N);
  }
  static void get(Reader& r, std::array<std::uint8_t, N>& v) { for (auto& b : v) b = r.u8(); }
};

template <class T> struct Wire<std::vector<T>> {
  template <class Enc> static void put(Enc& e, const std::vector<T>& v) {
    e.w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) e(x);
  }
  static void get(Reader& r, std::vector<T>& v) {
    const std::uint32_t n = r.count(min_size<T>());
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) Decoder{r}(v.emplace_back());
  }
};

template <class K, class V> struct Wire<std::map<K, V>> {
  template <class Enc> static void put(Enc& e, const std::map<K, V>& m) {
    e.w.u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [k, v] : m) e(k, v);
  }
  static void get(Reader& r, std::map<K, V>& m) {
    const std::uint32_t n = r.count(min_size<K>() + min_size<V>());
    for (std::uint32_t i = 0; i < n; ++i) {
      K k{};
      Decoder{r}(k);
      // A repeated or reordered key would not re-encode to these bytes.
      if (!m.empty() && !(m.rbegin()->first < k)) throw DeserializeError("map keys not ascending");
      Decoder{r}(m.emplace_hint(m.end(), std::move(k), V{})->second);
    }
  }
};

template <class T> struct Wire<std::optional<T>> {
  template <class Enc> static void put(Enc& e, const std::optional<T>& v) {
    e.w.boolean(v.has_value());
    if (v) e(*v);
  }
  static void get(Reader& r, std::optional<T>& v) {
    if (r.boolean()) Decoder{r}(v.emplace());
  }
};

template <class A, class B> struct Wire<std::pair<A, B>> {
  template <class Enc> static void put(Enc& e, const std::pair<A, B>& p) { e(p.first, p.second); }
  static void get(Reader& r, std::pair<A, B>& p) { Decoder{r}(p.first, p.second); }
};

/// The field list of `m` as bytes: no tag, no frame.
template <class M>
Bytes encode_fields(const M& m) {
  SizeWriter s;
  SizeEncoder{s}.list(m);
  Writer w(s.size());
  Encoder{w}.list(m);
  return w.take();
}

template <class T>
  requires requires(Encoder& e, const T& v) { fields(e, v); }
struct Wire<T> {
  static constexpr bool kFramed = requires { requires T::kFramed; };
  template <class Enc> static void put(Enc& e, const T& v) {
    if constexpr (kFramed) {
      const std::size_t at = e.w.begin_frame();
      Enc{e.w}.list(v);
      e.w.end_frame(at);
    } else {
      Enc{e.w, e.signing}.list(v);
    }
  }
  static void get(Reader& r, T& v) {
    if constexpr (kFramed) {
      const Bytes frame = r.bytes();  // named: Reader borrows its buffer
      Reader fr(frame);
      Decoder{fr}.list(v);
      fr.expect_end();
    } else {
      Decoder{r}.list(v);
    }
  }
};

/// `tag`, then `m`: the whole wire form of a tagged message.
template <class Tag, class M>
Bytes encode(Tag tag, const M& m) {
  SizeWriter s;
  SizeEncoder{s}(m);
  Writer w(1 + s.size());
  w.u8(static_cast<std::uint8_t>(tag));
  Encoder{w}(m);
  return w.take();
}

/// Inverse of encode(): nullopt on another tag, on any rule's rejection
/// or on trailing bytes.
template <class M, class Tag>
std::optional<M> decode(Tag tag, const Bytes& wire) try {
  Reader r(wire);
  if (r.u8() != static_cast<std::uint8_t>(tag)) return std::nullopt;
  M m{};
  Decoder{r}(m);
  r.expect_end();
  return m;
} catch (const DeserializeError&) {
  return std::nullopt;
}

/// What a signature covers: the domain string, then each value, with
/// every field list cut at its kSignedEnd.
template <class... T>
Bytes signed_bytes(std::string_view domain, const T&... v) {
  SizeWriter s;
  s.str(domain);
  SizeEncoder{s, /*signing=*/true}(v...);
  Writer w(s.size());
  w.str(domain);
  Encoder{w, /*signing=*/true}(v...);
  return w.take();
}

}  // namespace cicero::util
