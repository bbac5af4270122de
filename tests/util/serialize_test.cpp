#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "util/codec.hpp"
#include "util/rng.hpp"

namespace cicero::util {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, BytesAndStrings) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.str("cicero");
  w.bytes(Bytes{});

  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "cicero");
  EXPECT_TRUE(r.bytes().empty());
  r.expect_end();
}

TEST(Serialize, TruncatedThrows) {
  Writer w;
  w.u64(7);
  Bytes data = w.take();
  data.pop_back();
  Reader r(data);
  EXPECT_THROW(r.u64(), DeserializeError);
}

TEST(Serialize, TruncatedLengthPrefixThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), DeserializeError);
}

TEST(Serialize, ExpectEndThrowsOnTrailing) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_end(), DeserializeError);
}

TEST(Serialize, InvalidBooleanThrows) {
  Bytes data = {7};
  Reader r(data);
  EXPECT_THROW(r.boolean(), DeserializeError);
}

TEST(Serialize, RawFixedWidth) {
  Writer w;
  const Bytes payload = {9, 8, 7, 6};
  w.raw(payload.data(), payload.size());
  Reader r(w.data());
  EXPECT_EQ(r.raw(4), payload);
}

TEST(Serialize, CountMustFitWhatRemains) {
  // Three 4-byte elements fit in 12 remaining bytes; a count of four
  // does not, and is rejected before any caller reserves for it.
  for (const std::uint32_t n : {3u, 4u}) {
    Writer w;
    w.u32(n);
    for (int i = 0; i < 3; ++i) w.u32(0);
    Reader r(w.data());
    if (n == 3) {
      EXPECT_EQ(r.count(4), 3u);
    } else {
      EXPECT_THROW(r.count(4), DeserializeError);
    }
  }
}

TEST(Serialize, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(Serialize, FrameWrittenInPlace) {
  Writer w;
  w.u8(7);
  const std::size_t at = w.begin_frame();
  w.u64(1);
  w.str("ab");
  w.end_frame(at);
  Writer ref;
  ref.u8(7);
  Writer inner;
  inner.u64(1);
  inner.str("ab");
  ref.bytes(inner.data());
  EXPECT_EQ(w.data(), ref.data());
}

// A field list that uses every Wire rule, and a framed struct nested in
// a framed struct, to compare the size-only pass and the in-place frames
// with what they replace.
enum class Shade : std::uint8_t { kLight = 0, kDark = 1 };
constexpr Shade wire_max(Shade) { return Shade::kDark; }

struct Leaf {
  std::uint32_t a = 0;
  Bytes b;
  static constexpr bool kFramed = true;
  bool operator==(const Leaf&) const = default;
};
template <class IO, Of<Leaf> M>
void fields(IO& io, M& m) { io(m.a, m.b); }

struct Inline {
  std::uint64_t x = 0;
  Shade shade = Shade::kLight;
  bool operator==(const Inline&) const = default;
};
template <class IO, Of<Inline> M>
void fields(IO& io, M& m) { io(m.x, m.shade); }

struct Tree {
  std::uint64_t id = 0;
  bool flag = false;
  double weight = 0.0;
  std::array<std::uint8_t, 5> tag{};
  Inline plain;
  Leaf leaf;
  std::vector<Leaf> leaves;
  std::map<std::uint32_t, Leaf> by_key;
  std::optional<Leaf> maybe;
  std::pair<std::uint32_t, Bytes> pair;
  Bytes trailer;
  static constexpr bool kFramed = true;
  bool operator==(const Tree&) const = default;
};
template <class IO, Of<Tree> M>
void fields(IO& io, M& m) {
  io(m.id, m.flag, m.weight, m.tag, m.plain, m.leaf, m.leaves, m.by_key, m.maybe, m.pair,
     kSignedEnd, m.trailer);
}

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes b(static_cast<std::size_t>(rng.next_below(max_len + 1)));
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

Leaf random_leaf(Rng& rng) {
  return Leaf{static_cast<std::uint32_t>(rng.next_u64()), random_bytes(rng, 40)};
}

Tree random_tree(Rng& rng) {
  Tree t;
  t.id = rng.next_u64();
  t.flag = rng.next_below(2) == 1;
  t.weight = rng.uniform(0.0, 1e6);
  for (auto& b : t.tag) b = static_cast<std::uint8_t>(rng.next_u64());
  t.plain = Inline{rng.next_u64(), rng.next_below(2) == 1 ? Shade::kDark : Shade::kLight};
  t.leaf = random_leaf(rng);
  for (std::uint64_t i = 0, n = rng.next_below(4); i < n; ++i) {
    t.leaves.push_back(random_leaf(rng));
  }
  for (std::uint64_t i = 0, n = rng.next_below(4); i < n; ++i) {
    t.by_key[static_cast<std::uint32_t>(rng.next_u64())] = random_leaf(rng);
  }
  if (rng.next_below(2) == 1) t.maybe = random_leaf(rng);
  t.pair = {static_cast<std::uint32_t>(rng.next_u64()), random_bytes(rng, 16)};
  t.trailer = random_bytes(rng, 16);
  return t;
}

/// `t`'s field list written the way framed fields were written before
/// frames were filled in place: each frame encoded into a temporary and
/// copied in as Bytes.
Bytes reference_fields(const Tree& t) {
  Writer w;
  w.u64(t.id);
  w.boolean(t.flag);
  w.f64(t.weight);
  w.raw(t.tag.data(), t.tag.size());
  w.u64(t.plain.x);
  w.u8(static_cast<std::uint8_t>(t.plain.shade));
  w.bytes(encode_fields(t.leaf));
  w.u32(static_cast<std::uint32_t>(t.leaves.size()));
  for (const Leaf& l : t.leaves) w.bytes(encode_fields(l));
  w.u32(static_cast<std::uint32_t>(t.by_key.size()));
  for (const auto& [k, l] : t.by_key) {
    w.u32(k);
    w.bytes(encode_fields(l));
  }
  w.boolean(t.maybe.has_value());
  if (t.maybe) w.bytes(encode_fields(*t.maybe));
  w.u32(t.pair.first);
  w.bytes(t.pair.second);
  w.bytes(t.trailer);
  return w.take();
}

TEST(Codec, NestedFramesMatchCopiedFrames) {
  Rng rng(0xF4A3E);
  for (int i = 0; i < 50; ++i) {
    const Tree t = random_tree(rng);
    // The whole tree nests as a frame inside a tagged pair.
    Writer ref;
    ref.u8(0x42);
    ref.bytes(reference_fields(t));
    ref.u32(9);
    const Bytes wire = encode(std::uint8_t{0x42}, std::pair<Tree, std::uint32_t>{t, 9});
    ASSERT_EQ(wire, ref.data()) << "case " << i;
    const auto back = decode<std::pair<Tree, std::uint32_t>>(std::uint8_t{0x42}, wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->first, t);
  }
}

TEST(Codec, SizePassEqualsWrittenSize) {
  Rng rng(0x512E);
  for (int i = 0; i < 50; ++i) {
    const Tree t = random_tree(rng);
    for (const bool signing : {false, true}) {
      SizeWriter s;
      SizeEncoder{s, signing}.list(t);
      Writer w;
      Encoder{w, signing}.list(t);
      EXPECT_EQ(s.size(), w.size()) << "case " << i << " signing " << signing;
    }
    // Each entry point reserves the size pass's count: one allocation,
    // no slack.
    const Bytes fields_only = encode_fields(t);
    EXPECT_EQ(fields_only.capacity(), fields_only.size());
    const Bytes tagged = encode(std::uint8_t{1}, t);
    EXPECT_EQ(tagged.capacity(), tagged.size());
    const Bytes body = signed_bytes("test/tree", t);
    EXPECT_EQ(body.capacity(), body.size());
  }
}

}  // namespace
}  // namespace cicero::util
