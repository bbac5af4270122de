#include "util/serialize.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace cicero::util
