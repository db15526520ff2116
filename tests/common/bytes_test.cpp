#include "common/bytes.h"

#include <gtest/gtest.h>

#include <limits>

namespace dlte {
namespace {

TEST(ByteWriter, EncodesBigEndianU16) {
  ByteWriter w;
  w.u16(0x1234);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.data()[0], 0x12);
  EXPECT_EQ(w.data()[1], 0x34);
}

TEST(ByteWriter, EncodesBigEndianU32) {
  ByteWriter w;
  w.u32(0xdeadbeef);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0xde);
  EXPECT_EQ(w.data()[3], 0xef);
}

TEST(ByteRoundTrip, AllScalarTypes) {
  ByteWriter w;
  w.u8(0x7f);
  w.u16(0xbeef);
  w.u32(0xcafebabe);
  w.u64(0x0123456789abcdefULL);
  w.f64(-273.15);
  w.str("dLTE");

  ByteReader r{w.data()};
  EXPECT_EQ(r.u8().value(), 0x7f);
  EXPECT_EQ(r.u16().value(), 0xbeef);
  EXPECT_EQ(r.u32().value(), 0xcafebabeu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64().value(), -273.15);
  EXPECT_EQ(r.str().value(), "dLTE");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteRoundTrip, FloatSpecials) {
  ByteWriter w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(0.0);
  ByteReader r{w.data()};
  EXPECT_EQ(r.f64().value(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64().value(), 0.0);
}

TEST(ByteReader, ShortBufferFailsCleanly) {
  const std::uint8_t raw[] = {0x01, 0x02};
  ByteReader r{raw};
  EXPECT_TRUE(r.u16().ok());
  EXPECT_FALSE(r.u16().ok());
  EXPECT_FALSE(r.u8().ok());
}

TEST(ByteReader, ShortStringLengthPrefixFails) {
  ByteWriter w;
  w.u16(100);  // Claims 100 bytes follow.
  w.u8('x');
  ByteReader r{w.data()};
  auto s = r.str();
  EXPECT_FALSE(s.ok());
}

TEST(ByteReader, BytesExactAndOverrun) {
  ByteWriter w;
  w.u32(0xaabbccdd);
  ByteReader r{w.data()};
  auto b = r.bytes(4);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)[0], 0xaa);
  EXPECT_FALSE(r.bytes(1).ok());
}

TEST(ByteReader, EmptyString) {
  ByteWriter w;
  w.str("");
  ByteReader r{w.data()};
  EXPECT_EQ(r.str().value(), "");
}

TEST(ByteReader, RemainingTracksConsumption) {
  ByteWriter w;
  w.u64(1);
  ByteReader r{w.data()};
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

}  // namespace
}  // namespace dlte
