#include "common/bytes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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

// Every fixed-width field at an odd (unaligned) offset, byte by byte.
TEST(ByteWriter, KnownAnswerBytesAtOddOffsets) {
  ByteWriter w;
  w.u8(0xa5);
  w.u16(0x1234);
  w.u8(0x5a);
  w.u32(0xdeadbeef);
  w.u8(0x01);
  w.u64(0x0123456789abcdefULL);
  w.u8(0x02);
  w.f64(-2.5);  // 0xc004000000000000
  const std::vector<std::uint8_t> expected = {
      0xa5, 0x12, 0x34, 0x5a, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x01,
      0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x02, 0xc0, 0x04,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(w.data(), expected);

  ByteReader r{expected};
  EXPECT_EQ(r.u8().value(), 0xa5);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u8().value(), 0x5a);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u8().value(), 0x01);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.u8().value(), 0x02);
  EXPECT_EQ(r.f64().value(), -2.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriter, ReserveLeavesTheBytesAlone) {
  ByteWriter plain;
  ByteWriter reserved;
  reserved.reserve(64);
  for (ByteWriter* w : {&plain, &reserved}) {
    w->u32(7);
    w->u64(0xfeedfacecafebeefULL);
  }
  EXPECT_EQ(reserved.data(), plain.data());
}

// Full-width ids from a seed (splitmix64), so every byte lane varies.
std::vector<std::uint64_t> seeded_ids(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> ids(n);
  for (std::uint64_t& id : ids) {
    std::uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    id = z ^ (z >> 31);
  }
  return ids;
}

TEST(ByteWriter, BulkU64sMatchesOneU64PerValue) {
  for (const std::size_t n : {0, 1, 2, 7, 1024}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<std::uint64_t> ids = seeded_ids(n, 40 + n);
    ByteWriter bulk;
    ByteWriter loop;
    for (ByteWriter* w : {&bulk, &loop}) w->u8(0x7e);  // Odd offset.
    bulk.u64s(ids);
    for (const std::uint64_t id : ids) loop.u64(id);
    bulk.u8(0x7f);
    loop.u8(0x7f);
    EXPECT_EQ(bulk.data(), loop.data());
  }
}

TEST(ByteReader, BulkU64sMatchesOneU64PerValue) {
  const std::vector<std::uint64_t> ids = seeded_ids(37, 9);
  ByteWriter w;
  w.u8(0x7e);
  for (const std::uint64_t id : ids) w.u64(id);
  w.u8(0x7f);
  ByteReader r{w.data()};
  ASSERT_EQ(r.u8().value(), 0x7e);
  std::vector<std::uint64_t> out = {5};  // Appended to, not replaced.
  ASSERT_TRUE(r.u64s(ids.size(), out));
  ASSERT_EQ(out.size(), 1 + ids.size());
  EXPECT_EQ(out[0], 5u);
  EXPECT_TRUE(std::equal(ids.begin(), ids.end(), out.begin() + 1));
  EXPECT_EQ(r.u8().value(), 0x7f);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReader, BulkU64sPastTheEndConsumesAndAppendsNothing) {
  ByteWriter w;
  w.u8(0x01);
  w.u64(10);
  w.u64(11);
  w.u32(12);  // Half a third id.
  ByteReader r{w.data()};
  ASSERT_TRUE(r.u8().ok());
  const std::size_t before = r.remaining();
  std::vector<std::uint64_t> out = {5};
  for (const std::size_t n :
       {std::size_t{3}, std::size_t{1} << 61,
        std::numeric_limits<std::size_t>::max()}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_FALSE(r.u64s(n, out));
    EXPECT_EQ(r.remaining(), before);
    EXPECT_EQ(out, std::vector<std::uint64_t>{5});
  }
  // The reader is still where it was: the ids that are there still read.
  ASSERT_TRUE(r.u64s(2, out));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{5, 10, 11}));
  EXPECT_EQ(r.u32().value(), 12u);
  EXPECT_TRUE(r.u64s(0, out));
  EXPECT_EQ(out.size(), 3u);
}

TEST(ByteRoundTrip, LongestStringRoundTrips) {
  const std::string s(65'535, 'q');
  ByteWriter w;
  w.str(s);
  w.u32(0xabcdef01);
  ByteReader r{w.data()};
  EXPECT_EQ(r.str().value(), s);
  EXPECT_EQ(r.u32().value(), 0xabcdef01u);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteRoundTrip, OverlongStringIsCutAndTheNextFieldStillDecodes) {
  // 70,000 bytes do not fit a u16 prefix: the body is cut to the 65,535
  // bytes the prefix counts, so the field after it still lines up.
  std::string s(70'000, 'a');
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<char>('a' + i % 26);
  }
  ByteWriter w;
  w.str(s);
  w.u32(0x600dcafe);
  EXPECT_EQ(w.size(), 2u + 65'535u + 4u);
  ByteReader r{w.data()};
  EXPECT_EQ(r.str().value(), s.substr(0, 65'535));
  EXPECT_EQ(r.u32().value(), 0x600dcafeu);
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace dlte
