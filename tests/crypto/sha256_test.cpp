#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "crypto/sha256_internal.h"

namespace dlte::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string to_hex(std::span<const std::uint8_t> d) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : d) {
    s += digits[b >> 4];
    s += digits[b & 0xf];
  }
  return s;
}

// FIPS-180 known-answer vectors.
TEST(Sha256, EmptyInput) {
  EXPECT_EQ(
      to_hex(sha256({})),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundaryLengths) {
  // 55 bytes: padding fits one block; 56 bytes: padding spills to a second.
  const auto d55 = sha256(bytes_of(std::string(55, 'a')));
  const auto d56 = sha256(bytes_of(std::string(56, 'a')));
  const auto d64 = sha256(bytes_of(std::string(64, 'a')));
  EXPECT_NE(to_hex(d55), to_hex(d56));
  EXPECT_NE(to_hex(d56), to_hex(d64));
  // Regression: 64*'a' known value.
  EXPECT_EQ(
      to_hex(d64),
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, Fips896BitMessage) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklm"
                             "ghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrs"
                             "mnopqrstnopqrstu"))),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionA) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of(std::string(1'000'000, 'a')))),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// The digest of the scalar reference compression, whatever the CPU.
Digest256 scalar_sha256(std::span<const std::uint8_t> data) {
  detail::Sha256Stream stream{detail::sha256_compress_scalar};
  stream.update(data);
  return stream.finish();
}

Digest256 scalar_hmac(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message) {
  detail::HmacSha256 mac{detail::sha256_compress_scalar, key};
  mac.update(message);
  return mac.finish();
}

std::vector<std::uint8_t> random_bytes(std::mt19937& rng, std::size_t n) {
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(byte(rng));
  return out;
}

// sha256() runs the compression chosen from CPUID; on a CPU with the SHA
// extensions that is the SHA-NI one, and this compares it with the scalar
// reference. Elsewhere both sides are the scalar path.
TEST(Sha256, DispatchedMatchesScalarReference) {
  std::mt19937 rng{20240601};
  for (std::size_t n = 0; n <= 300; ++n) {
    const auto data = random_bytes(rng, n);
    ASSERT_EQ(to_hex(sha256(data)), to_hex(scalar_sha256(data)))
        << "length " << n;
  }
  EXPECT_EQ(
      to_hex(scalar_sha256(bytes_of("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Feeding a stream in pieces gives the one-shot digest, whatever the cuts.
TEST(Sha256, StreamInPiecesMatchesOneShot) {
  std::mt19937 rng{7};
  const auto data = random_bytes(rng, 300);
  const Digest256 whole = sha256(data);
  for (std::size_t cut = 0; cut <= data.size(); cut += 13) {
    for (const auto compress :
         {detail::sha256_compress(), detail::sha256_compress_scalar}) {
      detail::Sha256Stream stream{compress};
      const std::span<const std::uint8_t> all{data};
      stream.update(all.first(cut));
      stream.update(all.subspan(cut, (data.size() - cut) / 2));
      stream.update(all.subspan(cut + (data.size() - cut) / 2));
      ASSERT_EQ(to_hex(stream.finish()), to_hex(whole)) << "cut " << cut;
    }
  }
}

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(
      to_hex(hmac_sha256(key, bytes_of("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      to_hex(hmac_sha256(bytes_of("Jefe"),
                         bytes_of("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 6: key longer than block size (hashed first).
TEST(HmacSha256, LongKeyIsHashed) {
  std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(
      to_hex(hmac_sha256(
          key, bytes_of("Test Using Larger Than Block-Size Key - Hash "
                        "Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// A key of exactly one block is used as is, neither padded nor hashed.
TEST(HmacSha256, KeyOfExactlyOneBlock) {
  std::vector<std::uint8_t> key(64, 0xaa);
  EXPECT_EQ(
      to_hex(hmac_sha256(key, bytes_of("x"))),
      "ce3c639dcb9d8baae5d44c3b8b5e233faab4d1860e07489af5c84f213998bd79");
}

// Empty spans may carry a null data(); neither may reach memcpy.
TEST(HmacSha256, EmptyKeyAndMessage) {
  EXPECT_EQ(
      to_hex(hmac_sha256({}, {})),
      "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(HmacSha256, DispatchedMatchesScalarReference) {
  std::mt19937 rng{20240602};
  std::uniform_int_distribution<std::size_t> message_len(0, 300);
  for (std::size_t key_len = 0; key_len <= 130; ++key_len) {
    const auto key = random_bytes(rng, key_len);
    const auto message = random_bytes(rng, message_len(rng));
    ASSERT_EQ(to_hex(hmac_sha256(key, message)),
              to_hex(scalar_hmac(key, message)))
        << "key length " << key_len;
  }
}

}  // namespace
}  // namespace dlte::crypto
