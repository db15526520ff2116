#include "lte/nas.h"

#include <gtest/gtest.h>

namespace dlte::lte {
namespace {

template <typename T>
T round_trip(const T& msg) {
  const auto bytes = encode_nas(NasMessage{msg});
  auto decoded = decode_nas(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.ok();
  return std::get<T>(*decoded);
}

TEST(NasCodec, AttachRequestRoundTrip) {
  AttachRequest m{Imsi{510170000000001ULL}, Tmsi{0xabcd1234}};
  const auto back = round_trip(m);
  EXPECT_EQ(back.imsi, m.imsi);
  EXPECT_EQ(back.tmsi, m.tmsi);
}

TEST(NasCodec, AuthenticationRequestRoundTrip) {
  AuthenticationRequest m;
  for (std::size_t i = 0; i < 16; ++i) m.rand[i] = static_cast<std::uint8_t>(i);
  m.autn.sqn_xor_ak = {1, 2, 3, 4, 5, 6};
  m.autn.amf = {0xb9, 0xb9};
  for (std::size_t i = 0; i < 8; ++i) {
    m.autn.mac_a[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  const auto back = round_trip(m);
  EXPECT_EQ(back.rand, m.rand);
  EXPECT_EQ(back.autn.sqn_xor_ak, m.autn.sqn_xor_ak);
  EXPECT_EQ(back.autn.amf, m.autn.amf);
  EXPECT_EQ(back.autn.mac_a, m.autn.mac_a);
}

TEST(NasCodec, AuthenticationResponseRoundTrip) {
  AuthenticationResponse m;
  for (std::size_t i = 0; i < 8; ++i) m.res[i] = static_cast<std::uint8_t>(i * 3);
  EXPECT_EQ(round_trip(m).res, m.res);
}

TEST(NasCodec, AttachAcceptRoundTrip) {
  AttachAccept m{Tmsi{42}, 0x0a000001, BearerId{5}};
  const auto back = round_trip(m);
  EXPECT_EQ(back.tmsi, m.tmsi);
  EXPECT_EQ(back.ue_ip, m.ue_ip);
  EXPECT_EQ(back.default_bearer, m.default_bearer);
}

TEST(NasCodec, SecurityModeRoundTrip) {
  SecurityModeCommand m{2, 3};
  const auto back = round_trip(m);
  EXPECT_EQ(back.integrity_algorithm, 2);
  EXPECT_EQ(back.ciphering_algorithm, 3);
}

TEST(NasCodec, EmptyBodiedMessages) {
  EXPECT_TRUE(std::holds_alternative<AuthenticationReject>(
      *decode_nas(encode_nas(NasMessage{AuthenticationReject{}}))));
  EXPECT_TRUE(std::holds_alternative<SecurityModeComplete>(
      *decode_nas(encode_nas(NasMessage{SecurityModeComplete{}}))));
  EXPECT_TRUE(std::holds_alternative<AttachComplete>(
      *decode_nas(encode_nas(NasMessage{AttachComplete{}}))));
}

TEST(NasCodec, AttachRejectCarriesCause) {
  AttachReject m{17};
  EXPECT_EQ(round_trip(m).cause, 17);
}

TEST(NasCodec, UnknownTypeRejected) {
  const std::uint8_t bogus[] = {0xee, 0x00};
  EXPECT_FALSE(decode_nas(bogus).ok());
}

TEST(NasCodec, EmptyBufferRejected) {
  EXPECT_FALSE(decode_nas({}).ok());
}

TEST(NasCodec, MessageNames) {
  EXPECT_STREQ(nas_message_name(NasMessage{AttachRequest{}}),
               "AttachRequest");
  EXPECT_STREQ(nas_message_name(NasMessage{AttachAccept{}}), "AttachAccept");
}

// Every message type encodes into a buffer reserved once at its final
// size, and encoding over a used buffer gives the same bytes in place.
TEST(NasCodec, EncodesIntoABufferReservedAtItsFinalSize) {
  const std::vector<NasMessage> msgs{
      AttachRequest{Imsi{123}, Tmsi{9}}, AuthenticationRequest{},
      AuthenticationResponse{},          AuthenticationReject{},
      SecurityModeCommand{},             SecurityModeComplete{},
      AttachAccept{Tmsi{1}, 2, BearerId{5}}, AttachComplete{},
      AttachReject{1},
  };
  std::vector<std::uint8_t> reused(64, 0xee);
  const std::uint8_t* const storage = reused.data();
  for (const auto& msg : msgs) {
    SCOPED_TRACE(nas_message_name(msg));
    const auto bytes = encode_nas(msg);
    EXPECT_EQ(bytes.capacity(), bytes.size());
    encode_nas(msg, reused);
    EXPECT_EQ(reused, bytes);
    EXPECT_EQ(reused.data(), storage);  // No reallocation.
  }
}

// Property: every prefix-truncation of a valid encoding fails to decode
// rather than crashing or mis-decoding (except the trivial empty-body
// messages whose whole encoding is the 1-byte type).
class NasTruncation : public ::testing::TestWithParam<int> {};

TEST_P(NasTruncation, TruncatedPrefixesFailCleanly) {
  std::vector<NasMessage> msgs{
      AttachRequest{Imsi{123}, Tmsi{9}},
      AuthenticationRequest{},
      AuthenticationResponse{},
      SecurityModeCommand{},
      AttachAccept{Tmsi{1}, 2, BearerId{5}},
      AttachReject{1},
  };
  const auto& msg = msgs[static_cast<std::size_t>(GetParam())];
  const auto bytes = encode_nas(msg);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = decode_nas(std::span(bytes.data(), cut));
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, NasTruncation, ::testing::Range(0, 6));

}  // namespace
}  // namespace dlte::lte
