#include <gtest/gtest.h>

#include "lte/gtp.h"
#include "lte/s1ap.h"

namespace dlte::lte {
namespace {

TEST(GtpU, HeaderRoundTrip) {
  GtpUHeader h{Teid{0x12345678}, 1400, 77};
  const auto bytes = encode_gtpu(h);
  EXPECT_EQ(bytes.size(), static_cast<std::size_t>(kGtpUHeaderBytes));
  auto back = decode_gtpu(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->teid, h.teid);
  EXPECT_EQ(back->length, h.length);
  EXPECT_EQ(back->sequence, h.sequence);
}

TEST(GtpU, RejectsWrongVersion) {
  auto bytes = encode_gtpu(GtpUHeader{Teid{1}, 0, 0});
  bytes[0] = 0x52;  // Version 2.
  EXPECT_FALSE(decode_gtpu(bytes).ok());
}

TEST(GtpU, RejectsNonGpdu) {
  auto bytes = encode_gtpu(GtpUHeader{Teid{1}, 0, 0});
  bytes[1] = 0x01;  // Echo request, not G-PDU.
  EXPECT_FALSE(decode_gtpu(bytes).ok());
}

TEST(GtpU, TunnelOverheadIsForty) {
  // 20 (IP) + 8 (UDP) + 12 (GTP-U) — the per-packet cost of tunneling to
  // a centralized core, charged in experiment F1.
  EXPECT_EQ(kGtpTunnelOverheadBytes, 40);
}

TEST(S1ap, InitialUeMessageRoundTrip) {
  InitialUeMessage m{EnbUeId{7}, CellId{100}, {0x41, 0x01, 0x02}};
  auto back = decode_s1ap(encode_s1ap(S1apMessage{m}));
  ASSERT_TRUE(back.ok());
  const auto& d = std::get<InitialUeMessage>(*back);
  EXPECT_EQ(d.enb_ue_id, m.enb_ue_id);
  EXPECT_EQ(d.cell, m.cell);
  EXPECT_EQ(d.nas_pdu, m.nas_pdu);
}

TEST(S1ap, NasTransportCarriesOpaquePdu) {
  const std::vector<std::uint8_t> pdu(200, 0x5a);
  UplinkNasTransport up{EnbUeId{1}, MmeUeId{2}, pdu};
  auto back = decode_s1ap(encode_s1ap(S1apMessage{up}));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::get<UplinkNasTransport>(*back).nas_pdu, pdu);

  DownlinkNasTransport down{EnbUeId{1}, MmeUeId{2}, pdu};
  auto back2 = decode_s1ap(encode_s1ap(S1apMessage{down}));
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(std::get<DownlinkNasTransport>(*back2).nas_pdu, pdu);
}

TEST(S1ap, ContextSetupKeysSurvive) {
  std::vector<std::uint8_t> key(32);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7);
  }
  InitialContextSetupRequest req{EnbUeId{3}, MmeUeId{4}, Teid{55}, key};
  auto back = decode_s1ap(encode_s1ap(S1apMessage{req}));
  ASSERT_TRUE(back.ok());
  const auto& d = std::get<InitialContextSetupRequest>(*back);
  EXPECT_EQ(d.sgw_uplink_teid, req.sgw_uplink_teid);
  EXPECT_EQ(d.security_key, key);

  InitialContextSetupResponse resp{EnbUeId{3}, MmeUeId{4}, Teid{66}};
  auto back2 = decode_s1ap(encode_s1ap(S1apMessage{resp}));
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(std::get<InitialContextSetupResponse>(*back2).enb_downlink_teid,
            Teid{66});
}

TEST(S1ap, EncodesIntoABufferReservedAtItsFinalSize) {
  const std::vector<S1apMessage> msgs{
      InitialUeMessage{EnbUeId{7}, CellId{100}, {0x41, 0x01, 0x02}},
      UplinkNasTransport{EnbUeId{1}, MmeUeId{2}, std::vector<std::uint8_t>(33)},
      DownlinkNasTransport{EnbUeId{1}, MmeUeId{2}, {0x5d, 1, 1}},
      InitialContextSetupRequest{EnbUeId{3}, MmeUeId{4}, Teid{55},
                                 std::vector<std::uint8_t>(32)},
      InitialContextSetupResponse{EnbUeId{3}, MmeUeId{4}, Teid{66}},
  };
  for (const auto& msg : msgs) {
    const auto bytes = encode_s1ap(msg);
    EXPECT_EQ(bytes.capacity(), bytes.size()) << "type " << msg.index();
  }
}

TEST(S1ap, RetiredReleaseCommandTypeIsUnknown) {
  // Type 6 was UeContextReleaseCommand, which nothing sent or handled:
  // its well-formed frame (eNB id, MME id, cause) is now an unknown type.
  const std::uint8_t release[] = {6, 0, 0, 0, 9, 0, 0, 0, 10, 2};
  const auto back = decode_s1ap(release);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error(), "unknown S1AP message type");
}

TEST(S1ap, GarbageRejected) {
  const std::uint8_t junk[] = {0xff, 0x01, 0x02};
  EXPECT_FALSE(decode_s1ap(junk).ok());
  EXPECT_FALSE(decode_s1ap({}).ok());
}

}  // namespace
}  // namespace dlte::lte
