#include "lte/x2ap.h"

#include <gtest/gtest.h>

namespace dlte::lte {
namespace {

template <typename T>
T round_trip(const T& msg) {
  auto decoded = decode_x2(encode_x2(X2Message{msg}));
  EXPECT_TRUE(decoded.ok());
  return std::get<T>(*decoded);
}

TEST(X2Codec, HandoverRequestRoundTrip) {
  X2HandoverRequest m{CellId{1}, CellId{2}, Imsi{12345}, Tmsi{678},
                      {0xde, 0xad, 0xbe, 0xef}};
  const auto back = round_trip(m);
  EXPECT_EQ(back.source_cell, m.source_cell);
  EXPECT_EQ(back.target_cell, m.target_cell);
  EXPECT_EQ(back.imsi, m.imsi);
  EXPECT_EQ(back.tmsi, m.tmsi);
  EXPECT_EQ(back.security_context, m.security_context);
}

TEST(X2Codec, HandoverAckRoundTrip) {
  X2HandoverRequestAck m{CellId{2}, Imsi{12345}, Teid{99}};
  const auto back = round_trip(m);
  EXPECT_EQ(back.forwarding_teid, m.forwarding_teid);
}

TEST(X2Codec, UeContextReleaseRoundTrip) {
  X2UeContextRelease m{CellId{3}, Imsi{777}};
  EXPECT_EQ(round_trip(m).imsi, m.imsi);
}

TEST(X2Codec, LoadInformationRoundTrip) {
  X2LoadInformation m{CellId{4}, 0.73, 12};
  const auto back = round_trip(m);
  EXPECT_DOUBLE_EQ(back.prb_utilization, 0.73);
  EXPECT_EQ(back.active_ues, 12u);
}

TEST(X2Codec, DlteHelloRoundTrip) {
  DlteHello m{ApId{10}, DlteMode::kCooperative, "ops@valley-isp.example"};
  const auto back = round_trip(m);
  EXPECT_EQ(back.ap, m.ap);
  EXPECT_EQ(back.mode, DlteMode::kCooperative);
  EXPECT_EQ(back.operator_contact, m.operator_contact);
}

TEST(X2Codec, DltePeerStatusRoundTrip) {
  DltePeerStatus m{ApId{11}, DlteMode::kFairShare, 0.4, 0.62, 30};
  const auto back = round_trip(m);
  EXPECT_DOUBLE_EQ(back.offered_load, 0.4);
  EXPECT_DOUBLE_EQ(back.prb_utilization, 0.62);
  EXPECT_EQ(back.active_ues, 30u);
}

TEST(X2Codec, CoexistenceModesRoundTrip) {
  // The unlicensed access behaviours added for src/coex ride the same
  // mode byte as the licensed coordination modes.
  DlteHello hello{ApId{12}, DlteMode::kLbt, "ops@coex.example"};
  EXPECT_EQ(round_trip(hello).mode, DlteMode::kLbt);
  DltePeerStatus status{ApId{13}, DlteMode::kDutyCycle, 0.5, 0.5, 4};
  EXPECT_EQ(round_trip(status).mode, DlteMode::kDutyCycle);
  EXPECT_TRUE(is_coexistence_mode(DlteMode::kLbt));
  EXPECT_TRUE(is_coexistence_mode(DlteMode::kDutyCycle));
  EXPECT_FALSE(is_coexistence_mode(DlteMode::kFairShare));
  EXPECT_FALSE(is_coexistence_mode(DlteMode::kIsolated));
}

TEST(X2Codec, ModeByteAboveDutyCycleRejected) {
  auto bytes = encode_x2(X2Message{DlteHello{ApId{1}, DlteMode::kFairShare,
                                             "x"}});
  bytes[5] = 0x05;  // One past kDutyCycle.
  EXPECT_FALSE(decode_x2(bytes).ok());
}

TEST(X2Codec, ShareProposalRoundTrip) {
  DlteShareProposal m{7, {1, 2, 3}, {0.5, 0.3, 0.2}};
  const auto back = round_trip(m);
  EXPECT_EQ(back.round, 7u);
  EXPECT_EQ(back.ap_ids, m.ap_ids);
  EXPECT_EQ(back.shares, m.shares);
}

TEST(X2Codec, EmptyShareProposal) {
  DlteShareProposal m{0, {}, {}};
  const auto back = round_trip(m);
  EXPECT_TRUE(back.ap_ids.empty());
}

TEST(X2Codec, ShareAcceptRoundTrip) {
  DlteShareAccept m{7, ApId{2}};
  EXPECT_EQ(round_trip(m).ap, ApId{2});
}

TEST(X2Codec, InvalidModeRejected) {
  auto bytes = encode_x2(X2Message{DlteHello{ApId{1}, DlteMode::kFairShare,
                                             "x"}});
  bytes[5] = 0x07;  // Mode byte out of range.
  EXPECT_FALSE(decode_x2(bytes).ok());
}

TEST(X2Codec, GarbageRejected) {
  const std::uint8_t junk[] = {0x7f};
  EXPECT_FALSE(decode_x2(junk).ok());
  EXPECT_FALSE(decode_x2({}).ok());
}

TEST(X2WireSize, StatusMessagesAreSmall) {
  // §4.3: "the X2 interface is relatively low bandwidth" — a peer status
  // report must fit comfortably in a couple hundred bytes.
  const int sz = x2_wire_size(X2Message{DltePeerStatus{}});
  EXPECT_LT(sz, 200);
  EXPECT_GT(sz, 48);  // More than bare framing.
}

TEST(X2WireSize, GrowsWithMembership) {
  DlteShareProposal small{1, {1, 2}, {0.5, 0.5}};
  DlteShareProposal large{1, std::vector<std::uint32_t>(16, 1),
                          std::vector<double>(16, 1.0 / 16)};
  EXPECT_GT(x2_wire_size(X2Message{large}), x2_wire_size(X2Message{small}));
}

TEST(X2WireSize, IsTheEncodedSizePlusFramingForEveryKind) {
  // x2_wire_size sizes a message without encoding it, and encode_x2
  // reserves that size up front: both must agree with the real encoding.
  const std::vector<X2Message> msgs{
      X2HandoverRequest{CellId{1}, CellId{2}, Imsi{3}, Tmsi{4}, {1, 2, 3}},
      X2HandoverRequestAck{CellId{1}, Imsi{2}, Teid{3}},
      X2UeContextRelease{CellId{1}, Imsi{2}},
      X2LoadInformation{CellId{1}, 0.5, 2},
      DlteHello{ApId{1}, DlteMode::kFairShare, "contact"},
      // Longer than the u16 length prefix can count: the body is cut.
      DlteHello{ApId{1}, DlteMode::kLbt, std::string(70'000, 'x')},
      DltePeerStatus{ApId{1}, DlteMode::kCooperative, 0.1, 0.2, 3},
      DlteShareProposal{1, {1, 2, 3}, {0.5, 0.25, 0.25}},
      DlteShareAccept{1, ApId{2}},
  };
  for (const X2Message& m : msgs) {
    const std::vector<std::uint8_t> bytes = encode_x2(m);
    const int expected = static_cast<int>(bytes.size()) + kX2FramingBytes;
    EXPECT_EQ(x2_wire_size(m), expected) << "index " << m.index();
    EXPECT_EQ(bytes.capacity(), bytes.size()) << "index " << m.index();
  }
}

// Property: truncation of any prefix fails cleanly across message kinds.
class X2Truncation : public ::testing::TestWithParam<int> {};

TEST_P(X2Truncation, TruncatedPrefixesFailCleanly) {
  std::vector<X2Message> msgs{
      X2HandoverRequest{CellId{1}, CellId{2}, Imsi{3}, Tmsi{4}, {1, 2}},
      X2HandoverRequestAck{CellId{1}, Imsi{2}, Teid{3}},
      X2UeContextRelease{CellId{1}, Imsi{2}},
      X2LoadInformation{CellId{1}, 0.5, 2},
      DlteHello{ApId{1}, DlteMode::kFairShare, "contact"},
      DltePeerStatus{ApId{1}, DlteMode::kCooperative, 0.1, 0.2, 3},
      DlteShareProposal{1, {1, 2}, {0.6, 0.4}},
      DlteShareAccept{1, ApId{2}},
  };
  const auto bytes = encode_x2(msgs[static_cast<std::size_t>(GetParam())]);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_x2(std::span(bytes.data(), cut)).ok())
        << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, X2Truncation, ::testing::Range(0, 8));

}  // namespace
}  // namespace dlte::lte
