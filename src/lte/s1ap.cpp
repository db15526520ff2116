#include "lte/s1ap.h"

#include <type_traits>

#include "common/bytes.h"

namespace dlte::lte {

namespace {

enum class S1apType : std::uint8_t {
  kInitialUeMessage = 1,
  kUplinkNasTransport = 2,
  kDownlinkNasTransport = 3,
  kInitialContextSetupRequest = 4,
  kInitialContextSetupResponse = 5,
};

void put_pdu(ByteWriter& w, const std::vector<std::uint8_t>& pdu) {
  w.u16(static_cast<std::uint16_t>(pdu.size()));
  w.bytes(pdu);
}

Result<std::vector<std::uint8_t>> get_pdu(ByteReader& r) {
  auto len = r.u16();
  if (!len) return Err{len.error()};
  return r.bytes(*len);
}

struct Encoder {
  ByteWriter& w;
  void operator()(const InitialUeMessage& m) {
    w.u8(static_cast<std::uint8_t>(S1apType::kInitialUeMessage));
    w.u32(m.enb_ue_id.value());
    w.u32(m.cell.value());
    put_pdu(w, m.nas_pdu);
  }
  void operator()(const UplinkNasTransport& m) {
    w.u8(static_cast<std::uint8_t>(S1apType::kUplinkNasTransport));
    w.u32(m.enb_ue_id.value());
    w.u32(m.mme_ue_id.value());
    put_pdu(w, m.nas_pdu);
  }
  void operator()(const DownlinkNasTransport& m) {
    w.u8(static_cast<std::uint8_t>(S1apType::kDownlinkNasTransport));
    w.u32(m.enb_ue_id.value());
    w.u32(m.mme_ue_id.value());
    put_pdu(w, m.nas_pdu);
  }
  void operator()(const InitialContextSetupRequest& m) {
    w.u8(static_cast<std::uint8_t>(S1apType::kInitialContextSetupRequest));
    w.u32(m.enb_ue_id.value());
    w.u32(m.mme_ue_id.value());
    w.u32(m.sgw_uplink_teid.value());
    put_pdu(w, m.security_key);
  }
  void operator()(const InitialContextSetupResponse& m) {
    w.u8(static_cast<std::uint8_t>(S1apType::kInitialContextSetupResponse));
    w.u32(m.enb_ue_id.value());
    w.u32(m.mme_ue_id.value());
    w.u32(m.enb_downlink_teid.value());
  }
};

// Encoded size: type byte, three u32 fields at most, and the PDU with its
// u16 length prefix.
std::size_t wire_size(const S1apMessage& m) {
  return std::visit(
      [](const auto& msg) -> std::size_t {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, InitialContextSetupRequest>) {
          return 1 + 12 + 2 + msg.security_key.size();
        } else if constexpr (std::is_same_v<T, InitialContextSetupResponse>) {
          return 1 + 12;
        } else {
          return 1 + 8 + 2 + msg.nas_pdu.size();
        }
      },
      m);
}

}  // namespace

std::vector<std::uint8_t> encode_s1ap(const S1apMessage& m) {
  ByteWriter w;
  w.reserve(wire_size(m));
  std::visit(Encoder{w}, m);
  return w.take();
}

Result<S1apMessage> decode_s1ap(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto type = r.u8();
  if (!type) return Err{type.error()};
  auto u32 = [&r]() { return r.u32(); };
  switch (static_cast<S1apType>(*type)) {
    case S1apType::kInitialUeMessage: {
      auto enb = u32();
      if (!enb) return Err{enb.error()};
      auto cell = u32();
      if (!cell) return Err{cell.error()};
      auto pdu = get_pdu(r);
      if (!pdu) return Err{pdu.error()};
      return S1apMessage{
          InitialUeMessage{EnbUeId{*enb}, CellId{*cell}, std::move(*pdu)}};
    }
    case S1apType::kUplinkNasTransport: {
      auto enb = u32();
      if (!enb) return Err{enb.error()};
      auto mme = u32();
      if (!mme) return Err{mme.error()};
      auto pdu = get_pdu(r);
      if (!pdu) return Err{pdu.error()};
      return S1apMessage{UplinkNasTransport{EnbUeId{*enb}, MmeUeId{*mme},
                                            std::move(*pdu)}};
    }
    case S1apType::kDownlinkNasTransport: {
      auto enb = u32();
      if (!enb) return Err{enb.error()};
      auto mme = u32();
      if (!mme) return Err{mme.error()};
      auto pdu = get_pdu(r);
      if (!pdu) return Err{pdu.error()};
      return S1apMessage{DownlinkNasTransport{EnbUeId{*enb}, MmeUeId{*mme},
                                              std::move(*pdu)}};
    }
    case S1apType::kInitialContextSetupRequest: {
      auto enb = u32();
      if (!enb) return Err{enb.error()};
      auto mme = u32();
      if (!mme) return Err{mme.error()};
      auto teid = u32();
      if (!teid) return Err{teid.error()};
      auto key = get_pdu(r);
      if (!key) return Err{key.error()};
      return S1apMessage{InitialContextSetupRequest{
          EnbUeId{*enb}, MmeUeId{*mme}, Teid{*teid}, std::move(*key)}};
    }
    case S1apType::kInitialContextSetupResponse: {
      auto enb = u32();
      if (!enb) return Err{enb.error()};
      auto mme = u32();
      if (!mme) return Err{mme.error()};
      auto teid = u32();
      if (!teid) return Err{teid.error()};
      return S1apMessage{InitialContextSetupResponse{
          EnbUeId{*enb}, MmeUeId{*mme}, Teid{*teid}}};
    }
  }
  return fail("unknown S1AP message type");
}

}  // namespace dlte::lte
