#include "lte/x2ap.h"

#include <algorithm>

#include "common/bytes.h"

namespace dlte::lte {

namespace {

enum class X2Type : std::uint8_t {
  kHandoverRequest = 1,
  kHandoverRequestAck = 2,
  kUeContextRelease = 3,
  kLoadInformation = 4,
  kDlteHello = 0x80,  // Extension range.
  kDltePeerStatus = 0x81,
  kDlteShareProposal = 0x82,
  kDlteShareAccept = 0x83,
};

struct Encoder {
  ByteWriter& w;
  void operator()(const X2HandoverRequest& m) {
    w.u8(static_cast<std::uint8_t>(X2Type::kHandoverRequest));
    w.u32(m.source_cell.value());
    w.u32(m.target_cell.value());
    w.u64(m.imsi.value());
    w.u32(m.tmsi.value());
    w.u16(static_cast<std::uint16_t>(m.security_context.size()));
    w.bytes(m.security_context);
  }
  void operator()(const X2HandoverRequestAck& m) {
    w.u8(static_cast<std::uint8_t>(X2Type::kHandoverRequestAck));
    w.u32(m.target_cell.value());
    w.u64(m.imsi.value());
    w.u32(m.forwarding_teid.value());
    w.u32(m.new_ue_ip);
  }
  void operator()(const X2UeContextRelease& m) {
    w.u8(static_cast<std::uint8_t>(X2Type::kUeContextRelease));
    w.u32(m.source_cell.value());
    w.u64(m.imsi.value());
  }
  void operator()(const X2LoadInformation& m) {
    w.u8(static_cast<std::uint8_t>(X2Type::kLoadInformation));
    w.u32(m.cell.value());
    w.f64(m.prb_utilization);
    w.u32(m.active_ues);
  }
  void operator()(const DlteHello& m) {
    w.u8(static_cast<std::uint8_t>(X2Type::kDlteHello));
    w.u32(m.ap.value());
    w.u8(static_cast<std::uint8_t>(m.mode));
    w.str(m.operator_contact);
  }
  void operator()(const DltePeerStatus& m) {
    w.u8(static_cast<std::uint8_t>(X2Type::kDltePeerStatus));
    w.u32(m.ap.value());
    w.u8(static_cast<std::uint8_t>(m.mode));
    w.f64(m.offered_load);
    w.f64(m.prb_utilization);
    w.u32(m.active_ues);
  }
  void operator()(const DlteShareProposal& m) {
    w.u8(static_cast<std::uint8_t>(X2Type::kDlteShareProposal));
    w.u32(m.round);
    w.u16(static_cast<std::uint16_t>(m.ap_ids.size()));
    for (std::uint32_t id : m.ap_ids) w.u32(id);
    for (double s : m.shares) w.f64(s);
  }
  void operator()(const DlteShareAccept& m) {
    w.u8(static_cast<std::uint8_t>(X2Type::kDlteShareAccept));
    w.u32(m.round);
    w.u32(m.ap.value());
  }
};

// Encoded size of each message, field for field as Encoder writes it.
struct Sizer {
  std::size_t operator()(const X2HandoverRequest& m) const {
    return 1 + 4 + 4 + 8 + 4 + 2 + m.security_context.size();
  }
  std::size_t operator()(const X2HandoverRequestAck&) const {
    return 1 + 4 + 8 + 4 + 4;
  }
  std::size_t operator()(const X2UeContextRelease&) const { return 1 + 4 + 8; }
  std::size_t operator()(const X2LoadInformation&) const {
    return 1 + 4 + 8 + 4;
  }
  std::size_t operator()(const DlteHello& m) const {
    // ByteWriter::str cuts the body to what its u16 prefix can count.
    const std::size_t contact = m.operator_contact.size();
    return 1 + 4 + 1 + 2 + std::min<std::size_t>(contact, 0xffff);
  }
  std::size_t operator()(const DltePeerStatus&) const {
    return 1 + 4 + 1 + 8 + 8 + 4;
  }
  std::size_t operator()(const DlteShareProposal& m) const {
    return 1 + 4 + 2 + 4 * m.ap_ids.size() + 8 * m.shares.size();
  }
  std::size_t operator()(const DlteShareAccept&) const { return 1 + 4 + 4; }
};

}  // namespace

std::vector<std::uint8_t> encode_x2(const X2Message& m) {
  ByteWriter w;
  w.reserve(std::visit(Sizer{}, m));
  std::visit(Encoder{w}, m);
  return w.take();
}

Result<X2Message> decode_x2(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto type = r.u8();
  if (!type) return Err{type.error()};
  switch (static_cast<X2Type>(*type)) {
    case X2Type::kHandoverRequest: {
      auto src = r.u32();
      if (!src) return Err{src.error()};
      auto dst = r.u32();
      if (!dst) return Err{dst.error()};
      auto imsi = r.u64();
      if (!imsi) return Err{imsi.error()};
      auto tmsi = r.u32();
      if (!tmsi) return Err{tmsi.error()};
      auto klen = r.u16();
      if (!klen) return Err{klen.error()};
      auto key = r.bytes(*klen);
      if (!key) return Err{key.error()};
      return X2Message{X2HandoverRequest{CellId{*src}, CellId{*dst},
                                         Imsi{*imsi}, Tmsi{*tmsi},
                                         std::move(*key)}};
    }
    case X2Type::kHandoverRequestAck: {
      auto cell = r.u32();
      if (!cell) return Err{cell.error()};
      auto imsi = r.u64();
      if (!imsi) return Err{imsi.error()};
      auto teid = r.u32();
      if (!teid) return Err{teid.error()};
      auto ip = r.u32();
      if (!ip) return Err{ip.error()};
      return X2Message{X2HandoverRequestAck{CellId{*cell}, Imsi{*imsi},
                                            Teid{*teid}, *ip}};
    }
    case X2Type::kUeContextRelease: {
      auto cell = r.u32();
      if (!cell) return Err{cell.error()};
      auto imsi = r.u64();
      if (!imsi) return Err{imsi.error()};
      return X2Message{X2UeContextRelease{CellId{*cell}, Imsi{*imsi}}};
    }
    case X2Type::kLoadInformation: {
      auto cell = r.u32();
      if (!cell) return Err{cell.error()};
      auto prb = r.f64();
      if (!prb) return Err{prb.error()};
      auto ues = r.u32();
      if (!ues) return Err{ues.error()};
      return X2Message{X2LoadInformation{CellId{*cell}, *prb, *ues}};
    }
    case X2Type::kDlteHello: {
      auto ap = r.u32();
      if (!ap) return Err{ap.error()};
      auto mode = r.u8();
      if (!mode) return Err{mode.error()};
      if (*mode > 4) return fail("invalid dLTE mode");
      auto contact = r.str();
      if (!contact) return Err{contact.error()};
      return X2Message{DlteHello{ApId{*ap}, static_cast<DlteMode>(*mode),
                                 std::move(*contact)}};
    }
    case X2Type::kDltePeerStatus: {
      auto ap = r.u32();
      if (!ap) return Err{ap.error()};
      auto mode = r.u8();
      if (!mode) return Err{mode.error()};
      if (*mode > 4) return fail("invalid dLTE mode");
      auto load = r.f64();
      if (!load) return Err{load.error()};
      auto prb = r.f64();
      if (!prb) return Err{prb.error()};
      auto ues = r.u32();
      if (!ues) return Err{ues.error()};
      return X2Message{DltePeerStatus{ApId{*ap}, static_cast<DlteMode>(*mode),
                                      *load, *prb, *ues}};
    }
    case X2Type::kDlteShareProposal: {
      auto round = r.u32();
      if (!round) return Err{round.error()};
      auto n = r.u16();
      if (!n) return Err{n.error()};
      DlteShareProposal m;
      m.round = *round;
      for (int i = 0; i < *n; ++i) {
        auto id = r.u32();
        if (!id) return Err{id.error()};
        m.ap_ids.push_back(*id);
      }
      for (int i = 0; i < *n; ++i) {
        auto s = r.f64();
        if (!s) return Err{s.error()};
        m.shares.push_back(*s);
      }
      return X2Message{std::move(m)};
    }
    case X2Type::kDlteShareAccept: {
      auto round = r.u32();
      if (!round) return Err{round.error()};
      auto ap = r.u32();
      if (!ap) return Err{ap.error()};
      return X2Message{DlteShareAccept{*round, ApId{*ap}}};
    }
  }
  return fail("unknown X2 message type");
}

int x2_wire_size(const X2Message& m) {
  return static_cast<int>(std::visit(Sizer{}, m)) + kX2FramingBytes;
}

}  // namespace dlte::lte
