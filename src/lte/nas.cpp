#include "lte/nas.h"

#include "common/bytes.h"

namespace dlte::lte {

namespace {

enum class NasType : std::uint8_t {
  kAttachRequest = 0x41,
  kAuthenticationRequest = 0x52,
  kAuthenticationResponse = 0x53,
  kAuthenticationReject = 0x54,
  kSecurityModeCommand = 0x5d,
  kSecurityModeComplete = 0x5e,
  kAttachAccept = 0x42,
  kAttachComplete = 0x43,
  kAttachReject = 0x44,
};

void put_bytes(ByteWriter& w, std::span<const std::uint8_t> b) {
  w.bytes(b);
}

template <std::size_t N>
Result<std::array<std::uint8_t, N>> get_array(ByteReader& r) {
  std::array<std::uint8_t, N> out{};
  if (!r.copy_to(out)) return fail("short buffer reading bytes");
  return out;
}

// Encoded size of each message, so the encoder writes into a buffer
// reserved once at its final size.
struct WireSize {
  std::size_t operator()(const AttachRequest&) const { return 1 + 8 + 4; }
  std::size_t operator()(const AuthenticationRequest& m) const {
    return 1 + m.rand.size() + m.autn.sqn_xor_ak.size() + m.autn.amf.size() +
           m.autn.mac_a.size();
  }
  std::size_t operator()(const AuthenticationResponse& m) const {
    return 1 + m.res.size();
  }
  std::size_t operator()(const AuthenticationReject&) const { return 1; }
  std::size_t operator()(const SecurityModeCommand&) const { return 3; }
  std::size_t operator()(const SecurityModeComplete&) const { return 1; }
  std::size_t operator()(const AttachAccept&) const { return 1 + 4 + 4 + 1; }
  std::size_t operator()(const AttachComplete&) const { return 1; }
  std::size_t operator()(const AttachReject&) const { return 2; }
};

struct Encoder {
  ByteWriter& w;

  void operator()(const AttachRequest& m) {
    w.u8(static_cast<std::uint8_t>(NasType::kAttachRequest));
    w.u64(m.imsi.value());
    w.u32(m.tmsi.value());
  }
  void operator()(const AuthenticationRequest& m) {
    w.u8(static_cast<std::uint8_t>(NasType::kAuthenticationRequest));
    put_bytes(w, m.rand);
    put_bytes(w, m.autn.sqn_xor_ak);
    put_bytes(w, m.autn.amf);
    put_bytes(w, m.autn.mac_a);
  }
  void operator()(const AuthenticationResponse& m) {
    w.u8(static_cast<std::uint8_t>(NasType::kAuthenticationResponse));
    put_bytes(w, m.res);
  }
  void operator()(const AuthenticationReject&) {
    w.u8(static_cast<std::uint8_t>(NasType::kAuthenticationReject));
  }
  void operator()(const SecurityModeCommand& m) {
    w.u8(static_cast<std::uint8_t>(NasType::kSecurityModeCommand));
    w.u8(m.integrity_algorithm);
    w.u8(m.ciphering_algorithm);
  }
  void operator()(const SecurityModeComplete&) {
    w.u8(static_cast<std::uint8_t>(NasType::kSecurityModeComplete));
  }
  void operator()(const AttachAccept& m) {
    w.u8(static_cast<std::uint8_t>(NasType::kAttachAccept));
    w.u32(m.tmsi.value());
    w.u32(m.ue_ip);
    w.u8(m.default_bearer.value());
  }
  void operator()(const AttachComplete&) {
    w.u8(static_cast<std::uint8_t>(NasType::kAttachComplete));
  }
  void operator()(const AttachReject& m) {
    w.u8(static_cast<std::uint8_t>(NasType::kAttachReject));
    w.u8(m.cause);
  }
};

}  // namespace

std::vector<std::uint8_t> encode_nas(const NasMessage& message) {
  std::vector<std::uint8_t> out;
  encode_nas(message, out);
  return out;
}

void encode_nas(const NasMessage& message, std::vector<std::uint8_t>& out) {
  ByteWriter w{std::move(out)};
  w.reserve(std::visit(WireSize{}, message));
  std::visit(Encoder{w}, message);
  out = w.take();
}

Result<NasMessage> decode_nas(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto type = r.u8();
  if (!type) return Err{type.error()};
  switch (static_cast<NasType>(*type)) {
    case NasType::kAttachRequest: {
      auto imsi = r.u64();
      if (!imsi) return Err{imsi.error()};
      auto tmsi = r.u32();
      if (!tmsi) return Err{tmsi.error()};
      return NasMessage{AttachRequest{Imsi{*imsi}, Tmsi{*tmsi}}};
    }
    case NasType::kAuthenticationRequest: {
      AuthenticationRequest m;
      auto rand = get_array<16>(r);
      if (!rand) return Err{rand.error()};
      m.rand = *rand;
      auto sqn = get_array<6>(r);
      if (!sqn) return Err{sqn.error()};
      m.autn.sqn_xor_ak = *sqn;
      auto amf = get_array<2>(r);
      if (!amf) return Err{amf.error()};
      m.autn.amf = *amf;
      auto mac = get_array<8>(r);
      if (!mac) return Err{mac.error()};
      m.autn.mac_a = *mac;
      return NasMessage{m};
    }
    case NasType::kAuthenticationResponse: {
      auto res = get_array<8>(r);
      if (!res) return Err{res.error()};
      return NasMessage{AuthenticationResponse{*res}};
    }
    case NasType::kAuthenticationReject:
      return NasMessage{AuthenticationReject{}};
    case NasType::kSecurityModeCommand: {
      auto ia = r.u8();
      if (!ia) return Err{ia.error()};
      auto ea = r.u8();
      if (!ea) return Err{ea.error()};
      return NasMessage{SecurityModeCommand{*ia, *ea}};
    }
    case NasType::kSecurityModeComplete:
      return NasMessage{SecurityModeComplete{}};
    case NasType::kAttachAccept: {
      auto tmsi = r.u32();
      if (!tmsi) return Err{tmsi.error()};
      auto ip = r.u32();
      if (!ip) return Err{ip.error()};
      auto bearer = r.u8();
      if (!bearer) return Err{bearer.error()};
      return NasMessage{AttachAccept{Tmsi{*tmsi}, *ip, BearerId{*bearer}}};
    }
    case NasType::kAttachComplete:
      return NasMessage{AttachComplete{}};
    case NasType::kAttachReject: {
      auto cause = r.u8();
      if (!cause) return Err{cause.error()};
      return NasMessage{AttachReject{*cause}};
    }
  }
  return fail("unknown NAS message type");
}

const char* nas_message_name(const NasMessage& message) {
  struct Namer {
    const char* operator()(const AttachRequest&) { return "AttachRequest"; }
    const char* operator()(const AuthenticationRequest&) {
      return "AuthenticationRequest";
    }
    const char* operator()(const AuthenticationResponse&) {
      return "AuthenticationResponse";
    }
    const char* operator()(const AuthenticationReject&) {
      return "AuthenticationReject";
    }
    const char* operator()(const SecurityModeCommand&) {
      return "SecurityModeCommand";
    }
    const char* operator()(const SecurityModeComplete&) {
      return "SecurityModeComplete";
    }
    const char* operator()(const AttachAccept&) { return "AttachAccept"; }
    const char* operator()(const AttachComplete&) { return "AttachComplete"; }
    const char* operator()(const AttachReject&) { return "AttachReject"; }
  };
  return std::visit(Namer{}, message);
}

std::string nas_brief(const NasMessage& message) {
  std::string out = nas_message_name(message);
  out += std::visit(
      [](const auto& m) -> std::string {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AttachRequest>) {
          return m.tmsi.value() != 0
                     ? " tmsi=" + std::to_string(m.tmsi.value())
                     : " imsi=" + std::to_string(m.imsi.value());
        } else if constexpr (std::is_same_v<T, AttachAccept>) {
          return " tmsi=" + std::to_string(m.tmsi.value()) +
                 " ue_ip=" + std::to_string(m.ue_ip);
        } else if constexpr (std::is_same_v<T, AttachReject>) {
          return " cause=" + std::to_string(m.cause);
        } else {
          return "";
        }
      },
      message);
  return out;
}

}  // namespace dlte::lte
