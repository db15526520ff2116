#include "lte/gtp.h"

#include "common/bytes.h"

namespace dlte::lte {

std::vector<std::uint8_t> encode_gtpu(const GtpUHeader& h) {
  ByteWriter w;
  w.u8(0x32);  // Version 1, PT=1, S=1.
  w.u8(0xff);  // Message type: G-PDU.
  w.u16(h.length);
  w.u32(h.teid.value());
  w.u16(h.sequence);
  w.u16(0);  // N-PDU + next extension (unused).
  return w.take();
}

Result<GtpUHeader> decode_gtpu(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto flags = r.u8();
  if (!flags) return Err{flags.error()};
  if ((*flags >> 5) != 1) return fail("unsupported GTP version");
  auto type = r.u8();
  if (!type) return Err{type.error()};
  if (*type != 0xff) return fail("not a G-PDU");
  GtpUHeader h;
  auto len = r.u16();
  if (!len) return Err{len.error()};
  h.length = *len;
  auto teid = r.u32();
  if (!teid) return Err{teid.error()};
  h.teid = Teid{*teid};
  auto seq = r.u16();
  if (!seq) return Err{seq.error()};
  h.sequence = *seq;
  return h;
}

std::string gtpu_brief(const GtpUHeader& h) {
  return "teid=" + std::to_string(h.teid.value()) +
         " seq=" + std::to_string(h.sequence) +
         " len=" + std::to_string(h.length);
}

}  // namespace dlte::lte
