#include "common/bytes.h"

#include <bit>
#include <cstring>

namespace dlte {

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u16(static_cast<std::uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return fail("short buffer reading u8");
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return fail("short buffer reading u16");
  std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return fail("short buffer reading u32");
  std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                    (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                    (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                    data_[pos_ + 3];
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::u64() {
  auto hi = u32();
  if (!hi) return Err{hi.error()};
  auto lo = u32();
  if (!lo) return Err{lo.error()};
  return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
}

Result<double> ByteReader::f64() {
  auto bits = u64();
  if (!bits) return Err{bits.error()};
  double v;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

Result<std::vector<std::uint8_t>> ByteReader::bytes(std::size_t n) {
  if (remaining() < n) return fail("short buffer reading bytes");
  std::vector<std::uint8_t> out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<std::string> ByteReader::str() {
  auto len = u16();
  if (!len) return Err{len.error()};
  if (remaining() < *len) return fail("short buffer reading string");
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), *len);
  pos_ += *len;
  return out;
}

}  // namespace dlte
