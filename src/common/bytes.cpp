#include "common/bytes.h"

#include <algorithm>
#include <limits>

namespace dlte {

void ByteWriter::u64s(std::span<const std::uint64_t> vs) {
  std::uint8_t* out = grow(8 * vs.size());
  for (const std::uint64_t v : vs) {
    detail::store_big_endian(out, v);
    out += 8;
  }
}

void ByteWriter::make_room(std::size_t n) {
  buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + n));
}

void ByteWriter::str(const std::string& s) {
  const std::uint16_t n = static_cast<std::uint16_t>(std::min<std::size_t>(
      s.size(), std::numeric_limits<std::uint16_t>::max()));
  u16(n);
  buf_.insert(buf_.end(), s.begin(), s.begin() + n);
}

Err<std::string> ByteReader::short_read(const char* what) {
  return fail(what);
}

bool ByteReader::u64s(std::size_t n, std::vector<std::uint64_t>& out) {
  if (remaining() / 8 < n) return false;
  const std::uint8_t* in = data_.data() + pos_;
  const std::size_t at = out.size();
  out.resize(at + n);
  std::uint64_t* dst = out.data() + at;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = detail::load_big_endian<std::uint64_t>(in + 8 * i);
  }
  pos_ += 8 * n;
  return true;
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
