// Big-endian byte buffer codec used by all protocol encoders/decoders
// (NAS, S1AP, X2AP, GTP, registry wire format).
//
// ByteWriter appends network-order fields to an owned vector; ByteReader
// consumes a span and reports truncation through Result rather than by
// throwing, since short or garbled buffers arrive from peers.
//
// Fixed-width fields move as one word each (a byte swap and a memcpy),
// and runs of u64 ids move through one bulk call (u64s) with one bounds
// check: the registry plane ships a block's lease ids as such runs.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace dlte {
namespace detail {

// Host order <-> network (big-endian) order; an involution.
template <typename T>
T big_endian(T v) {
  static_assert(std::endian::native == std::endian::little ||
                std::endian::native == std::endian::big);
  if constexpr (std::endian::native == std::endian::big || sizeof(T) == 1) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    static_assert(sizeof(T) == 8);
    return __builtin_bswap64(v);
  }
}

template <typename T>
T load_big_endian(const std::uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return big_endian(v);
}

template <typename T>
void store_big_endian(std::uint8_t* p, T v) {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof(T));
}

}  // namespace detail

class ByteWriter {
 public:
  ByteWriter() = default;
  // Writes into `buffer` from its start, reusing its capacity.
  explicit ByteWriter(std::vector<std::uint8_t> buffer)
      : buf_(std::move(buffer)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  // IEEE-754 doubles are carried for simulator-level fields (e.g. dLTE
  // X2 extension load reports); bit pattern is serialized big-endian.
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  // A run of u64s, byte-identical to one u64() per value.
  void u64s(std::span<const std::uint64_t> vs);
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  // Length-prefixed (u16) UTF-8 string. A longer string than the prefix
  // can count (65,535 bytes) is cut to its first 65,535 bytes, so the
  // prefix always matches the body (the cut may split a UTF-8 sequence).
  void str(const std::string& s);

  // Capacity for n bytes in all, as std::vector::reserve.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  // n more bytes at the end, returned for the caller to overwrite.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = buf_.size();
    if (buf_.capacity() - at < n) [[unlikely]] make_room(n);
    buf_.resize(at + n);
    return buf_.data() + at;
  }
  // Geometric growth, out of line: the inlined fast path above sees no
  // allocation (and GCC 12 no reallocation to misjudge the size of).
  void make_room(std::size_t n);
  template <typename T>
  void put(T v) {
    detail::store_big_endian(grow(sizeof(T)), v);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8() {
    return get<std::uint8_t>("short buffer reading u8");
  }
  [[nodiscard]] Result<std::uint16_t> u16() {
    return get<std::uint16_t>("short buffer reading u16");
  }
  [[nodiscard]] Result<std::uint32_t> u32() {
    return get<std::uint32_t>("short buffer reading u32");
  }
  [[nodiscard]] Result<std::uint64_t> u64() {
    return get<std::uint64_t>("short buffer reading u64");
  }
  [[nodiscard]] Result<double> f64() {
    if (remaining() < 8) return short_read("short buffer reading f64");
    return std::bit_cast<double>(load<std::uint64_t>());
  }
  // Appends n u64s to out after one bounds check. A buffer shorter than
  // 8 * n bytes fails: nothing is consumed and nothing appended.
  [[nodiscard]] bool u64s(std::size_t n, std::vector<std::uint64_t>& out);
  [[nodiscard]] Result<std::vector<std::uint8_t>> bytes(std::size_t n);
  // Copies the next out.size() bytes into `out`, allocating nothing. A
  // shorter buffer fails: nothing is consumed and `out` is untouched.
  [[nodiscard]] bool copy_to(std::span<std::uint8_t> out) {
    if (remaining() < out.size()) return false;
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
    return true;
  }
  [[nodiscard]] Result<std::string> str();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  // The failure path stays out of line: every fixed-width read inlines
  // to a bounds check and one word load.
  [[gnu::cold]] static Err<std::string> short_read(const char* what);
  template <typename T>
  T load() {
    const T v = detail::load_big_endian<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  Result<T> get(const char* what) {
    if (remaining() < sizeof(T)) return short_read(what);
    return load<T>();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

}  // namespace dlte
