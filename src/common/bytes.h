// Big-endian byte buffer codec used by all protocol encoders/decoders
// (NAS, S1AP, X2AP, GTP, registry wire format).
//
// ByteWriter appends network-order fields to an owned vector; ByteReader
// consumes a span and reports truncation through Result rather than by
// throwing, since short or garbled buffers arrive from peers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace dlte {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  // IEEE-754 doubles are carried for simulator-level fields (e.g. dLTE
  // X2 extension load reports); bit pattern is serialized big-endian.
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  // Length-prefixed (u16) UTF-8 string.
  void str(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint16_t> u16();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<double> f64();
  [[nodiscard]] Result<std::vector<std::uint8_t>> bytes(std::size_t n);
  [[nodiscard]] Result<std::string> str();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

}  // namespace dlte
