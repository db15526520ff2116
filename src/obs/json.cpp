#include "obs/json.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dlte::obs {

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!depth_.empty()) {
    if (depth_.back() > 0) out_ += ',';
    ++depth_.back();
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  depth_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  depth_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  depth_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  depth_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  if (!depth_.empty()) {
    if (depth_.back() > 0) out_ += ',';
    ++depth_.back();
  }
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  before_value();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string{v});
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  out_ += format_double(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonWriter::format_double(double v) {
  if (!std::isfinite(v)) return "null";
  // Integral values print without a fraction so counters promoted to
  // double stay readable (`12` not `1.2e1`).
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  std::array<char, 64> buf{};
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc{}) return "null";
  return std::string(buf.data(), ptr);
}

}  // namespace dlte::obs
