// Minimal deterministic JSON writer. No dependency, no float printf:
// doubles go through std::to_chars (shortest round-trip form), so the
// same value always serializes to the same bytes on every platform the
// toolchain supports. That byte-stability is load-bearing: BENCH_*.json
// determinism checks and the CI perf gate diff this output directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dlte::obs {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Emits "key": — must be followed by a value or container open.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  // No document has a boolean; deleted so one cannot print as an int.
  JsonWriter& value(bool) = delete;

  [[nodiscard]] const std::string& str() const { return out_; }

  // Escapes `"` `\` and control characters per RFC 8259.
  [[nodiscard]] static std::string escape(const std::string& s);
  // Shortest round-trip decimal form; non-finite values become "null".
  [[nodiscard]] static std::string format_double(double v);

 private:
  void before_value();

  std::string out_;
  // One entry per open container: count of values emitted at that level.
  std::vector<std::uint64_t> depth_;
  bool after_key_{false};
};

}  // namespace dlte::obs
