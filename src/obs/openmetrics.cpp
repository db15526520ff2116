#include "obs/openmetrics.h"

#include "obs/json.h"

namespace dlte::obs {

namespace {

void family(std::string& out, const std::string& name, const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void line(std::string& out, const std::string& name, const std::string& labels,
          const std::string& value) {
  out += name;
  out += labels;
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

std::string OpenMetricsExporter::sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

std::string OpenMetricsExporter::render(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters()) {
    const std::string n = sanitize(name);
    family(out, n, "counter");
    line(out, n + "_total", "", std::to_string(value));
  }
  for (const auto& [name, value] : snapshot.gauges()) {
    const std::string n = sanitize(name);
    family(out, n, "gauge");
    line(out, n, "", JsonWriter::format_double(value));
  }
  for (const auto& [name, h] : snapshot.histograms()) {
    const std::string n = sanitize(name);
    family(out, n, "summary");
    line(out, n, "{quantile=\"0.5\"}", JsonWriter::format_double(h.p50));
    line(out, n, "{quantile=\"0.9\"}", JsonWriter::format_double(h.p90));
    line(out, n, "{quantile=\"0.95\"}", JsonWriter::format_double(h.p95));
    line(out, n, "{quantile=\"0.99\"}", JsonWriter::format_double(h.p99));
    line(out, n + "_sum", "", JsonWriter::format_double(h.sum));
    line(out, n + "_count", "", std::to_string(h.count));
    family(out, n + "_min", "gauge");
    line(out, n + "_min", "", JsonWriter::format_double(h.min));
    family(out, n + "_max", "gauge");
    line(out, n + "_max", "", JsonWriter::format_double(h.max));
  }
  out += "# EOF\n";
  return out;
}

}  // namespace dlte::obs
