#include "obs/trace_export.h"

#include <cstdint>
#include <map>
#include <string>

#include "obs/json.h"

namespace dlte::obs {

namespace {

// Reserved args keys; annotation keys colliding with them (or with an
// earlier annotation) get a "#<n>" suffix so nothing is silently lost.
bool is_reserved_key(const std::string& k) {
  return k == "id" || k == "parent" || k == "open" ||
         k == "annotations_dropped";
}

}  // namespace

std::string ChromeTraceExporter::to_json(const SpanTracer& tracer) {
  // One synthetic thread id per category, in sorted order, so tracks
  // are stable regardless of which component spanned first.
  std::map<std::string, int> tids;
  for (const Span& s : tracer.spans()) tids.emplace(s.category, 0);
  int next_tid = 1;
  for (auto& [category, tid] : tids) tid = next_tid++;

  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData");
  w.begin_object();
  w.key("generator").value("dlte-span-tracer");
  w.key("span_count").value(std::uint64_t{tracer.spans().size()});
  w.key("open_spans").value(std::uint64_t{tracer.open_count()});
  w.key("dropped_spans").value(tracer.dropped_spans());
  w.key("dropped_annotations").value(tracer.dropped_annotations());
  w.end_object();
  w.key("traceEvents");
  w.begin_array();

  w.begin_object();
  w.key("ph").value("M");
  w.key("pid").value(1);
  w.key("tid").value(0);
  w.key("name").value("process_name");
  w.key("args");
  w.begin_object();
  w.key("name").value("dlte-sim");
  w.end_object();
  w.end_object();
  for (const auto& [category, tid] : tids) {
    w.begin_object();
    w.key("ph").value("M");
    w.key("pid").value(1);
    w.key("tid").value(tid);
    w.key("name").value("thread_name");
    w.key("args");
    w.begin_object();
    w.key("name").value(category);
    w.end_object();
    w.end_object();
  }

  for (const Span& s : tracer.spans()) {
    const TimePoint end = s.open ? tracer.latest() : s.end;
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.category);
    w.key("ph").value("X");
    w.key("ts").value((s.start - TimePoint{}).to_micros());
    w.key("dur").value((end - s.start).to_micros());
    w.key("pid").value(1);
    w.key("tid").value(tids[s.category]);
    w.key("args");
    w.begin_object();
    w.key("id").value(s.id);
    w.key("parent").value(s.parent);
    if (s.open) w.key("open").value("true");
    if (s.annotations.size() >= SpanTracer::kMaxAnnotationsPerSpan) {
      w.key("annotations_dropped").value("true");
    }
    std::map<std::string, int> used;
    for (const SpanAnnotation& a : s.annotations) {
      std::string key = a.key;
      const int n = ++used[key];
      if (n > 1 || is_reserved_key(key)) {
        key += "#" + std::to_string(n);
      }
      w.key(key).value(a.value);
    }
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace dlte::obs
