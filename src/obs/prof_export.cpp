#include "obs/prof_export.h"

#include <cmath>
#include <cstdint>
#include <map>

#include "obs/json.h"

namespace dlte::obs {

namespace {

void attribution_object(JsonWriter& w, const EventProfiler& attribution) {
  w.begin_object();
  w.key("labels");
  w.begin_object();
  for (const std::uint32_t id : attribution.sorted_ids()) {
    const EventProfiler::LabelStats& s = attribution.stats(id);
    w.key(attribution.label_name(id));
    w.begin_object();
    w.key("schedules").value(s.schedules);
    w.key("executed").value(s.executed);
    w.key("past_clamps").value(s.past_clamps);
    w.key("residency_ns").value(s.residency_ns);
    w.end_object();
  }
  w.end_object();
  const EventProfiler::LabelStats total = attribution.totals();
  w.key("totals");
  w.begin_object();
  w.key("labels").value(std::uint64_t{attribution.label_count()});
  w.key("schedules").value(total.schedules);
  w.key("executed").value(total.executed);
  w.key("past_clamps").value(total.past_clamps);
  w.key("residency_ns").value(total.residency_ns);
  w.end_object();
  w.end_object();
}

void shard_profile_object(JsonWriter& w, const ShardProfile& profile) {
  w.begin_object();
  w.key("shards").value(std::uint64_t{profile.shards});
  w.key("threads").value(std::uint64_t{profile.threads});
  w.key("windows").value(profile.windows);
  w.key("messages").value(profile.messages);
  w.key("lookahead_s").value(profile.lookahead_s);
  w.key("per_shard");
  w.begin_array();
  for (std::size_t i = 0; i < profile.lanes.size(); ++i) {
    const ShardLane& lane = profile.lanes[i];
    w.begin_object();
    w.key("shard").value(std::uint64_t{i});
    w.key("events").value(lane.events);
    w.key("run_s").value(lane.run_s);
    w.key("barrier_wait_s").value(lane.barrier_wait_s);
    w.key("sample_s").value(lane.sample_s);
    w.key("events_per_window")
        .value(profile.windows > 0
                   ? static_cast<double>(lane.events) /
                         static_cast<double>(profile.windows)
                   : 0.0);
    w.end_object();
  }
  w.end_array();
  w.key("coordinator");
  w.begin_object();
  w.key("exchange_s").value(profile.coordinator.exchange_s);
  w.key("engine_sample_s").value(profile.coordinator.engine_sample_s);
  w.key("audit_s").value(profile.coordinator.audit_s);
  w.end_object();
  w.key("matrix");
  w.begin_array();
  for (const ShardMatrixCell& cell : profile.matrix) {
    w.begin_object();
    w.key("src").value(std::uint64_t{cell.src});
    w.key("dst").value(std::uint64_t{cell.dst});
    w.key("messages").value(cell.messages);
    w.key("bytes").value(cell.bytes);
    w.end_object();
  }
  w.end_array();
  // Columnar samples: one t_s/messages pair per barrier checkpoint plus
  // a per-shard row of cumulative event counts.
  w.key("samples");
  w.begin_object();
  w.key("t_s");
  w.begin_array();
  for (const ShardWindowSample& s : profile.samples) w.value(s.t_s);
  w.end_array();
  w.key("messages");
  w.begin_array();
  for (const ShardWindowSample& s : profile.samples) w.value(s.messages);
  w.end_array();
  w.key("shard_events");
  w.begin_array();
  for (const ShardWindowSample& s : profile.samples) {
    w.begin_array();
    for (const std::uint64_t events : s.shard_events) w.value(events);
    w.end_array();
  }
  w.end_array();
  w.key("queue_depth");
  w.begin_array();
  for (const ShardWindowSample& s : profile.samples) w.value(s.queue_depth);
  w.end_array();
  w.key("queue_resizes");
  w.begin_array();
  for (const ShardWindowSample& s : profile.samples) w.value(s.queue_resizes);
  w.end_array();
  w.end_object();
  w.end_object();
}

// Folded frame names must not carry the stack separator.
std::string fold_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\n') c = '_';
  }
  return out;
}

}  // namespace

std::string ProfExporter::to_json(const ProfileDoc& doc,
                                  const std::string& source) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dlte-prof-v1");
  w.key("source").value(source);
  w.key("event_attribution");
  attribution_object(w, doc.attribution);
  w.key("shard_profile");
  shard_profile_object(w, doc.shard_profile);
  w.end_object();
  return w.str();
}

std::string ProfExporter::event_attribution_json(
    const EventProfiler& attribution) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dlte-prof-v1");
  w.key("event_attribution");
  attribution_object(w, attribution);
  w.end_object();
  return w.str();
}

std::string ProfExporter::to_counter_trace(const ProfileDoc& doc,
                                           const std::string& source) {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData");
  w.begin_object();
  w.key("generator").value("dlte-prof");
  w.key("source").value(source);
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
  w.key("name").value("dlte-prof");
  w.end_object();
  w.end_object();

  const ShardProfile& sp = doc.shard_profile;
  auto counter = [&w](const std::string& name, double ts_us,
                      const char* arg, double value) {
    w.begin_object();
    w.key("name").value(name);
    w.key("ph").value("C");
    w.key("ts").value(ts_us);
    w.key("pid").value(1);
    w.key("tid").value(0);
    w.key("args");
    w.begin_object();
    w.key(arg).value(value);
    w.end_object();
    w.end_object();
  };
  double last_ts_us = 0.0;
  for (const ShardWindowSample& s : sp.samples) {
    const double ts_us = s.t_s * 1e6;
    last_ts_us = ts_us;
    for (std::size_t i = 0; i < s.shard_events.size(); ++i) {
      counter("shard" + std::to_string(i) + ".events", ts_us, "events",
              static_cast<double>(s.shard_events[i]));
    }
    counter("par.messages", ts_us, "messages",
            static_cast<double>(s.messages));
    counter("sim.queue_depth", ts_us, "events",
            static_cast<double>(s.queue_depth));
    counter("sim.queue_resizes", ts_us, "resizes",
            static_cast<double>(s.queue_resizes));
  }
  // Per-label totals as one final counter sample each: Perfetto shows
  // them as flat tracks whose value is the label's executed-event share.
  for (const std::uint32_t id : doc.attribution.sorted_ids()) {
    counter("prof." + doc.attribution.label_name(id), last_ts_us, "executed",
            static_cast<double>(doc.attribution.stats(id).executed));
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string ProfExporter::to_collapsed(const SpanTracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  // Span ids are begin-order (id == index + 1) and a parent always
  // begins before its children, so one forward pass can memoize paths
  // and one pass accumulates each child's duration into its parent.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  auto effective_end = [&tracer](const Span& s) {
    return s.open ? tracer.latest() : s.end;
  };
  for (const Span& s : spans) {
    if (s.parent != kNoSpan && s.parent <= spans.size()) {
      child_ns[s.parent - 1] += (effective_end(s) - s.start).ns();
    }
  }
  std::vector<std::string> paths(spans.size());
  std::map<std::string, std::uint64_t> folded;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string frame = fold_name(s.name);
    if (s.parent != kNoSpan && s.parent <= spans.size()) {
      paths[i] = paths[s.parent - 1] + ";" + frame;
    } else {
      paths[i] = frame;
    }
    const std::int64_t self_ns =
        (effective_end(s) - s.start).ns() - child_ns[i];
    if (self_ns <= 0) continue;  // Fully covered by children.
    // Folded counts are integer microseconds of SELF time.
    folded[paths[i]] += static_cast<std::uint64_t>((self_ns + 500) / 1000);
  }
  std::string out;
  for (const auto& [path, us] : folded) {
    out += path;
    out += ' ';
    out += std::to_string(us);
    out += '\n';
  }
  return out;
}

}  // namespace dlte::obs
