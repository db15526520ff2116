// Exporters for the self-profiling plane (DESIGN.md §14).
//
// Three renderings of one ProfileDoc:
//
//   * to_json — the `dlte-prof-v1` document. Two top-level sections:
//     "event_attribution" (deterministic: byte-identical across double
//     runs and shard counts) and "shard_profile" (wall-clock: per-shard
//     barrier wait, window samples, the shard-pair message matrix —
//     explicitly excluded from byte comparison). CI compares only the
//     attribution section, via tools/prof_report.py --compare.
//
//   * to_counter_trace — Chrome trace-event JSON whose ph:"C" counter
//     events render as Perfetto counter tracks: cumulative events per
//     shard and exchanged messages over simulated time (one track per
//     shard from the window samples), plus one final per-label
//     executed-events counter. Loads in ui.perfetto.dev next to the
//     span traces ChromeTraceExporter emits.
//
//   * to_collapsed — flamegraph-folded text ("root;child;leaf <us>")
//     derived from SpanTracer span nesting: each span contributes its
//     SELF time (duration minus children) to its ancestry path, so the
//     output feeds flamegraph.pl / speedscope / inferno unmodified.
//
// All three are deterministic functions of their inputs; only the
// shard_profile INPUT carries wall-clock values.
#pragma once

#include <string>

#include "obs/prof.h"
#include "obs/span.h"

namespace dlte::obs {

class ProfExporter {
 public:
  // The full dlte-prof-v1 document.
  [[nodiscard]] static std::string to_json(const ProfileDoc& doc,
                                           const std::string& source);

  // The deterministic section alone, as its own JSON object — what the
  // in-process shard sweeps byte-compare.
  [[nodiscard]] static std::string event_attribution_json(
      const EventProfiler& attribution);

  // Perfetto counter tracks (Chrome trace-event JSON).
  [[nodiscard]] static std::string to_counter_trace(const ProfileDoc& doc,
                                                    const std::string& source);

  // Collapsed-stack (flamegraph-folded) text from span nesting.
  [[nodiscard]] static std::string to_collapsed(const SpanTracer& tracer);
};

}  // namespace dlte::obs
