// Chrome trace-event exporter for SpanTracer (DESIGN.md §9).
//
// Emits the JSON object form of the trace-event format — loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. Every span becomes a
// `ph:"X"` complete event whose ts/dur are *simulated* microseconds;
// one synthetic tid per span category gives each component its own
// track, named via `ph:"M"` metadata events. Causality (span id and
// parent id) rides in `args`, alongside the span's annotations, because
// complete events have no native parent field.
//
// Determinism: events are emitted in span-id order (which is begin()
// order, monotone in ts), categories are sorted, and doubles go through
// JsonWriter::format_double — two same-seed runs export byte-identical
// files. Spans still open at export time are closed at tracer.latest()
// and flagged with `"open":"true"`.
#pragma once

#include <string>

#include "obs/span.h"

namespace dlte::obs {

class ChromeTraceExporter {
 public:
  // The full trace document: {"displayTimeUnit","otherData","traceEvents"}.
  [[nodiscard]] static std::string to_json(const SpanTracer& tracer);
};

}  // namespace dlte::obs
