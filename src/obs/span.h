// Causal span tracing over the simulated clock (DESIGN.md §9).
//
// A Span is a named, annotated interval of simulated time with an id and
// a parent id — the Dapper-style building block that turns flat event
// lines and aggregate counters into a causal tree: "this attach spent
// 31 ms in AKA, 9 ms in bearer setup, and retried NAS once".
//
// Layering: obs sits *below* sim, so the tracer cannot hold a
// sim::Simulator; it takes the clock as a callable (NowFn) instead.
// Components never require a tracer — they hold a raw `SpanTracer*`
// that stays nullptr until `set_tracer(tracer, prefix)` attaches one,
// mirroring the set_metrics idiom, and touch it only through the free
// span_* helpers at the bottom of this file. They are null-safe and
// lazy — string_view names, callable annotation values — so a component
// never hand-writes a `tracer_ != nullptr` guard (CI lints for one
// outside src/obs/).
//
// Determinism contract: span ids are assigned in begin() order, all
// timestamps come from the simulated clock, and annotations are stored
// in insertion order — so a same-seed run produces a byte-identical
// exported trace (trace_export.h), which CI diffs directly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace dlte::obs {

using SpanId = std::uint64_t;

// "No span": returned by begin() when tracing is off or the tracer is
// full; accepted (and ignored) by every tracer entry point.
inline constexpr SpanId kNoSpan = 0;

// Sentinel parent for begin(): adopt whatever span is currently active
// on the activation stack (kNoSpan if none). Pass kNoSpan explicitly to
// force a root span.
inline constexpr SpanId kCurrentSpan = ~static_cast<SpanId>(0);

// Deterministic 64-bit key for cross-component span handoff (see
// SpanTracer::stash). Both sides of a handoff — e.g. the eNodeB that
// opens an attach span and the MME that parents its AKA phase under it —
// derive the same key from protocol-visible values (cell + RNTI, TEID +
// sequence, X2 round number) without sharing any pointer.
[[nodiscard]] constexpr std::uint64_t span_key(const char* tag,
                                               std::uint64_t a,
                                               std::uint64_t b = 0) {
  // FNV-1a over the tag, then boost-style mixing of the operands.
  std::uint64_t h = 1469598103934665603ull;
  for (const char* p = tag; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ull;
  }
  h ^= a + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

struct SpanAnnotation {
  TimePoint when{};
  std::string key;
  std::string value;
};

struct Span {
  SpanId id{kNoSpan};
  SpanId parent{kNoSpan};
  std::string name;      // procedure, e.g. "attach", "x2_round"
  std::string category;  // component track, e.g. "ap1/ran"
  TimePoint start{};
  TimePoint end{};
  bool open{true};
  std::vector<SpanAnnotation> annotations;

  [[nodiscard]] Duration duration() const { return end - start; }
};

class SpanTracer {
 public:
  using NowFn = std::function<TimePoint()>;

  // `now` may be empty at construction (the bench harness creates the
  // tracer before any Simulator exists); set_clock() attaches one later.
  // Until a clock is attached, timestamps freeze at the latest seen.
  explicit SpanTracer(NowFn now = {}, std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 1 << 16;
  // Per-span annotation cap: keeps a chatty annotator (faults landing
  // on one long-lived span) from growing it without bound. Overflow is
  // counted and flagged by the exporter.
  static constexpr std::size_t kMaxAnnotationsPerSpan = 128;

  void set_clock(NowFn now) { now_ = std::move(now); }

  // Opens a span. `parent == kCurrentSpan` adopts the active span.
  // Returns kNoSpan (and counts a drop) once `capacity` spans exist.
  SpanId begin(std::string name, std::string category,
               SpanId parent = kCurrentSpan);

  // Closes a span: idempotent, safe out of order (a parent may close
  // before its children), and a no-op for kNoSpan/unknown ids. On first
  // close the duration is rolled up into `<prefix>span.<name>` when a
  // metrics registry is attached.
  void end(SpanId id);

  void annotate(SpanId id, std::string key, std::string value);
  // Annotates the active span, if any — how faults and SLO transitions
  // land inside the causal tree.
  void annotate_current(std::string key, std::string value);

  // Activation stack: the innermost activated-but-not-deactivated span
  // is "current" (auto-parent for begin(), target of annotate_current).
  // Discrete-event code activates around the handler that logically
  // runs inside the span; ScopedActivation below keeps it exception- and
  // early-return-safe.
  void activate(SpanId id);
  void deactivate(SpanId id);
  [[nodiscard]] SpanId current() const {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  // Cross-component handoff: the opener stashes its span id under a
  // span_key(); the continuation peeks (stashed) or claims (take) it.
  void stash(std::uint64_t key, SpanId id);
  [[nodiscard]] SpanId stashed(std::uint64_t key) const;
  SpanId take(std::uint64_t key);

  [[nodiscard]] const Span* find(SpanId id) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t open_count() const;
  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_spans_; }
  [[nodiscard]] std::uint64_t dropped_annotations() const {
    return dropped_annotations_;
  }
  // Latest timestamp observed by any tracer operation — the exporter
  // closes still-open spans at this point without needing a live clock.
  [[nodiscard]] TimePoint latest() const { return latest_; }

  // Latency rollup: on first end(), record duration (ms) into
  // `<prefix>span.<name>`; also counts `<prefix>span.total` and
  // `<prefix>span.dropped`. Null-safe like every set_metrics.
  void set_metrics(MetricsRegistry* registry, const std::string& prefix = "");

 private:
  [[nodiscard]] Span* find_mut(SpanId id);
  TimePoint tick();

  NowFn now_;
  std::size_t capacity_;
  std::vector<Span> spans_;  // id == index + 1
  std::vector<SpanId> stack_;
  std::map<std::uint64_t, SpanId> stash_;
  std::uint64_t dropped_spans_{0};
  std::uint64_t dropped_annotations_{0};
  TimePoint latest_{};

  MetricsRegistry* registry_{nullptr};
  std::string metrics_prefix_;
  Counter* m_total_{nullptr};
  Counter* m_dropped_{nullptr};
};

// ---- Null-safe helpers: the one way a component touches its tracer ----
//
// Every helper is a no-op (or returns kNoSpan) when the tracer is null,
// and names, categories and keys arrive as string_views that become
// std::strings only after that check. A computed annotation value is
// passed as a nullary callable, invoked only when the tracer is attached
// and the span is live — so with tracing off a call site costs one
// branch and builds no string.

inline SpanId span_begin(SpanTracer* t, std::string_view name,
                         std::string_view category,
                         SpanId parent = kCurrentSpan) {
  if (t == nullptr) return kNoSpan;
  return t->begin(std::string(name), std::string(category), parent);
}

inline void span_end(SpanTracer* t, SpanId id) {
  if (t != nullptr && id != kNoSpan) t->end(id);
}

inline void span_annotate(SpanTracer* t, SpanId id, std::string_view key,
                          std::string_view value) {
  if (t != nullptr && id != kNoSpan) {
    t->annotate(id, std::string(key), std::string(value));
  }
}

// Lazy value: `value()` runs only when the annotation will be recorded.
template <typename ValueFn>
  requires std::is_invocable_v<ValueFn&>
inline void span_annotate(SpanTracer* t, SpanId id, std::string_view key,
                          ValueFn&& value) {
  if (t != nullptr && id != kNoSpan) {
    t->annotate(id, std::string(key), std::string(value()));
  }
}

inline void span_stash(SpanTracer* t, std::uint64_t key, SpanId id) {
  if (t != nullptr) t->stash(key, id);
}

[[nodiscard]] inline SpanId span_stashed(const SpanTracer* t,
                                         std::uint64_t key) {
  return t != nullptr ? t->stashed(key) : kNoSpan;
}

inline SpanId span_take(SpanTracer* t, std::uint64_t key) {
  return t != nullptr ? t->take(key) : kNoSpan;
}

[[nodiscard]] inline SpanId span_current(const SpanTracer* t) {
  return t != nullptr ? t->current() : kNoSpan;
}

// RAII activation: the span is "current" for the enclosed scope.
class ScopedActivation {
 public:
  ScopedActivation(SpanTracer* tracer, SpanId id)
      : tracer_(id != kNoSpan ? tracer : nullptr), id_(id) {
    if (tracer_ != nullptr) tracer_->activate(id_);
  }
  ~ScopedActivation() {
    if (tracer_ != nullptr) tracer_->deactivate(id_);
  }
  ScopedActivation(const ScopedActivation&) = delete;
  ScopedActivation& operator=(const ScopedActivation&) = delete;

 private:
  SpanTracer* tracer_;
  SpanId id_;
};

}  // namespace dlte::obs
