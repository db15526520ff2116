// Determinism audit plane, layer 1: windowed execution digests
// (DESIGN.md §15).
//
// The whole scaling strategy rests on one invariant: a sharded run is
// byte-identical to the sequential one at any shard/thread count. The
// byte-compares that enforce it (obs_check.sh par, the par-determinism
// CI job) can only say "differs" — this plane says WHERE. A
// DigestTimeline rides next to the EventProfiler hook in the engine and
// folds every executed event's (when, seq, label) into fixed windows of
// simulated time; a MessageLedger per destination shard does the same
// for every cross-shard message injected into that shard.
// tools/audit_diff.py then compares two audit documents window by window
// and names the first divergent window, the shard(s) whose chains split,
// and the event labels whose digests moved — the simulation equivalent
// of drive-test localization in an operational LTE network.
//
// Digest algebra. Two kinds of fold, chosen per section:
//
//   * order-sensitive chains — FNV-1a folded in execution order,
//     seq included. These catch pure reorders (two same-timestamp
//     events swapping seq assignment leaves every metric identical;
//     only an order-sensitive digest sees it). Chains depend on
//     per-shard seq counters, so they are deterministic for a FIXED
//     configuration and compared only between equal-shard-count runs.
//
//   * order-independent multisets — MultisetDigest {count, xor, sum}
//     over per-event hashes that exclude seq and use the label NAME
//     hash (ids are per-shard). count/xor/sum are each commutative and
//     associative, so folding per-shard digests reproduces exactly what
//     one timeline observing the union stream would hold: the merged
//     section is PARTITION-INVARIANT and byte-compared across shard
//     counts, the same two-section split the prof plane uses.
//
// Everything here is POD arithmetic: the hot path hashes three or four
// words per event and never allocates (windows materialize once, when
// first entered). obs sits below sim and par, so nothing here includes
// either; the engine holds a `DigestTimeline*` that stays nullptr until
// attached (the set_metrics idiom), and par feeds the ledger by hand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dlte::obs {

// ---- FNV-1a core -----------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Word-wise FNV-1a step: cheaper than byte-wise on the hot path and
// just as deterministic. All audit hashes are built from this one mix.
[[nodiscard]] inline constexpr std::uint64_t fnv_mix(std::uint64_t h,
                                                     std::uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

// Byte-wise FNV-1a for variable-length inputs (label names, payloads).
[[nodiscard]] std::uint64_t fnv_bytes(const void* data, std::size_t len,
                                      std::uint64_t h = kFnvOffset);

// ---- Order-independent multiset fingerprint --------------------------

// Fingerprint of a multiset of 64-bit hashes. count/xor/sum commute, so
// add order never matters and per-shard digests merge() into exactly
// the digest of the union stream — the partition-invariance the merged
// audit section is built on. Three independent lanes make collisions by
// accident (two different multisets agreeing on all three) vanishingly
// unlikely for the multiset sizes a run produces.
struct MultisetDigest {
  std::uint64_t count{0};
  std::uint64_t xor_fold{0};
  std::uint64_t sum{0};

  void add(std::uint64_t h) {
    ++count;
    xor_fold ^= h;
    sum += h;
  }
  void merge(const MultisetDigest& other) {
    count += other.count;
    xor_fold ^= other.xor_fold;
    sum += other.sum;
  }
  [[nodiscard]] bool operator==(const MultisetDigest& other) const {
    return count == other.count && xor_fold == other.xor_fold &&
           sum == other.sum;
  }
  [[nodiscard]] bool operator!=(const MultisetDigest& other) const {
    return !(*this == other);
  }
};

// ---- Per-shard execution timeline ------------------------------------

// One engine's executed-event stream, folded into windows of
// `window_ns` simulated time on the fixed t=0 grid (window w covers
// [w*W, (w+1)*W)). Per window it keeps:
//
//   * events   — executed-event count;
//   * chain    — order-sensitive FNV-1a over (when, seq, label-name
//                hash), restarted from the offset basis each window so
//                windows compare independently;
//   * all      — multiset over H(when, label-name hash): seq-free,
//                id-free, the shard's contribution to the merged
//                section;
//   * labels   — per-label multisets over the seq-INCLUSIVE hash,
//                indexed by interned label id. This is the localization
//                layer: a pure reorder moves exactly the labels whose
//                events swapped.
class DigestTimeline {
 public:
  struct Window {
    std::uint64_t events{0};
    std::uint64_t chain{kFnvOffset};
    MultisetDigest all;
    std::vector<MultisetDigest> labels;  // indexed by label id
  };

  explicit DigestTimeline(std::int64_t window_ns);

  // Precompute the name hash for an interned label id. Ids are dense
  // (EventProfiler interning); id 0 is pre-registered as
  // "sim.unlabeled". Safe to re-register (idempotent by id).
  void register_label(std::uint32_t id, const std::string& name);

  // Hot path: called by the engine for every executed event, after the
  // clock advanced to `when_ns`. `when_ns` is non-decreasing within a
  // run, so window materialization is append-only.
  void on_execute(std::int64_t when_ns, std::uint64_t seq,
                  std::uint32_t label) {
    const std::size_t w = static_cast<std::size_t>(when_ns / window_ns_);
    if (w >= windows_.size()) windows_.resize(w + 1);
    // An id interned before the auditor attached has no name hash yet;
    // fold it as unlabeled rather than read out of bounds.
    if (label >= labels_.size()) label = 0;
    Window& window = windows_[w];
    if (label >= window.labels.size()) window.labels.resize(labels_.size());
    // h2 excludes seq and uses the label NAME hash: partition-invariant.
    // h1 layers the per-shard seq on top: order-sensitive.
    const std::uint64_t h2 =
        fnv_mix(fnv_mix(kFnvOffset, static_cast<std::uint64_t>(when_ns)),
                labels_[label].name_hash);
    const std::uint64_t h1 = fnv_mix(h2, seq);
    ++window.events;
    window.chain = fnv_mix(window.chain, h1);
    window.all.add(h2);
    window.labels[label].add(h1);
  }

  [[nodiscard]] std::int64_t window_ns() const { return window_ns_; }
  [[nodiscard]] const std::vector<Window>& windows() const {
    return windows_;
  }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }
  [[nodiscard]] const std::string& label_name(std::uint32_t id) const {
    return labels_[id].name;
  }
  [[nodiscard]] std::uint64_t events_total() const;

 private:
  struct Label {
    std::string name;
    std::uint64_t name_hash{0};
  };

  std::int64_t window_ns_;
  std::vector<Window> windows_;
  std::vector<Label> labels_;
};

// ---- Cross-shard message ledger --------------------------------------

// Every message injected into one destination shard, digested twice per
// audit window (windowed by deliver_at on the same t=0 grid):
//
//   * merged — multiset over H(deliver_at, src, seq, kind, payload).
//     The global message multiset is partition-invariant (src is a
//     stable endpoint id, seq counts that endpoint's posts), so this
//     joins the merged section.
//   * per shard pair — message count plus an order-sensitive chain in
//     injection order. Pairs only exist for one shard count, so this
//     lives in the per-shard section; a reordered injection shows up
//     here and nowhere in the metrics.
//
// The runtime keeps one ledger per destination shard, fed by the thread
// that injects into it, and build_audit_doc folds them: counts add,
// multisets merge, and each (src, dst) pair chain lives in exactly one
// ledger — its destination's. obs knows nothing about par: the runtime
// passes raw shard indices.
class MessageLedger {
 public:
  struct PairCell {
    std::uint32_t src_shard{0};
    std::uint32_t dst_shard{0};
    std::uint64_t messages{0};
    std::uint64_t chain{kFnvOffset};
  };
  struct Window {
    std::uint64_t messages{0};
    MultisetDigest all;
    // Sparse, keyed (src_shard, dst_shard) — deterministic iteration.
    std::map<std::pair<std::uint32_t, std::uint32_t>, PairCell> pairs;
  };

  explicit MessageLedger(std::int64_t window_ns)
      : window_ns_(window_ns > 0 ? window_ns : 1) {}

  // Called in injection order: the global message order filtered to this
  // ledger's destination shard.
  void on_message(std::int64_t deliver_at_ns, std::uint64_t src_endpoint,
                  std::uint64_t seq, std::uint16_t kind,
                  const std::uint8_t* payload, std::size_t payload_len,
                  std::uint32_t src_shard, std::uint32_t dst_shard);

  [[nodiscard]] std::int64_t window_ns() const { return window_ns_; }
  // Keyed by window index; sparse because deliver_at jumps around.
  [[nodiscard]] const std::map<std::int64_t, Window>& windows() const {
    return windows_;
  }
  [[nodiscard]] std::uint64_t messages_total() const;

 private:
  std::int64_t window_ns_;
  std::map<std::int64_t, Window> windows_;
};

// ---- Metric-snapshot digest ------------------------------------------

// Multiset fingerprint of a registry's full state: one hash per
// instrument over (name, type tag, value words) — counters by value,
// gauges by the double's bit pattern, histograms by count/sum/min/max.
// Because the merge naming contract keeps every instrument name in
// exactly one shard, folding per-shard registry digests with merge()
// is partition-invariant, giving the merged section a cheap "was the
// observable state identical at this window?" check without
// serializing a snapshot per window.
[[nodiscard]] MultisetDigest digest_registry(const MetricsRegistry& registry);

// ---- The assembled document ------------------------------------------

// Plain data, built once after a run; audit_export.h serializes it.
// Section semantics mirror the prof plane: "merged" is
// partition-invariant and byte-compared across shard counts; "shards"
// (chains, per-label digests, ledger pairs) is deterministic for a
// fixed configuration and compared only between equal-configuration
// runs.
struct AuditDoc {
  struct MergedWindow {
    std::int64_t index{0};
    std::uint64_t events{0};
    MultisetDigest events_digest;
    std::uint64_t messages{0};
    MultisetDigest messages_digest;
  };
  struct MetricWindow {
    std::int64_t index{0};
    // Barrier time the digest was taken at (first barrier at or after
    // the window close — a partition-invariant point in the run).
    std::int64_t t_ns{0};
    MultisetDigest digest;
  };
  struct LabelDigest {
    std::string name;
    MultisetDigest digest;
  };
  struct ShardWindow {
    std::int64_t index{0};
    std::uint64_t events{0};
    std::uint64_t chain{kFnvOffset};
    std::vector<LabelDigest> labels;  // sorted by name, zero-count elided
  };
  struct ShardTimeline {
    std::uint32_t shard{0};
    std::vector<ShardWindow> windows;
  };
  struct LedgerWindow {
    std::int64_t index{0};
    std::vector<MessageLedger::PairCell> pairs;  // (src, dst) order
  };

  std::int64_t window_ns{0};
  std::size_t shards{0};
  std::uint64_t events_total{0};
  std::uint64_t messages_total{0};
  std::vector<MergedWindow> merged;
  std::vector<MetricWindow> metric_windows;
  std::vector<ShardTimeline> shard_timelines;
  std::vector<LedgerWindow> ledger;
};

// Fold per-shard timelines + the per-destination ledgers + per-window
// metric digests into one AuditDoc. `timelines` may contain shards that
// executed nothing (their windows simply contribute identity digests —
// the empty-shard fold is a no-op, like EventProfiler::merge_from of an
// empty profiler). `ledgers` may be empty (no cross-shard plane) or hold
// nulls; no two of them may hold the same (src, dst) pair.
[[nodiscard]] AuditDoc build_audit_doc(
    const std::vector<const DigestTimeline*>& timelines,
    const std::vector<const MessageLedger*>& ledgers,
    std::vector<AuditDoc::MetricWindow> metric_windows);

}  // namespace dlte::obs
