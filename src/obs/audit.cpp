#include "obs/audit.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace dlte::obs {

namespace {

// Bit pattern of a double as a hashable word (memcpy is the portable
// bit_cast; both sides are 8 bytes).
std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

std::uint64_t fnv_bytes(const void* data, std::size_t len, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
  return h;
}

DigestTimeline::DigestTimeline(std::int64_t window_ns)
    : window_ns_(window_ns > 0 ? window_ns : 1) {
  register_label(0, "sim.unlabeled");
}

void DigestTimeline::register_label(std::uint32_t id,
                                    const std::string& name) {
  if (id >= labels_.size()) labels_.resize(id + 1);
  if (!labels_[id].name.empty()) return;  // Re-registering is idempotent.
  labels_[id].name = name;
  labels_[id].name_hash = fnv_bytes(name.data(), name.size());
}

std::uint64_t DigestTimeline::events_total() const {
  std::uint64_t total = 0;
  for (const Window& w : windows_) total += w.events;
  return total;
}

void MessageLedger::on_message(std::int64_t deliver_at_ns,
                               std::uint64_t src_endpoint, std::uint64_t seq,
                               std::uint16_t kind, const std::uint8_t* payload,
                               std::size_t payload_len,
                               std::uint32_t src_shard,
                               std::uint32_t dst_shard) {
  const std::int64_t index = deliver_at_ns / window_ns_;
  Window& window = windows_[index];
  std::uint64_t h =
      fnv_mix(kFnvOffset, static_cast<std::uint64_t>(deliver_at_ns));
  h = fnv_mix(h, src_endpoint);
  h = fnv_mix(h, seq);
  h = fnv_mix(h, kind);
  h = fnv_bytes(payload, payload_len, h);
  ++window.messages;
  window.all.add(h);
  PairCell& cell = window.pairs[{src_shard, dst_shard}];
  cell.src_shard = src_shard;
  cell.dst_shard = dst_shard;
  ++cell.messages;
  cell.chain = fnv_mix(cell.chain, h);
}

std::uint64_t MessageLedger::messages_total() const {
  std::uint64_t total = 0;
  for (const auto& [index, window] : windows_) total += window.messages;
  return total;
}

MultisetDigest digest_registry(const MetricsRegistry& registry) {
  MultisetDigest digest;
  for (const auto& [name, counter] : registry.counters()) {
    std::uint64_t h = fnv_bytes(name.data(), name.size());
    h = fnv_mix(h, 'c');
    h = fnv_mix(h, counter.value());
    digest.add(h);
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    std::uint64_t h = fnv_bytes(name.data(), name.size());
    h = fnv_mix(h, 'g');
    h = fnv_mix(h, double_bits(gauge.value()));
    digest.add(h);
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    std::uint64_t h = fnv_bytes(name.data(), name.size());
    h = fnv_mix(h, 'h');
    h = fnv_mix(h, histogram.count());
    h = fnv_mix(h, double_bits(histogram.sum()));
    h = fnv_mix(h, double_bits(histogram.min()));
    h = fnv_mix(h, double_bits(histogram.max()));
    digest.add(h);
  }
  return digest;
}

AuditDoc build_audit_doc(const std::vector<const DigestTimeline*>& timelines,
                         const std::vector<const MessageLedger*>& ledgers,
                         std::vector<AuditDoc::MetricWindow> metric_windows) {
  AuditDoc doc;
  doc.shards = timelines.size();
  doc.metric_windows = std::move(metric_windows);

  std::size_t window_count = 0;
  for (const DigestTimeline* timeline : timelines) {
    if (timeline == nullptr) continue;
    doc.window_ns = timeline->window_ns();
    window_count = std::max(window_count, timeline->windows().size());
  }
  for (const MessageLedger* ledger : ledgers) {
    if (ledger == nullptr) continue;
    doc.window_ns = doc.window_ns == 0 ? ledger->window_ns() : doc.window_ns;
    if (!ledger->windows().empty()) {
      const std::int64_t last = ledger->windows().rbegin()->first;
      window_count =
          std::max(window_count, static_cast<std::size_t>(last) + 1);
    }
  }

  // Merged section: commutative folds over shards per window index. An
  // empty shard contributes identity digests — folding it is a no-op.
  doc.merged.resize(window_count);
  for (std::size_t w = 0; w < window_count; ++w) {
    doc.merged[w].index = static_cast<std::int64_t>(w);
  }
  for (const DigestTimeline* timeline : timelines) {
    if (timeline == nullptr) continue;
    const auto& windows = timeline->windows();
    for (std::size_t w = 0; w < windows.size(); ++w) {
      doc.merged[w].events += windows[w].events;
      doc.merged[w].events_digest.merge(windows[w].all);
    }
    doc.events_total += timeline->events_total();
  }
  // Ledger pairs by window, folded across the per-destination ledgers.
  // A pair lives in its destination's ledger only, so no cell is folded
  // twice and each keeps its own injection-order chain.
  std::map<std::int64_t,
           std::map<std::pair<std::uint32_t, std::uint32_t>,
                    MessageLedger::PairCell>>
      pairs;
  for (const MessageLedger* ledger : ledgers) {
    if (ledger == nullptr) continue;
    for (const auto& [index, window] : ledger->windows()) {
      auto& merged = doc.merged[static_cast<std::size_t>(index)];
      merged.messages += window.messages;
      merged.messages_digest.merge(window.all);
      auto& cells = pairs[index];
      for (const auto& [key, cell] : window.pairs) {
        [[maybe_unused]] const bool fresh = cells.emplace(key, cell).second;
        assert(fresh && "a shard pair spans two ledgers");
      }
    }
    doc.messages_total += ledger->messages_total();
  }

  // Per-shard section: chains and per-label digests, labels resolved to
  // names (ids are per-shard) and sorted so the export is deterministic.
  for (std::size_t s = 0; s < timelines.size(); ++s) {
    const DigestTimeline* timeline = timelines[s];
    AuditDoc::ShardTimeline shard;
    shard.shard = static_cast<std::uint32_t>(s);
    if (timeline != nullptr) {
      const auto& windows = timeline->windows();
      shard.windows.reserve(windows.size());
      for (std::size_t w = 0; w < windows.size(); ++w) {
        AuditDoc::ShardWindow out;
        out.index = static_cast<std::int64_t>(w);
        out.events = windows[w].events;
        out.chain = windows[w].chain;
        for (std::uint32_t id = 0; id < windows[w].labels.size(); ++id) {
          const MultisetDigest& digest = windows[w].labels[id];
          if (digest.count == 0) continue;
          out.labels.push_back(
              AuditDoc::LabelDigest{timeline->label_name(id), digest});
        }
        std::sort(out.labels.begin(), out.labels.end(),
                  [](const AuditDoc::LabelDigest& a,
                     const AuditDoc::LabelDigest& b) {
                    return a.name < b.name;
                  });
        shard.windows.push_back(std::move(out));
      }
    }
    doc.shard_timelines.push_back(std::move(shard));
  }

  for (const auto& [index, cells] : pairs) {
    AuditDoc::LedgerWindow out;
    out.index = index;
    out.pairs.reserve(cells.size());
    for (const auto& [key, cell] : cells) out.pairs.push_back(cell);
    doc.ledger.push_back(std::move(out));
  }
  return doc;
}

}  // namespace dlte::obs
