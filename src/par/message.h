// Cross-shard message: the only way state crosses a shard boundary in
// the parallel runtime (DESIGN.md §11).
//
// Everything a shard wants another shard to see — an X2 PDU, a packet
// leaving through an egress portal, a control notification — is frozen
// into one of these, parked in the posting shard's outbox under its
// destination shard, and injected into that shard's event queue at the
// start of the next window, by the thread that claims the shard. The
// merge key (deliver_at, src, seq) is deliberately free of any shard
// identity: src is a stable endpoint id and seq counts that endpoint's
// posts, so each shard's sorted injection order is the global order
// filtered to that shard, the same at every shard count — the heart of
// the byte-identical-replay guarantee.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"

namespace dlte::par {

// Stable scenario-assigned identity of a message source/sink (an AP, a
// regional service). Endpoint ids never depend on the partition.
using EndpointId = std::uint32_t;

struct Message {
  EndpointId src{0};
  EndpointId dst{0};
  TimePoint deliver_at{};
  // Per-SOURCE monotone sequence number (ties on deliver_at between two
  // posts by the same endpoint keep their post order).
  std::uint64_t seq{0};
  // Scenario-defined payload tag (protocol number, message class).
  std::uint16_t kind{0};
  std::vector<std::uint8_t> payload;
};

// Deterministic injection order: earliest delivery first, then by
// source endpoint, then by that source's posting order. Strict weak
// ordering over distinct messages (an endpoint never reuses a seq).
inline bool message_order(const Message& a, const Message& b) {
  if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
  if (a.src != b.src) return a.src < b.src;
  return a.seq < b.seq;
}

}  // namespace dlte::par
