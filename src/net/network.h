// Packet-level IP substrate: nodes, links, static shortest-path routing.
//
// This models everything between radio access and application endpoints —
// AP backhaul links, the Internet core, the path to a centralized EPC site,
// and the peer-to-peer paths dLTE APs use for X2-over-Internet
// coordination (Fig. 1 of the paper). Links have a serialization rate,
// propagation delay, and a drop-tail queue bound; routing is Dijkstra on
// propagation delay, recomputed on demand.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/pool.h"
#include "common/time.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace dlte::net {

// Simplified IPv4 address; the P-GW / local core hands these to UEs.
struct Ipv4 {
  std::uint32_t addr{0};

  [[nodiscard]] std::string to_string() const;
  friend constexpr auto operator<=>(Ipv4, Ipv4) = default;
};

struct Packet {
  NodeId src;
  NodeId dst;
  int size_bytes{0};
  // Protocol tag for the receiving stack's dispatcher (values defined by
  // each protocol module).
  std::uint16_t protocol{0};
  std::vector<std::uint8_t> payload;
  // Delivery span (obs::SpanId) carried with the packet so the hop that
  // finally delivers or drops it can close the span. kNoSpan (0) when
  // tracing is off.
  std::uint64_t trace_span{0};
};

struct LinkConfig {
  DataRate rate{DataRate::mbps(100.0)};
  Duration delay{Duration::millis(1)};
};

class Network {
 public:
  explicit Network(sim::Simulator& sim)
      : sim_(sim), hop_label_(sim_.label("net.hop")) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  using Handler = std::function<void(Packet&&)>;

  NodeId add_node(std::string name);
  // A node whose traffic leaves this Network instance: packets addressed
  // to it are handed to `egress` at their local delivery time instead of
  // a protocol handler. This is the cross-shard routing seam — the parallel
  // runtime registers one remote node per egress portal and forwards the
  // packet to the owning shard through its inbox queues. Counted under
  // `net.remote_forwards`.
  NodeId add_remote_node(std::string name, Handler egress);
  // Bidirectional link (two independent directed queues).
  void add_link(NodeId a, NodeId b, LinkConfig config);
  // Protocol-specific handler; several stacks (transport, X2, GTP) can
  // share one node. A packet of a protocol with no handler is dropped at
  // delivery.
  void set_protocol_handler(NodeId node, std::uint16_t protocol,
                            Handler handler);

  // Route and deliver; silently drops if no route or a queue overflows
  // (drops are counted under `net.*`).
  void send(Packet packet);

  // One-way latency along the current best path for a packet of the given
  // size, assuming empty queues (used for experiment reporting).
  [[nodiscard]] Duration path_latency(NodeId from, NodeId to,
                                      int size_bytes) const;

  [[nodiscard]] int hop_count(NodeId from, NodeId to) const;

  [[nodiscard]] const std::string& node_name(NodeId node) const;

  // Enable/disable a bidirectional link at runtime (radio attachment
  // changes during mobility). Disabled links are excluded from routing;
  // packets with no remaining route are dropped.
  void set_link_enabled(NodeId a, NodeId b, bool enabled);

  // Recompute routing tables (called lazily after topology changes).
  void recompute_routes();

  // Export network-wide aggregates under `<prefix>net.*`: packets/bytes
  // sent, queue drops, unroutable drops, and cumulative link-partition
  // seconds (accrued when a disabled link re-enables).
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

  // Causal tracing: each send() opens a "net_delivery" span (child of
  // the active span) in category `<prefix>net`, closed at delivery or
  // annotated with the drop reason. Null tracer disables tracing.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  struct DirectedLink {
    NodeId to;
    LinkConfig config;
    TimePoint busy_until{};
    bool enabled{true};
    TimePoint down_since{};
  };
  struct Node {
    std::string name;
    std::vector<std::size_t> links;  // Indices into links_.
    std::unordered_map<std::uint16_t, Handler> protocol_handlers;
    Handler egress;  // Set on a remote node: takes every packet for it.
  };

  void forward(Packet&& packet, NodeId at);
  [[nodiscard]] const DirectedLink* next_hop(NodeId from, NodeId to) const;

  // One in-flight hop: pooled so a hop event costs no heap traffic and
  // its lambda (one pointer) stays inside std::function's small buffer.
  struct HopEvent {
    Network* net{nullptr};
    NodeId next;
    Packet packet;
  };
  ObjectPool<HopEvent> hop_pool_;

  sim::Simulator& sim_;
  // Event-attribution label for hop arrivals (obs::EventProfiler).
  const std::uint32_t hop_label_;
  std::vector<Node> nodes_;
  std::vector<DirectedLink> links_;
  // next_hop_[from][to] = link index, or npos.
  std::vector<std::vector<std::size_t>> next_hop_;
  bool routes_dirty_{true};

  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"net"};

  obs::Counter* m_packets_sent_{nullptr};
  obs::Counter* m_bytes_sent_{nullptr};
  obs::Counter* m_queue_drops_{nullptr};
  obs::Counter* m_unroutable_drops_{nullptr};
  obs::Counter* m_remote_forwards_{nullptr};
  obs::Gauge* m_partition_seconds_{nullptr};

  static constexpr std::size_t kNoRoute = static_cast<std::size_t>(-1);
};

}  // namespace dlte::net
