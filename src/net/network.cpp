#include "net/network.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace dlte::net {

namespace {
// Drop-tail bound of every link: bytes committed but not yet serialized.
constexpr std::size_t kLinkQueueBytes = 256 * 1024;
}  // namespace

std::string Ipv4::to_string() const {
  return std::to_string((addr >> 24) & 0xff) + "." +
         std::to_string((addr >> 16) & 0xff) + "." +
         std::to_string((addr >> 8) & 0xff) + "." +
         std::to_string(addr & 0xff);
}

NodeId Network::add_node(std::string name) {
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  Node node;
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  routes_dirty_ = true;
  return id;
}

NodeId Network::add_remote_node(std::string name, Handler egress) {
  const NodeId id = add_node(std::move(name));
  nodes_[id.value()].egress = std::move(egress);
  return id;
}

void Network::add_link(NodeId a, NodeId b, LinkConfig config) {
  const auto add_directed = [&](NodeId from, NodeId to) {
    const std::size_t index = links_.size();
    links_.push_back(DirectedLink{to, config});
    nodes_[from.value()].links.push_back(index);
  };
  add_directed(a, b);
  add_directed(b, a);
  routes_dirty_ = true;
}

void Network::set_protocol_handler(NodeId node, std::uint16_t protocol,
                                   Handler handler) {
  if (handler == nullptr) {
    nodes_[node.value()].protocol_handlers.erase(protocol);
    return;
  }
  nodes_[node.value()].protocol_handlers[protocol] = std::move(handler);
}

void Network::recompute_routes() {
  const std::size_t n = nodes_.size();
  next_hop_.assign(n, std::vector<std::size_t>(n, kNoRoute));
  // Dijkstra from every source over propagation delay.
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::int64_t> dist(n, std::numeric_limits<std::int64_t>::max());
    std::vector<std::size_t> first_link(n, kNoRoute);
    using Entry = std::pair<std::int64_t, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    dist[src] = 0;
    pq.emplace(0, src);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (std::size_t li : nodes_[u].links) {
        const auto& link = links_[li];
        if (!link.enabled) continue;
        const std::size_t v = link.to.value();
        const std::int64_t nd = d + link.config.delay.ns();
        if (nd < dist[v]) {
          dist[v] = nd;
          first_link[v] = (u == src) ? li : first_link[u];
          pq.emplace(nd, v);
        }
      }
    }
    for (std::size_t dst = 0; dst < n; ++dst) {
      next_hop_[src][dst] = first_link[dst];
    }
  }
  routes_dirty_ = false;
}

const Network::DirectedLink* Network::next_hop(NodeId from, NodeId to) const {
  if (routes_dirty_) {
    // Routing state is logically part of topology; safe to refresh here.
    const_cast<Network*>(this)->recompute_routes();
  }
  const std::size_t li = next_hop_[from.value()][to.value()];
  if (li == kNoRoute) return nullptr;
  return &links_[li];
}

void Network::send(Packet packet) {
  const NodeId origin = packet.src;
  packet.trace_span = obs::span_begin(tracer_, "net_delivery", span_cat_);
  obs::span_annotate(tracer_, packet.trace_span, "route", [&] {
    return node_name(packet.src) + "->" + node_name(packet.dst);
  });
  obs::span_annotate(tracer_, packet.trace_span, "bytes",
                     [&] { return std::to_string(packet.size_bytes); });
  forward(std::move(packet), origin);
}

void Network::set_tracer(obs::SpanTracer* tracer, const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "net";
}

void Network::set_metrics(obs::MetricsRegistry* registry,
                          const std::string& prefix) {
  if (registry == nullptr) {
    m_packets_sent_ = nullptr;
    m_bytes_sent_ = nullptr;
    m_queue_drops_ = nullptr;
    m_unroutable_drops_ = nullptr;
    m_remote_forwards_ = nullptr;
    m_partition_seconds_ = nullptr;
    return;
  }
  m_packets_sent_ = &registry->counter(prefix + "net.packets_sent");
  m_bytes_sent_ = &registry->counter(prefix + "net.bytes_sent");
  m_queue_drops_ = &registry->counter(prefix + "net.queue_drops");
  // Never incremented: links are never impaired, but the name is part of
  // every metrics document.
  (void)registry->counter(prefix + "net.impaired_drops");
  m_unroutable_drops_ = &registry->counter(prefix + "net.unroutable_drops");
  m_remote_forwards_ = &registry->counter(prefix + "net.remote_forwards");
  m_partition_seconds_ = &registry->gauge(prefix + "net.partition_seconds");
}

void Network::forward(Packet&& packet, NodeId at) {
  if (at == packet.dst) {
    obs::span_end(tracer_, packet.trace_span);
    Node& node = nodes_[at.value()];
    if (node.egress) {
      // Egress portal: this shard's view of the packet ends here; the
      // registered egress hands it to the parallel runtime.
      obs::inc(m_remote_forwards_);
      node.egress(std::move(packet));
      return;
    }
    if (const auto it = node.protocol_handlers.find(packet.protocol);
        it != node.protocol_handlers.end()) {
      it->second(std::move(packet));
    }
    return;
  }
  if (routes_dirty_) recompute_routes();
  const std::size_t li = next_hop_[at.value()][packet.dst.value()];
  if (li == kNoRoute) {
    obs::inc(m_unroutable_drops_);
    obs::span_annotate(tracer_, packet.trace_span, "drop", "unroutable");
    obs::span_end(tracer_, packet.trace_span);
    return;  // Unroutable: dropped.
  }
  DirectedLink& link = links_[li];
  const TimePoint now = sim_.now();
  const TimePoint start = std::max(now, link.busy_until);
  // Drop-tail bound: bytes already committed but not yet serialized.
  const double backlog_bytes =
      (start - now).to_seconds() * link.config.rate.bps() / 8.0;
  if (backlog_bytes > static_cast<double>(kLinkQueueBytes)) {
    obs::inc(m_queue_drops_);
    obs::span_annotate(tracer_, packet.trace_span, "drop", "queue_overflow");
    obs::span_end(tracer_, packet.trace_span);
    return;
  }
  const Duration tx = Duration::seconds(
      packet.size_bytes * 8.0 / link.config.rate.bps());
  link.busy_until = start + tx;
  obs::inc(m_packets_sent_);
  obs::inc(m_bytes_sent_, static_cast<std::uint64_t>(packet.size_bytes));

  const TimePoint arrival = start + tx + link.config.delay;
  HopEvent* hop = hop_pool_.acquire();
  hop->net = this;
  hop->next = link.to;
  hop->packet = std::move(packet);
  sim_.schedule_at(
      arrival,
      [hop] {
        Network* net = hop->net;
        const NodeId next = hop->next;
        Packet p = std::move(hop->packet);
        // Release before recursing: the next hop reuses this very record.
        net->hop_pool_.release(hop);
        net->forward(std::move(p), next);
      },
      hop_label_);
}

Duration Network::path_latency(NodeId from, NodeId to, int size_bytes) const {
  Duration total{};
  NodeId at = from;
  int guard = 0;
  while (at != to) {
    const DirectedLink* link = next_hop(at, to);
    if (link == nullptr) return Duration::seconds(-1.0);
    total += link->config.delay +
             Duration::seconds(size_bytes * 8.0 / link->config.rate.bps());
    at = link->to;
    if (++guard > static_cast<int>(nodes_.size())) break;
  }
  return total;
}

int Network::hop_count(NodeId from, NodeId to) const {
  int hops = 0;
  NodeId at = from;
  while (at != to) {
    const DirectedLink* link = next_hop(at, to);
    if (link == nullptr) return -1;
    at = link->to;
    if (++hops > static_cast<int>(nodes_.size())) return -1;
  }
  return hops;
}

void Network::set_link_enabled(NodeId a, NodeId b, bool enabled) {
  for (std::size_t li : nodes_[a.value()].links) {
    if (links_[li].to != b) continue;
    DirectedLink& link = links_[li];
    // Partition accounting on the a→b direction only (both directions
    // flip together, counting one avoids doubling the outage).
    if (link.enabled && !enabled) {
      link.down_since = sim_.now();
    } else if (!link.enabled && enabled && m_partition_seconds_ != nullptr) {
      m_partition_seconds_->add((sim_.now() - link.down_since).to_seconds());
    }
    link.enabled = enabled;
  }
  for (std::size_t li : nodes_[b.value()].links) {
    if (links_[li].to != a) continue;
    // Either end may re-enable the link, so b→a remembers when it went
    // down too.
    DirectedLink& link = links_[li];
    if (link.enabled && !enabled) link.down_since = sim_.now();
    link.enabled = enabled;
  }
  routes_dirty_ = true;
}

const std::string& Network::node_name(NodeId node) const {
  return nodes_[node.value()].name;
}

}  // namespace dlte::net
