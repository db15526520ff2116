// Endpoint transports: a TCP-like and a QUIC-like reliable stream.
//
// §4.2 of the paper rests on modern transports to make dLTE's
// "new IP address at every AP" mobility model workable:
//   * TCP-like: 2-RTT setup (SYN + TLS), loss recovery by dup-ack /
//     RTO with NewReno-style congestion control, and — crucially — the
//     connection is bound to the 4-tuple: an address change kills it and
//     the application must reconnect and resume at the application layer.
//   * QUIC-like: 1-RTT fresh setup, 0-RTT resumption to a known server,
//     and connection IDs that survive address migration: after a rebind
//     the client continues sending from the new address immediately.
//
// Data content is not materialized; the stream is an offset space and the
// receiver acknowledges cumulative bytes, which is all the experiments
// measure.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace dlte::transport {

// Network::Packet protocol tag for transport segments.
inline constexpr std::uint16_t kTransportProtocol = 0x5452;  // "TR"

enum class TransportKind { kTcpLike, kQuicLike };

struct TransportConfig {
  TransportKind kind{TransportKind::kQuicLike};
  // QUIC-only: client holds a resumption ticket for the server, enabling
  // 0-RTT data on (re)connect.
  bool zero_rtt_resumption{true};
  int mss_bytes{1200};
  int initial_cwnd_packets{10};
  Duration min_rto{Duration::millis(200)};
};

struct ConnectionStats {
  double bytes_acked{0.0};
  double bytes_sent{0.0};
  int retransmissions{0};
  int timeouts{0};
  int handshake_rtts{0};       // RTTs spent before first data could fly.
  TimePoint established_at{};
  TimePoint last_ack_at{};
};

class TransportHost;

// Client-side reliable stream connection.
class Connection {
 public:
  using EstablishedCallback = std::function<void()>;

  // Queue application data (bytes are synthetic; only counts matter).
  void send(double bytes);
  // Rebind to a new local node (the UE moved to a new AP and got a new
  // address). QUIC-like migrates in place; TCP-like becomes dead and
  // reports broken() — the app must open a new connection.
  void rebind(TransportHost& new_host);

  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }
  [[nodiscard]] bool broken() const { return state_ == State::kBroken; }
  [[nodiscard]] const ConnectionStats& stats() const { return stats_; }
  [[nodiscard]] ConnectionId id() const { return id_; }
  [[nodiscard]] double unacked_bytes() const {
    return app_offset_ - acked_offset_;
  }

 private:
  friend class TransportHost;
  enum class State { kConnecting, kEstablished, kBroken };

  Connection(TransportHost& host, NodeId remote, TransportConfig config,
             ConnectionId id, bool resumed, EstablishedCallback on_ready);

  void on_segment(const net::Packet& packet);
  void try_send();
  void send_segment(std::uint8_t type, double offset, int length);
  void arm_rto();
  void on_rto();
  void handle_ack(double ack_offset, double hint);
  [[nodiscard]] Duration rto() const;

  TransportHost* host_;
  NodeId remote_;
  TransportConfig config_;
  ConnectionId id_;
  State state_{State::kConnecting};
  EstablishedCallback on_ready_;
  int hs_rounds_done_{0};  // Completed handshake round trips.

  // Stream state (byte offsets; contiguous synthetic stream).
  double app_offset_{0.0};     // Total bytes the app has queued.
  double sent_offset_{0.0};    // Next offset to transmit.
  double max_sent_offset_{0.0};  // High-water mark (detects retransmits).
  double acked_offset_{0.0};   // Cumulative acked.

  // Go back to the cumulative ack point (RTO / migration recovery); the
  // selective-repeat receiver absorbs any duplicates cheaply.
  void rewind_to_acked();

  // Congestion control (packet units of mss).
  double cwnd_{10.0};
  double ssthresh_{1e9};
  // NewReno recovery: after a loss signal, retransmit one hole per
  // partial ack and take no second rate cut until the cumulative ack
  // passes the high-water mark recorded at the first loss signal.
  double recover_point_{0.0};
  bool in_recovery_{false};

  // RTT estimation.
  double srtt_s_{0.0};
  double rttvar_s_{0.0};
  bool rtt_valid_{false};
  int rto_backoff_{1};
  std::uint64_t rto_epoch_{0};
  std::map<double, TimePoint> send_times_;  // Offset → send time (for RTT).

  ConnectionStats stats_;
};

// Server-side connection state: buffers out-of-order ranges and
// acknowledges the cumulative contiguous prefix (selective-repeat
// receiver), so one hole retransmission releases everything behind it.
struct ServerConnection {
  ConnectionId id;
  NodeId client_node;     // Updated on migration (QUIC) — where acks go.
  double received_offset{0.0};
  std::map<double, double> ooo_ranges;  // start → end, disjoint, sorted.
  TimePoint last_data_at{};
  std::function<void(double /*new_offset*/)> on_data;

  // Merge [start, end) into the received state; advances received_offset
  // past any now-contiguous buffered ranges.
  void accept(double start, double end);
  // Highest byte held, including out-of-order buffered data (ACK hint).
  [[nodiscard]] double highest_received() const {
    return ooo_ranges.empty() ? received_offset
                              : std::prev(ooo_ranges.end())->second;
  }
};

// Per-node transport stack. Registers itself as the node's handler for
// kTransportProtocol packets and dispatches to connections by id.
class TransportHost {
 public:
  TransportHost(sim::Simulator& sim, net::Network& net, NodeId node);

  // Client: open a connection to `remote`. `resumed` applies QUIC 0-RTT
  // when the config allows it (models a cached resumption ticket).
  Connection& connect(NodeId remote, TransportConfig config,
                      Connection::EstablishedCallback on_ready = nullptr,
                      bool resumed = false);

  // Server: accept incoming connections; optional data callback factory.
  void listen(std::function<void(ServerConnection&)> on_accept = nullptr);

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return net_; }

 private:
  friend class Connection;

  void dispatch(net::Packet&& packet);
  void handle_server_segment(const net::Packet& packet);
  void adopt(Connection* conn);    // Rebind target.
  void abandon(Connection* conn);  // Rebind source.

  sim::Simulator& sim_;
  net::Network& net_;
  NodeId node_;
  std::uint32_t rto_label_;  // "transport.rto": every connection's timer.
  bool listening_{false};
  std::function<void(ServerConnection&)> on_accept_;
  std::map<ConnectionId, std::unique_ptr<Connection>> clients_;
  std::map<ConnectionId, ServerConnection> servers_;
  std::uint64_t next_conn_id_{1};
};

// Transport wire format helpers (shared by tests).
struct SegmentHeader {
  std::uint64_t connection_id{0};
  std::uint8_t type{0};
  double offset{0.0};
  std::uint32_t length{0};
  // ACK only: highest byte offset held by the receiver including
  // out-of-order buffered ranges (a one-value SACK). offset == hint means
  // "no holes"; hint > offset means data above a hole is buffered.
  double hint{0.0};
};

inline constexpr std::uint8_t kSegSyn = 1;
inline constexpr std::uint8_t kSegSynAck = 2;
inline constexpr std::uint8_t kSegHandshakeFin = 3;
inline constexpr std::uint8_t kSegData = 4;
inline constexpr std::uint8_t kSegAck = 5;
inline constexpr std::uint8_t kSegZeroRttData = 6;

[[nodiscard]] std::vector<std::uint8_t> encode_segment(const SegmentHeader& h);
[[nodiscard]] std::optional<SegmentHeader> decode_segment(
    std::span<const std::uint8_t> bytes);

}  // namespace dlte::transport
