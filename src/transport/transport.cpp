#include "transport/transport.h"

#include <algorithm>
#include <cassert>

#include "common/bytes.h"

namespace dlte::transport {

namespace {
constexpr int kHeaderBytes = 40;   // Synthetic header+framing cost.
constexpr int kAckBytes = 60;
constexpr double kGranule = 1e-6;  // Offset comparison slack.
constexpr int kMssBytes = 1200;
constexpr int kInitialCwndPackets = 10;
constexpr Duration kMinRto = Duration::millis(200);
}  // namespace

std::vector<std::uint8_t> encode_segment(const SegmentHeader& h) {
  ByteWriter w;
  w.u64(h.connection_id);
  w.u8(h.type);
  w.f64(h.offset);
  w.u32(h.length);
  w.f64(h.hint);
  return w.take();
}

std::optional<SegmentHeader> decode_segment(
    std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  SegmentHeader h;
  auto cid = r.u64();
  if (!cid) return std::nullopt;
  h.connection_id = *cid;
  auto type = r.u8();
  if (!type) return std::nullopt;
  h.type = *type;
  auto off = r.f64();
  if (!off) return std::nullopt;
  h.offset = *off;
  auto len = r.u32();
  if (!len) return std::nullopt;
  h.length = *len;
  auto hint = r.f64();
  if (!hint) return std::nullopt;
  h.hint = *hint;
  return h;
}

// ---------------------------------------------------------------- Host --

TransportHost::TransportHost(sim::Simulator& sim, net::Network& net,
                             NodeId node)
    : sim_(sim),
      net_(net),
      node_(node),
      rto_label_(sim.label("transport.rto")) {
  net_.set_protocol_handler(node_, kTransportProtocol,
                            [this](net::Packet&& p) {
                              dispatch(std::move(p));
                            });
}

Connection& TransportHost::connect(NodeId remote, TransportKind kind,
                                   Connection::EstablishedCallback on_ready,
                                   bool resumed) {
  const ConnectionId id{(static_cast<std::uint64_t>(node_.value()) << 32) |
                        next_conn_id_++};
  auto conn = std::unique_ptr<Connection>(new Connection(
      *this, remote, kind, id, resumed, std::move(on_ready)));
  Connection& ref = *conn;
  clients_.emplace(id, std::move(conn));
  return ref;
}

void TransportHost::listen(std::function<void(ServerConnection&)> on_accept) {
  listening_ = true;
  on_accept_ = std::move(on_accept);
}

void TransportHost::dispatch(net::Packet&& packet) {
  if (packet.protocol != kTransportProtocol) return;
  const auto header = decode_segment(packet.payload);
  if (!header) return;
  const ConnectionId id{header->connection_id};

  if (const auto it = clients_.find(id); it != clients_.end()) {
    it->second->on_segment(packet);
    return;
  }
  if (listening_) handle_server_segment(packet);
  // Otherwise: segment for a connection we no longer own (e.g. arrived at
  // an old address after migration) — dropped, as in a real network.
}

void TransportHost::handle_server_segment(const net::Packet& packet) {
  const auto h = *decode_segment(packet.payload);
  const ConnectionId id{h.connection_id};
  auto [it, inserted] = servers_.try_emplace(id);
  ServerConnection& sc = it->second;
  if (inserted) {
    sc.id = id;
    sc.client_node = packet.src;
    if (on_accept_) on_accept_(sc);
  }
  // The client's current address is wherever its packets come from —
  // this is how a QUIC-like server follows a migrating client.
  sc.client_node = packet.src;

  switch (h.type) {
    case kSegSyn: {
      net::Packet reply{node_, sc.client_node, kAckBytes, kTransportProtocol,
                        encode_segment(SegmentHeader{h.connection_id,
                                                     kSegSynAck, 0.0, 0})};
      net_.send(std::move(reply));
      break;
    }
    case kSegData:
    case kSegZeroRttData: {
      sc.accept(h.offset, h.offset + h.length);
      if (sc.on_data) sc.on_data(sc.received_offset);
      net::Packet ack{node_, sc.client_node, kAckBytes, kTransportProtocol,
                      encode_segment(SegmentHeader{
                          h.connection_id, kSegAck, sc.received_offset, 0,
                          sc.highest_received()})};
      net_.send(std::move(ack));
      break;
    }
    default:
      break;
  }
}

void TransportHost::adopt(Connection* conn) {
  clients_.emplace(conn->id(), std::unique_ptr<Connection>(conn));
}

void TransportHost::abandon(Connection* conn) {
  const auto it = clients_.find(conn->id());
  assert(it != clients_.end());
  // Release ownership without destroying; the new host adopts it.
  it->second.release();
  clients_.erase(it);
}

void ServerConnection::accept(double start, double end) {
  if (end <= received_offset + kGranule) return;  // Pure duplicate.
  if (start <= received_offset + kGranule) {
    received_offset = std::max(received_offset, end);
  } else {
    // Buffer the out-of-order range, merging overlaps.
    auto it = ooo_ranges.lower_bound(start);
    if (it != ooo_ranges.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start - kGranule) {
        start = prev->first;
        end = std::max(end, prev->second);
        it = ooo_ranges.erase(prev);
      }
    }
    while (it != ooo_ranges.end() && it->first <= end + kGranule) {
      end = std::max(end, it->second);
      it = ooo_ranges.erase(it);
    }
    ooo_ranges[start] = end;
  }
  // Release any buffered ranges made contiguous.
  auto it = ooo_ranges.begin();
  while (it != ooo_ranges.end() &&
         it->first <= received_offset + kGranule) {
    received_offset = std::max(received_offset, it->second);
    it = ooo_ranges.erase(it);
  }
}

// ---------------------------------------------------------- Connection --

Connection::Connection(TransportHost& host, NodeId remote,
                       TransportKind kind, ConnectionId id, bool resumed,
                       EstablishedCallback on_ready)
    : host_(&host),
      remote_(remote),
      kind_(kind),
      id_(id),
      on_ready_(std::move(on_ready)) {
  cwnd_ = kInitialCwndPackets;
  const bool zero_rtt = kind_ == TransportKind::kQuicLike && resumed;
  if (zero_rtt) {
    stats_.handshake_rtts = 0;
    state_ = State::kEstablished;
    if (on_ready_) on_ready_();
  } else {
    stats_.handshake_rtts = kind_ == TransportKind::kQuicLike ? 1 : 2;
    send_segment(kSegSyn, 0.0, 0);
    arm_rto();
  }
}

void Connection::send(double bytes) {
  app_offset_ += bytes;
  if (state_ == State::kEstablished) try_send();
}

void Connection::rebind(TransportHost& new_host) {
  if (kind_ == TransportKind::kTcpLike) {
    // The 4-tuple changed: the connection is unusable. The application
    // must reconnect (and replay unacked data) itself.
    state_ = State::kBroken;
    return;
  }
  // QUIC-like migration: same connection id, new path. In-flight packets
  // to/from the old address are lost; sending resumes immediately and the
  // server learns the new address from the first arriving packet.
  host_->abandon(this);
  new_host.adopt(this);
  host_ = &new_host;
  rtt_valid_ = false;  // RTT samples from the old path are stale.
  if (state_ == State::kEstablished) {
    // Re-offer everything unacked on the new path right away rather than
    // waiting out an RTO armed for the old path.
    rewind_to_acked();
    try_send();
    arm_rto();
  }
}

void Connection::on_segment(const net::Packet& packet) {
  const auto h = *decode_segment(packet.payload);
  switch (h.type) {
    case kSegSynAck: {
      if (state_ != State::kConnecting) break;
      if (stats_.handshake_rtts > 1 && hs_rounds_done_ + 1 <
                                           stats_.handshake_rtts) {
        ++hs_rounds_done_;
        send_segment(kSegSyn, 0.0, 0);
        arm_rto();
        break;
      }
      state_ = State::kEstablished;
      if (on_ready_) on_ready_();
      try_send();
      break;
    }
    case kSegAck:
      handle_ack(h.offset, h.hint);
      break;
    default:
      break;
  }
}

void Connection::handle_ack(double ack_offset, double hint) {
  stats_.last_ack_at = host_->simulator().now();
  if (ack_offset > acked_offset_ + kGranule) {
    const double newly = ack_offset - acked_offset_;
    acked_offset_ = ack_offset;
    stats_.bytes_acked = acked_offset_;
    rto_backoff_ = 1;
    // A cumulative ack can land ahead of our send cursor (e.g. the
    // receiver had buffered data whose acks were lost across a
    // migration); never send below the ack point.
    if (sent_offset_ < acked_offset_) sent_offset_ = acked_offset_;
    max_sent_offset_ = std::max(max_sent_offset_, sent_offset_);

    // RTT sample: the segment whose end offset matches this ack.
    const auto it = send_times_.find(ack_offset);
    if (it != send_times_.end()) {
      const double sample =
          (host_->simulator().now() - it->second).to_seconds();
      if (!rtt_valid_) {
        srtt_s_ = sample;
        rttvar_s_ = sample / 2.0;
        rtt_valid_ = true;
      } else {
        rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - sample);
        srtt_s_ = 0.875 * srtt_s_ + 0.125 * sample;
      }
    }
    send_times_.erase(send_times_.begin(),
                      send_times_.upper_bound(ack_offset));

    if (in_recovery_ && acked_offset_ >= recover_point_ - kGranule) {
      in_recovery_ = false;  // Recovery complete.
    }
    // Window growth applies during recovery as well (the restream must be
    // able to accelerate); what recovery suppresses is *further cuts*.
    const double acked_packets = newly / kMssBytes;
    if (cwnd_ < ssthresh_) {
      cwnd_ += acked_packets;  // Slow start.
    } else {
      cwnd_ += acked_packets / cwnd_;  // Congestion avoidance.
    }
    if (max_sent_offset_ > acked_offset_ + kGranule) arm_rto();
    try_send();
  } else if (hint > acked_offset_ + kGranule && !in_recovery_) {
    // Duplicate cumulative ack but the receiver holds data above a hole:
    // genuine loss. One rate cut, then go back to the ack point and
    // restream — the selective receiver absorbs duplicates, so burst
    // losses heal in a few RTTs instead of NewReno's one hole per RTT.
    // Duplicate acks with hint == ack (echoes of our own duplicate
    // retransmissions) are ignored — no spurious cuts.
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = ssthresh_;
    in_recovery_ = true;
    recover_point_ = max_sent_offset_;
    rewind_to_acked();
    try_send();
    arm_rto();
  }
}

void Connection::try_send() {
  if (state_ != State::kEstablished) return;
  const double window_bytes = cwnd_ * kMssBytes;
  bool sent_any = false;
  while (sent_offset_ < app_offset_ - kGranule &&
         sent_offset_ - acked_offset_ < window_bytes - kGranule) {
    // Fractional application byte counts are padded up to whole bytes so
    // the final fragment of a burst can never be zero-length.
    const int len = static_cast<int>(std::ceil(std::min<double>(
        kMssBytes, app_offset_ - sent_offset_)));
    if (len <= 0) break;
    send_segment(stats_.handshake_rtts == 0 ? kSegZeroRttData : kSegData,
                 sent_offset_, len);
    send_times_[sent_offset_ + len] = host_->simulator().now();
    if (sent_offset_ < max_sent_offset_ - kGranule) {
      ++stats_.retransmissions;
    }
    sent_offset_ += len;
    max_sent_offset_ = std::max(max_sent_offset_, sent_offset_);
    stats_.bytes_sent += len;
    sent_any = true;
  }
  if (sent_any) arm_rto();
}

void Connection::send_segment(std::uint8_t type, double offset, int length) {
  net::Packet p{host_->node(), remote_, length + kHeaderBytes,
                kTransportProtocol,
                encode_segment(SegmentHeader{id_.value(), type, offset,
                                             static_cast<std::uint32_t>(
                                                 length)})};
  host_->network().send(std::move(p));
}

Duration Connection::rto() const {
  double base_s =
      rtt_valid_ ? srtt_s_ + 4.0 * rttvar_s_ : kMinRto.to_seconds();
  base_s = std::max(base_s, kMinRto.to_seconds());
  return Duration::seconds(base_s * rto_backoff_);
}

void Connection::arm_rto() {
  const std::uint64_t epoch = ++rto_epoch_;
  host_->simulator().schedule(
      rto(),
      [this, epoch] {
        if (epoch == rto_epoch_) on_rto();
      },
      host_->rto_label_);
}

void Connection::on_rto() {
  if (state_ == State::kBroken) return;
  if (state_ == State::kConnecting) {
    rto_backoff_ = std::min(rto_backoff_ * 2, 64);
    send_segment(kSegSyn, 0.0, 0);
    arm_rto();
    return;
  }
  if (max_sent_offset_ <= acked_offset_ + kGranule) return;  // All acked.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  rto_backoff_ = std::min(rto_backoff_ * 2, 64);
  recover_point_ = max_sent_offset_;
  rewind_to_acked();
  try_send();
  arm_rto();
}

void Connection::rewind_to_acked() {
  sent_offset_ = acked_offset_;
  send_times_.clear();
}

}  // namespace dlte::transport
