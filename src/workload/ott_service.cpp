#include "workload/ott_service.h"


namespace dlte::workload {

OttService::OttService(sim::Simulator& sim, net::Network& net, NodeId node)
    : sim_(sim), host_(sim, net, node) {
  host_.listen([this](transport::ServerConnection& sc) {
    const ConnectionId id = sc.id;
    sc.on_data = [this, id](double offset) {
      progress_[id].push_back(ProgressSample{sim_.now(), offset});
    };
  });
}

const std::vector<ProgressSample>& OttService::progress(
    ConnectionId id) const {
  static const std::vector<ProgressSample> empty;
  const auto it = progress_.find(id);
  return it == progress_.end() ? empty : it->second;
}

double OttService::delivered_bytes(ConnectionId id) const {
  const auto& p = progress(id);
  return p.empty() ? 0.0 : p.back().bytes;
}

Duration OttService::longest_stall(ConnectionId id, TimePoint from,
                                   TimePoint to) const {
  const auto& samples = progress(id);
  Duration longest{};
  TimePoint last = from;
  for (const auto& s : samples) {
    if (s.when < from) {
      continue;
    }
    if (s.when > to) break;
    if (s.when - last > longest) longest = s.when - last;
    last = s.when;
  }
  if (to - last > longest) longest = to - last;
  return longest;
}

}  // namespace dlte::workload
