// An over-the-top service endpoint with progress instrumentation.
//
// §4.2 hinges on the relationship between a client's dwell time per AP
// and the RTT to the services it uses; the OTT service here is the
// far end of that measurement. It accepts transport connections and
// records, per connection, the timeline of delivered bytes — from which
// the C5 bench extracts interruption gaps around each AP transition.
#pragma once

#include <map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "transport/transport.h"

namespace dlte::workload {

struct ProgressSample {
  TimePoint when;
  double bytes;
};

class OttService {
 public:
  OttService(sim::Simulator& sim, net::Network& net, NodeId node);

  [[nodiscard]] NodeId node() const { return host_.node(); }

  // Progress timeline of one connection (cumulative delivered bytes).
  [[nodiscard]] const std::vector<ProgressSample>& progress(
      ConnectionId id) const;
  [[nodiscard]] double delivered_bytes(ConnectionId id) const;

  // Longest gap between consecutive progress samples inside [from, to] —
  // the application-level interruption metric.
  [[nodiscard]] Duration longest_stall(ConnectionId id, TimePoint from,
                                       TimePoint to) const;

 private:
  sim::Simulator& sim_;
  transport::TransportHost host_;
  std::map<ConnectionId, std::vector<ProgressSample>> progress_;
};

}  // namespace dlte::workload
