#include "epc/epc.h"

namespace dlte::epc {

EpcCore::EpcCore(sim::Simulator& sim, EpcConfig config, sim::RngStream rng)
    : config_(std::move(config)),
      hss_(std::move(rng)),
      gateway_(config_.ip_pool_base),
      mme_(sim, hss_, gateway_, config_.network_id) {}

}  // namespace dlte::epc
