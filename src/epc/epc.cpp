#include "epc/epc.h"

namespace dlte::epc {

EpcCore::EpcCore(sim::Simulator& sim, EpcConfig config, sim::RngStream rng)
    : config_(std::move(config)),
      hss_(std::move(rng)),
      gateway_(config_.ip_pool_base),
      mme_(sim, hss_, gateway_,
           [this] {
             MmeConfig c = config_.mme;
             c.serving_network_id = config_.network_id;
             return c;
           }()) {}

}  // namespace dlte::epc
