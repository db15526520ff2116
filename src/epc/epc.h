// EpcCore: one deployable core — centralized or dLTE local stub.
//
// Both deployments are built from the identical HSS/MME/Gateway parts;
// the deployment flag controls only what the paper says should differ
// (§4.1): the local stub does not anchor mobility, does not bill, and is
// expected to sit on the AP itself (so its S1 latency is ~zero), while
// the centralized core anchors every tunnel at a remote site.
#pragma once

#include <string>

#include "epc/gateway.h"
#include "epc/hss.h"
#include "epc/mme.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace dlte::epc {

enum class CoreDeployment {
  kCentralized,  // Telecom LTE: one core, all traffic tromboned through it.
  kLocalStub,    // dLTE: collapsed per-AP core with local breakout.
};

struct EpcConfig {
  CoreDeployment deployment{CoreDeployment::kLocalStub};
  std::string network_id{"dlte-ap"};
  std::uint32_t ip_pool_base{0x0A2D0000};  // 10.45.0.0.
};

class EpcCore {
 public:
  EpcCore(sim::Simulator& sim, EpcConfig config, sim::RngStream rng);

  [[nodiscard]] Hss& hss() { return hss_; }
  [[nodiscard]] Mme& mme() { return mme_; }
  [[nodiscard]] Gateway& gateway() { return gateway_; }

  // Attach the whole core (MME + gateway) to a metrics registry.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "") {
    mme_.set_metrics(registry, prefix);
    gateway_.set_metrics(registry, prefix);
  }

  // Attach the core to a span tracer (currently the MME's EMM dialogue
  // phases; the user-plane spans live in the data-plane objects).
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "") {
    mme_.set_tracer(tracer, prefix);
  }

  // Crash-and-restart of the core process (src/fault): MME contexts and
  // gateway bearers are volatile and vanish; the HSS subscriber database
  // (flash-backed) survives.
  void crash() {
    mme_.lose_volatile_state();
    gateway_.clear_sessions();
  }

  // Capability predicate per §4.1 / §4.4: the stub strips everything the
  // client doesn't strictly require.
  [[nodiscard]] bool bills_subscribers() const {
    return config_.deployment == CoreDeployment::kCentralized;
  }

 private:
  EpcConfig config_;
  Hss hss_;
  Gateway gateway_;
  Mme mme_;
};

}  // namespace dlte::epc
