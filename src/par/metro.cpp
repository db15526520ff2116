#include "par/metro.h"

#include <algorithm>

#include "par/partition.h"
#include "workload/cohort.h"

namespace dlte::par {

namespace {
constexpr std::uint16_t kLoadReportKind = 1;
}  // namespace

// District metric block: lives wholly in one shard's registry (the
// partition distributes districts, never splits them), which is what
// keeps the histogram merge bit-exact at any shard count.
struct MetroScenario::District {
  std::size_t shard{0};
  workload::UeCohort::Hooks hooks;
  obs::Counter* reports_rx{nullptr};
};

// One AP: its cohort plus the ring-report periodic. All cross-AP
// interaction is a posted Message, so the event structure is a pure
// function of the config, not the partition.
struct MetroScenario::Cell {
  int index{0};
  District* district{nullptr};
  sim::Simulator* sim{nullptr};
  std::unique_ptr<workload::UeCohort> cohort;
};

MetroScenario::MetroScenario(MetroConfig config) : config_([&config] {
      config.aps = std::max(config.aps, 1);
      config.districts = std::clamp(config.districts, 1, config.aps);
      if (config.shards == 0) config.shards = 1;
      config.shards =
          std::min(config.shards, static_cast<std::size_t>(config.districts));
      return config;
    }()),
      runtime_([this] {
        ShardedConfig rc;
        rc.shards = config_.shards;
        rc.threads = config_.threads;
        rc.lookahead = config_.backbone_delay;
        rc.sample_interval = config_.sample_interval;
        rc.profile = config_.profile;
        rc.audit = config_.audit;
        rc.audit_window = config_.audit_window;
        rc.engine_sample_interval = config_.engine_sample_interval;
        return rc;
      }()) {}

MetroScenario::~MetroScenario() = default;

std::size_t MetroScenario::district_of(std::size_t ap) const {
  return shard_of_block(ap, static_cast<std::size_t>(config_.aps),
                        static_cast<std::size_t>(config_.districts));
}

void MetroScenario::build() {
  const int n = config_.aps;
  districts_.reserve(static_cast<std::size_t>(config_.districts));
  for (int d = 0; d < config_.districts; ++d) {
    auto district = std::make_unique<District>();
    district->shard =
        shard_of_block(static_cast<std::size_t>(d),
                       static_cast<std::size_t>(config_.districts),
                       config_.shards);
    obs::MetricsRegistry& domain = runtime_.shard_registry(district->shard);
    const std::string prefix = "d" + std::to_string(d) + ".";
    district->hooks.attached = &domain.counter(prefix + "attached");
    district->hooks.bytes_delivered =
        &domain.counter(prefix + "bytes_delivered");
    district->hooks.flows_completed =
        &domain.counter(prefix + "flows_completed");
    district->hooks.attach_ms = &domain.histogram(prefix + "attach.ms");
    district->reports_rx = &domain.counter(prefix + "reports.rx");
    districts_.push_back(std::move(district));
  }

  cells_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto cell = std::make_unique<Cell>();
    Cell* c = cell.get();
    c->index = i;
    c->district = districts_[district_of(static_cast<std::size_t>(i))].get();
    c->sim = &runtime_.shard_sim(c->district->shard);

    workload::CohortConfig cohort;
    cohort.ues = config_.ues_per_ap;
    cohort.attach_batches = config_.attach_batches;
    cohort.attach_window = config_.attach_window;
    cohort.flow_bytes_per_ue = config_.flow_bytes_per_ue;
    // Per-AP stream from the SCENARIO seed and AP index — never the
    // shard — so every sequence survives any repartition.
    c->cohort = std::make_unique<workload::UeCohort>(
        *c->sim, cohort,
        sim::RngStream::derive(config_.seed, "metro.cohort",
                               static_cast<std::uint64_t>(i)),
        c->district->hooks);
    c->cohort->start();

    runtime_.register_endpoint(
        static_cast<EndpointId>(i), c->district->shard,
        [c](const Message&) { c->district->reports_rx->inc(); });

    // Ring load report to the right neighbour: the deliberate cross-shard
    // traffic that keeps the exchange path honest at metro scale. Only
    // its arrival counts, so it carries no payload.
    if (n > 1) {
      const EndpointId peer = static_cast<EndpointId>((i + 1) % n);
      c->sim->every(
          config_.report_interval,
          [this, c, peer] {
            runtime_.post(static_cast<EndpointId>(c->index), peer,
                          config_.backbone_delay, kLoadReportKind, {});
          },
          c->sim->label("metro.report"));
    }

    cells_.push_back(std::move(cell));
  }
  built_ = true;
}

MetroResult MetroScenario::run() {
  if (!built_) build();
  runtime_.run_until(TimePoint{} + config_.horizon);
  MetroResult result;
  for (const auto& district : districts_) {
    result.ues_attached += district->hooks.attached->value();
    result.bytes_delivered += district->hooks.bytes_delivered->value();
    result.flows_completed += district->hooks.flows_completed->value();
    result.reports_rx += district->reports_rx->value();
  }
  result.windows = runtime_.windows_run();
  result.messages = runtime_.messages_exchanged();
  result.events_executed = runtime_.events_executed();
  result.sim_seconds = config_.horizon.to_seconds();
  return result;
}

}  // namespace dlte::par
