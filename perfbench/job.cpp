// One benchmark job: one workload, one scenario at a fixed size, run to
// its horizon in this fresh process. run.py generates the configuration
// from the workload seed and passes it here as flags; this program never
// sees the seed except as the scenario's own `seed` field.
//
//   dlte_perfjob --workload metro|registry_churn|town_attach
//                --shards N --threads N [--traced 1] [config flags]
//
// Prints one JSON line: set-up and run seconds, peak RSS, the merged-
// metrics digest, the workload's invariants and, for --traced 1, the
// per-layer metrics.
//
// Untraced jobs run the scenario classes exactly as a user does (default
// observability: no profiling, no audit). The set-up/run split comes from
// one unlabeled marker event at t=0 on shard 0: it runs first in the
// first barrier window, so its wall-clock stamp separates building the
// scenario from simulating it. It touches no metric, so the digest is
// unchanged.
//
// Traced jobs turn on the runtime's profiling plane and step the barrier
// loop one window per run_until() call, timing each call. metro steps
// MetroScenario itself (its build does not depend on the horizon, so a
// one-window horizon followed by run_until(horizon) is the same run);
// registry_churn and town_attach step the replicas in replicas.h, and the
// registry replica also times every call into spectrum::Registry.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/snapshot.h"
#include "par/metro.h"
#include "par/registry_plane.h"
#include "par/town.h"
#include "replicas.h"

namespace {

using namespace dlte;
using perfbench::RegistrySpans;
using perfbench::TracedRegistryPlane;
using perfbench::TracedTown;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Arguments ---------------------------------------------------------

struct Args {
  std::map<std::string, std::string> values;

  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      std::fprintf(stderr, "dlte_perfjob: missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  [[nodiscard]] std::int64_t num(const std::string& key) const {
    const std::string v = str(key);
    char* end = nullptr;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || n < 0) {
      std::fprintf(stderr, "dlte_perfjob: bad --%s %s\n", key.c_str(),
                   v.c_str());
      std::exit(2);
    }
    return n;
  }
  [[nodiscard]] std::int64_t num_or(const std::string& key,
                                    std::int64_t fallback) const {
    return values.count(key) != 0 ? num(key) : fallback;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "dlte_perfjob: expected --flag value, got %s\n",
                   flag.c_str());
      std::exit(2);
    }
    args.values[flag.substr(2)] = argv[i + 1];
  }
  return args;
}

// ---- Output ------------------------------------------------------------

// Flat JSON object writer: enough for one line of numbers and strings.
class JsonLine {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    field(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void boolean(const std::string& key, bool v) {
    field(key, v ? "true" : "false");
  }
  void raw(const std::string& key, const std::string& json) {
    field(key, json);
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string digest_of(const par::ShardedSimulator& rt) {
  obs::MetricsRegistry merged;
  rt.merged_metrics_into(merged);
  const std::string json = obs::MetricsSnapshot{merged}.to_json();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                obs::fnv_bytes(json.data(), json.size()));
  return buf;
}

std::uint64_t sum_counters_ending(const obs::MetricsRegistry& reg,
                                  const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, counter] : reg.counters()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += counter.value();
    }
  }
  return total;
}

// Exact quantile of a sample (nearest rank); 0 for an empty one.
double quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double total(const std::vector<float>& v) {
  double s = 0.0;
  for (const float x : v) s += x;
  return s;
}

// ---- Runs --------------------------------------------------------------

// Everything one job reports; `layers` stays empty for untraced jobs.
struct Outcome {
  double setup_s{0.0};
  double run_s{0.0};
  std::string digest;
  bool invariants_ok{false};
  std::string invariant_detail;
  JsonLine layers;
  bool traced{false};
};

// Advance `rt` to `horizon` one barrier window per run_until() call,
// choosing each window end exactly as ShardedSimulator::run_until does
// (fixed t=0 grid, idle fast-forward), and return each call's wall time.
std::vector<float> step_windows(par::ShardedSimulator& rt, TimePoint horizon) {
  const std::int64_t window_ns = rt.lookahead().ns();
  std::vector<float> spans_us;
  rt.run_until(rt.now());  // Drain set-up posts; runs no window.
  while (rt.now() < horizon) {
    std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
    for (std::size_t s = 0; s < rt.shard_count(); ++s) {
      earliest = std::min(earliest, rt.shard_sim(s).next_event_time().ns());
    }
    TimePoint end = horizon;
    if (earliest <= horizon.ns()) {
      const std::int64_t start = ((earliest - 1) / window_ns) * window_ns;
      std::int64_t end_ns = start + window_ns;
      if (end_ns <= rt.now().ns()) end_ns = rt.now().ns() + window_ns;
      end = TimePoint::from_ns(std::min(horizon.ns(), end_ns));
    }
    const auto start = Clock::now();
    rt.run_until(end);
    spans_us.push_back(std::chrono::duration<float, std::micro>(
                           Clock::now() - start)
                           .count());
  }
  return spans_us;
}

// Schedule the set-up/run marker: the first event shard 0 runs.
void mark_first_window(par::ShardedSimulator& rt, Clock::time_point* at) {
  rt.shard_sim(0).schedule_at(TimePoint{}, [at] { *at = Clock::now(); });
}

// Per-layer metrics every traced job reports, whatever the workload; a
// layer the workload does not reach reports 0 (the control prediction).
struct LayerInputs {
  par::ShardedSimulator* rt{nullptr};
  const obs::MetricsRegistry* harness{nullptr};  // par.* runtime metrics.
  double setup_s{0.0};
  double run_s{0.0};
  std::vector<float> window_us;
  std::uint64_t ues_provisioned{0};
  // workload / transport
  std::uint64_t ues_attached{0};
  std::uint64_t flows_completed{0};
  std::uint64_t bytes_delivered{0};
  std::uint64_t regrant_batches{0};
  std::uint64_t queries_answered{0};
  const par::RegistryPlaneResult* registry{nullptr};
  const RegistrySpans* registry_spans{nullptr};
};

constexpr const char* kLabels[] = {
    "workload.attach", "transport.flow_train", "metro.report",
    "par.delivery",    "town.attach",          "town.x2_report",
    "epc.mme",         "ran.enodeb",           "core.s1",
    "net.hop"};

void fill_layers(const LayerInputs& in, JsonLine& out) {
  par::ShardedSimulator& rt = *in.rt;
  const obs::ShardProfile prof = rt.profile();

  // sim
  double lane_run = 0.0;
  double lane_wait = 0.0;
  double lane_max = 0.0;
  for (const obs::ShardLane& lane : prof.lanes) {
    lane_run += lane.run_s;
    lane_wait += lane.barrier_wait_s;
    lane_max = std::max(lane_max, lane.run_s);
  }
  const double lanes = static_cast<double>(std::max<std::size_t>(
      prof.lanes.size(), 1));
  const std::uint64_t events = rt.events_executed();
  out.count("sim.events", events);
  out.count("sim.queue_resizes", rt.queue_resizes());
  out.num("sim.events_per_busy_s",
          lane_run > 0 ? static_cast<double>(events) / lane_run : 0.0);
  obs::EventProfiler attribution;
  rt.merged_profiler_into(attribution);
  for (const char* label : kLabels) {
    out.count(std::string("sim.label.") + label + ".executed",
              attribution.stats(attribution.intern(label)).executed);
  }

  // par
  const obs::Gauge* max_exchange =
      in.harness->find_gauge("par.max_exchange");
  out.count("par.windows", rt.windows_run());
  out.count("par.messages", rt.messages_exchanged());
  out.count("par.max_exchange",
            max_exchange != nullptr
                ? static_cast<std::uint64_t>(max_exchange->value())
                : 0);
  out.num("par.run_lane_s", lane_run);
  out.num("par.barrier_wait_s", lane_wait);
  out.num("par.wait_share",
          lane_run + lane_wait > 0 ? lane_wait / (lane_run + lane_wait) : 0.0);
  out.num("par.imbalance", lane_run > 0 ? lane_max / (lane_run / lanes) : 0.0);
  out.num("par.coordinator_s", in.run_s - (lane_run + lane_wait) / lanes);
  out.num("par.window_us_p50", quantile(in.window_us, 0.50));
  out.num("par.window_us_p99", quantile(in.window_us, 0.99));

  // spectrum / registry
  static const RegistrySpans kNoSpans;
  const RegistrySpans& spans =
      in.registry_spans != nullptr ? *in.registry_spans : kNoSpans;
  const auto span_stats = [&out](const std::string& name,
                                 const std::vector<float>& v) {
    out.num(name + "_p50", quantile(v, 0.50));
    out.num(name + "_p99", quantile(v, 0.99));
    out.num(name + "_total", total(v));
  };
  span_stats("registry.grant_us", spans.grant_us);
  span_stats("registry.heartbeat_us", spans.heartbeat_us);
  span_stats("registry.occupancy_us", spans.occupancy_us);
  static const par::RegistryPlaneResult kNoRegistry;
  const par::RegistryPlaneResult& reg =
      in.registry != nullptr ? *in.registry : kNoRegistry;
  out.count("registry.grants_issued", reg.grants_issued);
  out.count("registry.heartbeats_ok", reg.heartbeats_ok);
  out.count("registry.heartbeats_failed", reg.heartbeats_failed);
  out.count("registry.grants_lapsed", reg.grants_lapsed);
  out.count("registry.cache.root_sheds", reg.cache_root_sheds);
  out.count("registry.cache.stale_serves", reg.cache_stale_serves);
  const std::uint64_t lookups =
      reg.cache_hits + reg.cache_misses + reg.cache_root_sheds;
  out.count("registry.cache.lookups", lookups);
  out.num("registry.cache.hit_ratio",
          lookups > 0 ? static_cast<double>(reg.cache_hits) /
                            static_cast<double>(lookups)
                      : 0.0);

  // workload / transport
  out.count("workload.ues_attached", in.ues_attached);
  out.count("transport.flows_completed", in.flows_completed);
  out.count("transport.bytes_delivered", in.bytes_delivered);
  out.count("workload.regrant_batches", in.regrant_batches);
  out.count("workload.queries_answered", in.queries_answered);

  // epc / crypto / lte / core
  obs::MetricsRegistry merged;
  rt.merged_metrics_into(merged);
  const std::uint64_t attaches =
      sum_counters_ending(merged, "epc.attaches_completed");
  out.count("epc.attaches_completed", attaches);
  out.count("epc.messages_processed",
            sum_counters_ending(merged, "epc.messages_processed"));
  out.count("epc.nas_retransmissions",
            sum_counters_ending(merged, "epc.nas_retransmissions"));
  out.num("epc.cpu_us_per_attach",
          attaches > 0 ? lane_run * 1e6 / static_cast<double>(attaches) : 0.0);
  out.num("crypto.setup_us_per_ue",
          in.ues_provisioned > 0
              ? in.setup_s * 1e6 / static_cast<double>(in.ues_provisioned)
              : 0.0);
}

TimePoint horizon_of(const Args& a) {
  return TimePoint{} + Duration::millis(a.num("horizon-ms"));
}

par::MetroConfig metro_config(const Args& a) {
  par::MetroConfig c;
  c.aps = static_cast<int>(a.num("aps"));
  c.ues_per_ap = static_cast<int>(a.num("ues-per-ap"));
  c.shards = static_cast<std::size_t>(a.num("shards"));
  c.threads = static_cast<std::size_t>(a.num("threads"));
  c.seed = static_cast<std::uint64_t>(a.num("seed"));
  c.horizon = Duration::millis(a.num("horizon-ms"));
  return c;
}

par::TownConfig town_config(const Args& a) {
  par::TownConfig c;
  c.aps = static_cast<int>(a.num("aps"));
  c.ues_per_ap = static_cast<int>(a.num("ues-per-ap"));
  c.shards = static_cast<std::size_t>(a.num("shards"));
  c.threads = static_cast<std::size_t>(a.num("threads"));
  c.seed = static_cast<std::uint64_t>(a.num("seed"));
  c.horizon = Duration::millis(a.num("horizon-ms"));
  return c;
}

par::RegistryPlaneConfig registry_config(const Args& a) {
  par::RegistryPlaneConfig c;
  c.blocks = static_cast<int>(a.num("blocks"));
  c.leases_per_block = static_cast<int>(a.num("leases-per-block"));
  c.zones_x = c.zones_y = static_cast<int>(a.num("zones"));
  c.shards = static_cast<std::size_t>(a.num("shards"));
  c.threads = static_cast<std::size_t>(a.num("threads"));
  c.seed = static_cast<std::uint64_t>(a.num("seed"));
  c.horizon = Duration::millis(a.num("horizon-ms"));
  c.storm_zone = static_cast<int>(a.num("storm-zone"));
  c.outage_at = Duration::millis(a.num("outage-at-ms"));
  return c;
}

void check(Outcome& o, bool ok, const std::string& what) {
  if (ok) return;
  o.invariants_ok = false;
  if (!o.invariant_detail.empty()) o.invariant_detail += "; ";
  o.invariant_detail += what;
}

void check_metro(Outcome& o, const par::MetroConfig& c,
                 const par::MetroResult& r) {
  o.invariants_ok = true;
  check(o,
        r.ues_attached == static_cast<std::uint64_t>(c.aps) *
                              static_cast<std::uint64_t>(c.ues_per_ap),
        "ues_attached " + std::to_string(r.ues_attached) +
            " != aps x ues_per_ap");
}

void check_town(Outcome& o, const par::TownConfig& c,
                const par::TownResult& r) {
  o.invariants_ok = true;
  check(o,
        r.attaches_completed == static_cast<std::uint64_t>(c.aps) *
                                    static_cast<std::uint64_t>(c.ues_per_ap),
        "attaches_completed " + std::to_string(r.attaches_completed) +
            " != offered");
  check(o, r.attaches_failed == 0,
        "attaches_failed " + std::to_string(r.attaches_failed));
}

void check_registry(Outcome& o, const par::RegistryPlaneConfig& c,
                    const par::RegistryPlaneResult& r) {
  o.invariants_ok = true;
  check(o,
        r.leases_held == static_cast<std::uint64_t>(c.blocks) *
                             static_cast<std::uint64_t>(c.leases_per_block),
        "leases_held " + std::to_string(r.leases_held) + " != quota");
  check(o, r.grants_lapsed > 0, "no lease lapsed during the outage");
  check(o, r.outage_alert_fired, "churn alert never fired");
  check(o, r.outage_alert_resolved, "churn alert never resolved");
}

// Untraced job: the scenario class exactly as a user runs it.
template <class Scenario, class Config, class Check>
Outcome run_untraced(const Config& c, Check check) {
  Outcome o;
  Clock::time_point first{};
  const auto t0 = Clock::now();
  Scenario s(c);
  mark_first_window(s.runtime(), &first);
  const auto r = s.run();
  const auto t2 = Clock::now();
  o.setup_s = seconds_between(t0, first);
  o.run_s = seconds_between(first, t2);
  o.digest = digest_of(s.runtime());
  check(o, c, r);
  return o;
}

// Traced job on a replica: build, then one run_until() per window.
// `extra` adds the workload's own layer inputs from the finished replica.
template <class Replica, class Config, class Check, class Extra>
Outcome run_replica_traced(Config c, TimePoint horizon, Check check,
                           Extra extra) {
  Outcome o;
  c.profile = true;
  obs::MetricsRegistry harness;
  const auto t0 = Clock::now();
  Replica s(c);
  s.runtime().set_metrics(&harness);
  s.build();
  const auto t1 = Clock::now();
  LayerInputs in;
  in.window_us = step_windows(s.runtime(), horizon);
  const auto t2 = Clock::now();
  const auto r = s.result();
  o.setup_s = seconds_between(t0, t1);
  o.run_s = seconds_between(t1, t2);
  o.digest = digest_of(s.runtime());
  check(o, c, r);
  in.rt = &s.runtime();
  in.harness = &harness;
  in.setup_s = o.setup_s;
  in.run_s = o.run_s;
  extra(in, s, c, r);
  fill_layers(in, o.layers);
  o.traced = true;
  return o;
}

Outcome run_metro(const Args& a, bool traced) {
  par::MetroConfig c = metro_config(a);
  if (!traced) return run_untraced<par::MetroScenario>(c, check_metro);
  Outcome o;
  const TimePoint horizon = horizon_of(a);
  c.profile = true;
  c.horizon = c.backbone_delay;  // Build plus the first window.
  obs::MetricsRegistry harness;
  const auto t0 = Clock::now();
  par::MetroScenario s(c);
  s.runtime().set_metrics(&harness);
  s.run();
  const auto t1 = Clock::now();
  LayerInputs in;
  in.window_us = step_windows(s.runtime(), horizon);
  const auto t2 = Clock::now();
  const par::MetroResult r = s.run();  // Horizon already passed: a no-op.
  o.setup_s = seconds_between(t0, t1);
  o.run_s = seconds_between(t1, t2);
  o.digest = digest_of(s.runtime());
  check_metro(o, c, r);
  in.rt = &s.runtime();
  in.harness = &harness;
  in.setup_s = o.setup_s;
  in.run_s = o.run_s;
  in.ues_attached = r.ues_attached;
  in.flows_completed = r.flows_completed;
  in.bytes_delivered = r.bytes_delivered;
  fill_layers(in, o.layers);
  o.traced = true;
  return o;
}

Outcome run_town(const Args& a, bool traced) {
  const par::TownConfig c = town_config(a);
  if (!traced) return run_untraced<par::ShardedTown>(c, check_town);
  return run_replica_traced<TracedTown>(
      c, horizon_of(a), check_town,
      [](LayerInputs& in, const TracedTown&, const par::TownConfig& cfg,
         const par::TownResult&) {
        in.ues_provisioned = static_cast<std::uint64_t>(cfg.aps) *
                             static_cast<std::uint64_t>(cfg.ues_per_ap);
      });
}

Outcome run_registry(const Args& a, bool traced) {
  const par::RegistryPlaneConfig c = registry_config(a);
  if (!traced) {
    return run_untraced<par::RegistryPlaneScenario>(c, check_registry);
  }
  return run_replica_traced<TracedRegistryPlane>(
      c, horizon_of(a), check_registry,
      [](LayerInputs& in, const TracedRegistryPlane& s,
         const par::RegistryPlaneConfig&, const par::RegistryPlaneResult& r) {
        in.regrant_batches = r.regrant_batches;
        in.queries_answered = r.queries_answered;
        in.registry = &r;
        in.registry_spans = &s.spans();
      });
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string workload = args.str("workload");
  const bool traced = args.num_or("traced", 0) != 0;
  const std::map<std::string, std::function<Outcome(const Args&, bool)>>
      runners{{"metro", run_metro},
              {"registry_churn", run_registry},
              {"town_attach", run_town}};
  const auto runner = runners.find(workload);
  if (runner == runners.end()) {
    std::fprintf(stderr, "dlte_perfjob: unknown workload %s\n",
                 workload.c_str());
    return 2;
  }
  const Outcome o = runner->second(args, traced);

  JsonLine line;
  line.str("workload", workload);
  line.count("shards", static_cast<std::uint64_t>(args.num("shards")));
  line.count("threads", static_cast<std::uint64_t>(args.num("threads")));
  line.boolean("traced", o.traced);
  line.count("nproc", std::thread::hardware_concurrency());
  line.str("compiler", PERFBENCH_COMPILER);
  line.str("build_type", PERFBENCH_BUILD_TYPE);
  line.num("setup_s", o.setup_s);
  line.num("run_s", o.run_s);
  line.num("peak_rss_mb", peak_rss_mb());
  line.str("digest", o.digest);
  line.boolean("invariants_ok", o.invariants_ok);
  line.str("invariant_detail", o.invariant_detail);
  if (o.traced) line.raw("layers", o.layers.done());
  std::printf("%s\n", line.done().c_str());
  std::fflush(stdout);
  // Skip tearing down a million-UE scenario: the result is out, and the
  // process exists only for this one job.
  std::_Exit(0);
}
