// Microbenchmarks (google-benchmark): throughput of the primitives the
// simulation rests on. Not a paper experiment — a performance-regression
// harness for the library itself (a local core stub is supposed to run
// on an "off the shelf computer", §5, so the protocol work must be
// cheap).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"
#include "lte/nas.h"
#include "lte/x2ap.h"
#include "mac/lte_scheduler.h"
#include "mac/wifi_dcf.h"
#include "phy/propagation.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace {
using namespace dlte;

void BM_Aes128Encrypt(benchmark::State& state) {
  crypto::Key128 key{};
  key[0] = 0x2b;
  crypto::Aes128 aes{key};
  crypto::Block128 block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes128Encrypt);

void BM_MilenageAuthVector(benchmark::State& state) {
  crypto::Key128 k{};
  k[0] = 0x46;
  crypto::Block128 opc{};
  opc[0] = 0xcd;
  const crypto::Milenage m{k, opc};
  crypto::Rand128 rand{};
  crypto::Sqn48 sqn{};
  crypto::Amf16 amf{0x80, 0x00};
  for (auto _ : state) {
    const auto c = m.challenge(rand);
    auto f1 = c.f1(sqn, amf);
    auto f25 = c.f2_f5();
    auto ck = c.f3();
    auto ik = c.f4();
    benchmark::DoNotOptimize(f1);
    benchmark::DoNotOptimize(f25);
    benchmark::DoNotOptimize(ck);
    benchmark::DoNotOptimize(ik);
    rand[0] = static_cast<std::uint8_t>(rand[0] + 1);
  }
}
BENCHMARK(BM_MilenageAuthVector);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    auto d = crypto::sha256(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

// One KDF call's HMAC: a 32-byte key (CK || IK, or KASME) over a 10-byte
// S. That is four compressions, a pad block and a tail block per hash.
void BM_HmacSha256(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  key[0] = 0x46;
  std::array<std::uint8_t, 10> s{0x10, 'd', 'l', 't', 'e', 0x00, 0x04};
  for (auto _ : state) {
    auto d = crypto::hmac_sha256(key, s);
    benchmark::DoNotOptimize(d);
    s[9] = static_cast<std::uint8_t>(s[9] + 1);
  }
}
BENCHMARK(BM_HmacSha256);

void BM_NasRoundTrip(benchmark::State& state) {
  const lte::NasMessage msg{lte::AttachAccept{Tmsi{7}, 0x0a2d0001,
                                              BearerId{5}}};
  for (auto _ : state) {
    auto bytes = lte::encode_nas(msg);
    auto back = lte::decode_nas(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_NasRoundTrip);

void BM_X2ShareProposalRoundTrip(benchmark::State& state) {
  lte::DlteShareProposal p;
  p.round = 1;
  for (std::uint32_t i = 0; i < 16; ++i) {
    p.ap_ids.push_back(i);
    p.shares.push_back(1.0 / 16);
  }
  const lte::X2Message msg{p};
  for (auto _ : state) {
    auto bytes = lte::encode_x2(msg);
    auto back = lte::decode_x2(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_X2ShareProposalRoundTrip);

void BM_HataPathLoss(benchmark::State& state) {
  phy::OkumuraHataModel model;
  double d = 1000.0;
  for (auto _ : state) {
    auto loss = model.path_loss(Hertz::mhz(850.0),
                                phy::LinkGeometry{d, 30.0, 1.5});
    benchmark::DoNotOptimize(loss);
    d = d < 20'000.0 ? d + 1.0 : 1000.0;
  }
}
BENCHMARK(BM_HataPathLoss);

void BM_PfScheduler32Ues(benchmark::State& state) {
  mac::ProportionalFairScheduler sched;
  std::vector<mac::SchedUe> ues;
  for (std::uint32_t i = 0; i < 32; ++i) {
    ues.push_back(mac::SchedUe{UeId{i}, static_cast<int>(1 + i % 15), 1e6,
                               1e5 + i});
  }
  for (auto _ : state) {
    auto grants = sched.schedule(ues, 100);
    benchmark::DoNotOptimize(grants);
  }
}
BENCHMARK(BM_PfScheduler32Ues);

// Hold model (Brown): steady queue population, each step pops the
// minimum and pushes a successor a random increment later — the steady
// state of a large simulation. The pending-set size matches what a
// metro-scale run (bench_c10_metro: ~10k APs) keeps in flight; the
// heap's O(log n) hurts most right there. Run over both queue
// implementations; the recorded "event_queue_speedup" timing is
// calendar-vs-heap on exactly this loop (the DESIGN.md §13 claim).
// With kCapture32 every event carries a 32-byte capture (a reference and
// three words, the shape of FlowTrain's epoch lambda): each step runs the
// popped action and schedules a fresh one, as the engine does. That row
// records the cost of a schedule whose capture stays inline (it allocated
// on every push while actions were std::function).
template <typename Queue, bool kCapture32 = false>
void queue_hold(benchmark::State& state) {
  constexpr std::size_t kPending = 1 << 17;
  Queue queue;
  std::uint64_t seq = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  const auto next_gap = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>((lcg >> 40) % 1'000'000);  // <1 ms
  };
  std::uint64_t ran = 0;
  const auto make_action = [&ran](std::uint64_t s) -> sim::EventAction {
    if constexpr (kCapture32) {
      const auto action = [&ran, s, a = s * 3, b = s ^ 7] { ran += s + a + b; };
      static_assert(sizeof(action) == sim::EventAction::kInlineBytes);
      return action;
    } else {
      return {};
    }
  };
  std::int64_t now = 0;
  for (std::size_t i = 0; i < kPending; ++i) {
    const std::uint64_t s = seq++;
    queue.push(sim::QueuedEvent{TimePoint::from_ns(now + next_gap()), s,
                                make_action(s)});
  }
  for (auto _ : state) {
    sim::QueuedEvent event = queue.pop();
    now = event.when.ns();
    event.when = TimePoint::from_ns(now + next_gap());
    event.seq = seq++;
    if constexpr (kCapture32) {
      event.action();
      event.action = make_action(event.seq);
    }
    queue.push(std::move(event));
  }
  benchmark::DoNotOptimize(ran);
  state.SetItemsProcessed(state.iterations());
}

void BM_EventQueueHeapHold(benchmark::State& state) {
  queue_hold<sim::BinaryHeapQueue>(state);
}
BENCHMARK(BM_EventQueueHeapHold);

void BM_EventQueueCalendarHold(benchmark::State& state) {
  queue_hold<sim::CalendarQueue>(state);
}
BENCHMARK(BM_EventQueueCalendarHold);

void BM_EventQueueCalendarHoldCapture32(benchmark::State& state) {
  queue_hold<sim::CalendarQueue, true>(state);
}
BENCHMARK(BM_EventQueueCalendarHoldCapture32);

// Bursty hold, the shape of town_attach's pending set: an equal-time
// burst of 10,000 events rides on a hold population where three events
// in four come back within 1 ms and one in four after 2 s. Every burst
// event comes back exactly 2 s after it ran, so the burst recurs as one
// timestamp; each recurrence grows a bucket to 10,000 keys and drains it
// (the row that shows what freeing and regrowing burst storage costs).
void BM_EventQueueCalendarBurstHold(benchmark::State& state) {
  constexpr std::size_t kPending = 1 << 16;
  constexpr std::size_t kBurst = 10'000;
  constexpr std::uint32_t kBurstLabel = 1;
  constexpr std::int64_t kTwoSeconds = 2'000'000'000;
  sim::CalendarQueue queue;
  std::uint64_t seq = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  const auto next_delay = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const auto draw = lcg >> 40;
    return draw % 4 == 0 ? kTwoSeconds + static_cast<std::int64_t>(draw % 997)
                         : static_cast<std::int64_t>(draw % 1'000'000);
  };
  // The background goes in time order (all appends) and the burst joins
  // it last, so the set-up costs little next to the timed loop.
  std::vector<std::int64_t> background(kPending - kBurst);
  for (std::int64_t& when : background) when = next_delay();
  std::sort(background.begin(), background.end());
  for (const std::int64_t when : background) {
    queue.push(sim::QueuedEvent{TimePoint::from_ns(when), seq++, {}});
  }
  for (std::size_t i = 0; i < kBurst; ++i) {
    queue.push(sim::QueuedEvent{TimePoint::from_ns(1'000'000), seq++, {},
                                kBurstLabel});
  }
  for (auto _ : state) {
    sim::QueuedEvent event = queue.pop();
    const std::int64_t now = event.when.ns();
    event.when = TimePoint::from_ns(
        now + (event.label == kBurstLabel ? kTwoSeconds : next_delay()));
    event.seq = seq++;
    queue.push(std::move(event));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCalendarBurstHold);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(Duration::micros(i), [&count] { ++count; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// A metro cohort's random stream over its whole life: derived from the
// scenario seed and the AP index, then 110 uniform draws (10 batch
// offsets and 100 attach samples). A fresh stream per iteration, so the
// row carries set-up (seeding) as well as the draws.
void BM_RngStreamCohortLife(benchmark::State& state) {
  std::uint64_t index = 0;
  for (auto _ : state) {
    auto rng = sim::RngStream::derive(42, "metro.cohort", index++);
    double sum = 0.0;
    for (int k = 0; k < 110; ++k) sum += rng.uniform();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 110);
}
BENCHMARK(BM_RngStreamCohortLife);

// One uniform draw from a long-lived stream, well past its first 156
// draws: the steady-state cost a stream that draws all run long pays.
void BM_RngStreamUniformSteadyState(benchmark::State& state) {
  sim::RngStream rng{42};
  for (int k = 0; k < 1000; ++k) (void)rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngStreamUniformSteadyState);

void BM_DcfSimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    mac::DcfSimulator dcf{1};
    dcf.add_station(mac::DcfStationConfig{});
    dcf.add_station(mac::DcfStationConfig{});
    dcf.run(Duration::millis(100));
    benchmark::DoNotOptimize(dcf.stats(0).delivered_frames);
  }
}
BENCHMARK(BM_DcfSimulatedSecond);

// Console output as usual, plus each benchmark's per-iteration real
// time captured into the harness. Times land under "timings" (wall
// clock, non-deterministic); only the run count goes into "metrics".
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  CapturingReporter(dlte::bench::Harness& harness,
                    std::map<std::string, double>& per_iter_s)
      : harness_(harness), per_iter_s_(per_iter_s) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      const double per_iter =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations)
              : 0.0;
      harness_.timing(run.benchmark_name(), per_iter);
      per_iter_s_[run.benchmark_name()] = per_iter;
      harness_.metrics().counter("micro.benchmarks_run").inc();
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  dlte::bench::Harness& harness_;
  std::map<std::string, double>& per_iter_s_;
};

}  // namespace

int main(int argc, char** argv) {
  dlte::bench::Harness harness{"microbench"};
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::map<std::string, double> per_iter_s;
  CapturingReporter reporter{harness, per_iter_s};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Calendar-vs-heap win on the hold loop (>1 = calendar faster).
  const double heap = per_iter_s["BM_EventQueueHeapHold"];
  const double calendar = per_iter_s["BM_EventQueueCalendarHold"];
  if (heap > 0.0 && calendar > 0.0) {
    harness.timing("event_queue_speedup", heap / calendar);
  }
  return harness.finish(0);
}
