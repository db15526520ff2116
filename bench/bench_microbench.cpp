// Microbenchmarks (google-benchmark): throughput of the primitives the
// simulation rests on. Not a paper experiment — a performance-regression
// harness for the library itself (a local core stub is supposed to run
// on an "off the shelf computer", §5, so the protocol work must be
// cheap).
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_harness.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"
#include "lte/nas.h"
#include "lte/x2ap.h"
#include "mac/lte_scheduler.h"
#include "mac/wifi_dcf.h"
#include "phy/propagation.h"
#include "sim/event_queue.h"
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
  phy::OkumuraHataModel model{phy::Environment::kOpenRural};
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
template <typename Queue>
void queue_hold(benchmark::State& state) {
  constexpr std::size_t kPending = 1 << 17;
  Queue queue;
  std::uint64_t seq = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  const auto next_gap = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>((lcg >> 40) % 1'000'000);  // <1 ms
  };
  std::int64_t now = 0;
  for (std::size_t i = 0; i < kPending; ++i) {
    queue.push(
        sim::QueuedEvent{TimePoint::from_ns(now + next_gap()), seq++, {}});
  }
  for (auto _ : state) {
    sim::QueuedEvent event = queue.pop();
    now = event.when.ns();
    event.when = TimePoint::from_ns(now + next_gap());
    event.seq = seq++;
    queue.push(std::move(event));
  }
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
