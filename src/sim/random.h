// Deterministic random-number streams.
//
// Each component (one UE's mobility, one link's shadowing, one traffic
// source) derives its own independent stream from the master seed plus a
// stable name, so adding a component never perturbs the draws seen by
// existing ones — a prerequisite for meaningful A/B experiments between
// architectures.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace dlte::sim {

class RngStream {
 public:
  RngStream() : engine_(0xd17e) {}
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}

  // Derive a substream from a master seed and a stable component name.
  [[nodiscard]] static RngStream derive(std::uint64_t master_seed,
                                        std::string_view component);

  // Indexed variant: the stream for the `index`-th instance of a
  // component family (AP 7's mobility, shard 3's arrivals). Equivalent to
  // hashing "<component>/<index>" but cheaper and explicit about intent.
  [[nodiscard]] static RngStream derive(std::uint64_t master_seed,
                                        std::string_view component,
                                        std::uint64_t index);

  // Deterministic child seed for handing a whole seed (not a stream) to a
  // subcomponent: the sharded runtime derives one child seed per shard
  // from the scenario seed, and each shard derives its per-AP streams
  // from the SCENARIO seed — never the shard seed — so changing the shard
  // count never changes any per-AP random sequence.
  [[nodiscard]] static std::uint64_t child_seed(std::uint64_t master_seed,
                                                std::string_view component,
                                                std::uint64_t index = 0);

  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0);
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);
  [[nodiscard]] double exponential(double mean);
  [[nodiscard]] bool bernoulli(double p);

 private:
  std::mt19937_64 engine_;
};

}  // namespace dlte::sim
