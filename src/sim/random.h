// Deterministic random-number streams.
//
// Each component (one UE's mobility, one link's shadowing, one traffic
// source) derives its own independent stream from the master seed plus a
// stable name, so adding a component never perturbs the draws seen by
// existing ones — a prerequisite for meaningful A/B experiments between
// architectures.
//
// A stream's engine is LazyMt19937_64: draw for draw the output of
// std::mt19937_64, but it holds a few words of state (40 bytes, against
// the standard engine's 2,504) until its 157th draw. Most streams in a
// large run draw far less than that (a metro cohort draws 110 numbers in
// its life), so they never pay for the 312-word state. Every distribution
// still goes through the std:: distribution templates, so a stream's
// values are exactly those std::mt19937_64 would give.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string_view>

namespace dlte::sim {

// std::mt19937_64, seeded with one word, computed lazily. Seeding fills
// x[0..311] by x[i] = f·(x[i−1] ^ x[i−1]>>62) + i, and the first twist
// makes output k (k < n − m = 156) from x[k], x[k+1] and x[k+156] alone,
// all seeded words. So the first 156 outputs need only two cursors
// walking the seeding recurrence, 156 words apart. On the 157th draw the
// engine spills: it builds a real std::mt19937_64 from the seed on the
// heap, discards 156 outputs and serves every later draw from it. A
// copy is a deep copy.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;
  // Draws served before the spill: n − m of std::mt19937_64.
  static constexpr std::uint32_t kPrefixDraws =
      std::mt19937_64::state_size - std::mt19937_64::shift_size;

  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  explicit LazyMt19937_64(result_type seed) noexcept : seed_(seed) {}
  // Deep: a spilled engine's state is copied, never shared.
  LazyMt19937_64(const LazyMt19937_64& other)
      : seed_(other.seed_),
        low_(other.low_),
        high_(other.high_),
        drawn_(other.drawn_),
        full_(other.full_ != nullptr
                  ? std::make_unique<std::mt19937_64>(*other.full_)
                  : nullptr) {}
  LazyMt19937_64& operator=(const LazyMt19937_64& other) {
    if (this != &other) *this = LazyMt19937_64{other};
    return *this;
  }
  LazyMt19937_64(LazyMt19937_64&&) noexcept = default;
  LazyMt19937_64& operator=(LazyMt19937_64&&) noexcept = default;

  result_type operator()() {
    if (drawn_ < kPrefixDraws) [[likely]] return prefix_draw();
    if (full_ != nullptr) return (*full_)();
    return start_or_spill();
  }

  // Whether the engine has built its full std::mt19937_64 state.
  [[nodiscard]] bool spilled() const { return full_ != nullptr; }

 private:
  // drawn_ before the first draw: it fails the prefix test, so the
  // first draw takes the cold path and places the cursors there.
  static constexpr std::uint32_t kUnstarted = ~std::uint32_t{0};

  // x[i] from x[i−1]: the seeding recurrence.
  static result_type seed_step(result_type prev, result_type i) {
    return std::mt19937_64::initialization_multiplier *
               (prev ^ (prev >> (std::mt19937_64::word_size - 2))) +
           i;
  }

  // Output `drawn_` of the first twist, then both cursors one word on.
  result_type prefix_draw() {
    constexpr result_type kUpper = ~result_type{0}
                                   << std::mt19937_64::mask_bits;
    const result_type i = drawn_;
    const result_type next = seed_step(low_, i + 1);
    const result_type y = (low_ & kUpper) | (next & ~kUpper);
    result_type z = high_ ^ (y >> 1) ^
                    ((result_type{0} - (y & 1)) & std::mt19937_64::xor_mask);
    low_ = next;
    high_ = seed_step(high_, i + kPrefixDraws + 1);
    ++drawn_;
    z ^= (z >> std::mt19937_64::tempering_u) & std::mt19937_64::tempering_d;
    z ^= (z << std::mt19937_64::tempering_s) & std::mt19937_64::tempering_b;
    z ^= (z << std::mt19937_64::tempering_t) & std::mt19937_64::tempering_c;
    return z ^ (z >> std::mt19937_64::tempering_l);
  }

  // The first draw (place the cursors) or the 157th (spill).
  result_type start_or_spill();

  result_type seed_;
  result_type low_{0};   // x[drawn_]
  result_type high_{0};  // x[drawn_ + 156]
  std::uint32_t drawn_{kUnstarted};
  std::unique_ptr<std::mt19937_64> full_;
};

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
  LazyMt19937_64 engine_;
};

}  // namespace dlte::sim
