#include "sim/random.h"

namespace dlte::sim {

namespace {
// FNV-1a over the component name, mixed with the master seed. Stable across
// platforms (unlike std::hash).
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

RngStream RngStream::derive(std::uint64_t master_seed,
                            std::string_view component) {
  return RngStream{splitmix64(master_seed ^ fnv1a(component))};
}

RngStream RngStream::derive(std::uint64_t master_seed,
                            std::string_view component, std::uint64_t index) {
  return RngStream{child_seed(master_seed, component, index)};
}

std::uint64_t RngStream::child_seed(std::uint64_t master_seed,
                                    std::string_view component,
                                    std::uint64_t index) {
  // Two splitmix rounds so (seed ^ name-hash) and the index mix through
  // independent avalanches — adjacent indices land far apart.
  return splitmix64(splitmix64(master_seed ^ fnv1a(component)) + index);
}

double RngStream::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

std::uint64_t RngStream::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  std::uniform_int_distribution<std::uint64_t> d(lo, hi);
  return d(engine_);
}

double RngStream::exponential(double mean) {
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

bool RngStream::bernoulli(double p) {
  std::bernoulli_distribution d(p);
  return d(engine_);
}

}  // namespace dlte::sim
