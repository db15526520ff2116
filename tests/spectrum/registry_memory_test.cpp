// The registrar's memory contract: a lease costs a small row, not a copy
// of its request's terms. A federated registry with a lease lifetime and
// a lease cache attached takes 64 grant batches of 1,024 leases, one per
// block, as a churn storm's blocks apply; the heap bytes it then holds
// per live lease must stay under a budget. This binary replaces the
// global operator new to count live bytes, so it holds this test alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "registry/cache.h"
#include "sim/simulator.h"
#include "spectrum/registry.h"

namespace {
std::atomic<long> g_live_bytes{0};
// Each block carries its size in a header, so delete can subtract it; 16
// bytes keep the payload as aligned as malloc's.
constexpr std::size_t kHeader = 16;
}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc{};
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<long>(size), std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}
// Out of line: inlined into gtest's `new TestClass`, the free() reads to
// GCC as a mismatch with operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<long>(*static_cast<std::size_t*>(block)),
                         std::memory_order_relaxed);
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}

namespace dlte::spectrum {
namespace {

static_assert(sizeof(LeaseRow) <= 40, "a lease row stays at 40 bytes");

constexpr int kBlocks = 64;
constexpr std::uint32_t kLeasesPerBlock = 1'024;

TEST(RegistryMemory, BytesPerLeaseStayUnderBudget) {
  const long before = g_live_bytes.load();
  long held = 0;
  std::size_t leases = 0;
  {
    sim::Simulator sim;
    registry::LeaseCache cache;
    Registry reg{sim, RegistryKind::kFederated};
    reg.attach_cache(&cache);
    reg.set_grant_lifetime(Duration::seconds(60.0));
    const long built = g_live_bytes.load();
    // Blocks on an 8 x 8 grid 20 km apart (a few 50 km zones), each with
    // its own contact, as the churn storm's blocks apply.
    std::vector<Position> sites;
    std::size_t answered = 0;
    for (int block = 0; block < kBlocks; ++block) {
      GrantRequest req;
      req.ap = ApId{static_cast<std::uint32_t>(block + 1)};
      req.location = Position{(block % 8) * 20'000.0, (block / 8) * 20'000.0};
      req.center_frequency = Hertz::mhz(3'560.0);
      req.bandwidth = Hertz::mhz(10.0);
      req.operator_contact = "block-" + std::to_string(block + 1) + "@dlte";
      sites.push_back(req.location);
      reg.request_grants(
          std::move(req), kLeasesPerBlock,
          [&answered](Result<std::vector<std::uint64_t>> granted) {
            ASSERT_TRUE(granted.ok());
            ++answered;
          });
    }
    sim.run_until(TimePoint{} + Duration::seconds(1.0));
    ASSERT_EQ(answered, static_cast<std::size_t>(kBlocks));
    // Each block then asks for its zone's occupancy through the cache.
    for (int block = 0; block < kBlocks; ++block) {
      (void)reg.zone_occupancy(static_cast<std::uint64_t>(block + 1),
                               sites[static_cast<std::size_t>(block)]);
    }
    leases = reg.grant_count();
    held = g_live_bytes.load() - built;
  }
  EXPECT_EQ(g_live_bytes.load(), before);  // The registry gave it all back.
  ASSERT_EQ(leases, std::size_t{kBlocks} * kLeasesPerBlock);

  const double per_lease =
      static_cast<double>(held) / static_cast<double>(leases);
  std::printf("held %ld B for %zu leases: %.1f B per lease\n", held, leases,
              per_lease);
  // A 40-byte row, its 8-byte expiry-list link, a 32-byte index entry,
  // 8 B of id table (4 B per id, doubled) and the cache's snapshot ids:
  // 116.5 B per lease. A full 112-byte SpectrumGrant per lease held 188.3.
  EXPECT_LE(per_lease, 150.0);
}

}  // namespace
}  // namespace dlte::spectrum
