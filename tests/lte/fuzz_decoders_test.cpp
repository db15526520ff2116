// Decoder fuzzing: every wire decoder in the system is fed random bytes
// and mutated valid frames. The property under test is total safety —
// decode either succeeds or returns an error; it never crashes, loops,
// or reads out of bounds (run under sanitizers to enforce the latter).
#include <gtest/gtest.h>

#include "epc/gtp_plane.h"
#include "lte/gtp.h"
#include "lte/nas.h"
#include "lte/s1ap.h"
#include "lte/x2ap.h"
#include "sim/random.h"
#include "transport/transport.h"

namespace dlte {
namespace {

std::vector<std::uint8_t> random_bytes(sim::RngStream& rng,
                                       std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.uniform_int(0, max_len));
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return out;
}

template <typename Decoder>
void fuzz(Decoder&& decode, std::uint64_t seed, int iterations = 3000) {
  sim::RngStream rng{seed};
  for (int i = 0; i < iterations; ++i) {
    const auto bytes = random_bytes(rng, 64);
    auto result = decode(bytes);
    (void)result;  // ok or error — both fine; crash is the failure.
  }
}

TEST(FuzzDecoders, Nas) {
  fuzz([](const auto& b) { return lte::decode_nas(b).ok(); }, 1);
}

TEST(FuzzDecoders, S1ap) {
  fuzz([](const auto& b) { return lte::decode_s1ap(b).ok(); }, 2);
}

TEST(FuzzDecoders, X2ap) {
  fuzz([](const auto& b) { return lte::decode_x2(b).ok(); }, 3);
}

TEST(FuzzDecoders, GtpU) {
  fuzz([](const auto& b) { return lte::decode_gtpu(b).ok(); }, 4);
}

TEST(FuzzDecoders, TransportSegment) {
  fuzz([](const auto& b) {
    return transport::decode_segment(b).has_value();
  }, 11);
}

TEST(FuzzDecoders, GtpPlaneInner) {
  fuzz([](const auto& b) { return epc::decode_inner(b).ok(); }, 12);
}

// Mutation fuzzing: start from a valid frame, flip random bytes; decode
// must stay total AND any successful decode must re-encode without
// crashing (no "parsed garbage poisons the encoder" states).
TEST(FuzzDecoders, MutatedX2FramesStayTotal) {
  sim::RngStream rng{77};
  const auto base = lte::encode_x2(lte::X2Message{lte::DltePeerStatus{
      ApId{3}, lte::DlteMode::kCooperative, 0.5, 0.7, 12}});
  for (int i = 0; i < 3000; ++i) {
    auto mutated = base;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform_int(0, mutated.size() - 1)] ^=
          static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    auto decoded = lte::decode_x2(mutated);
    if (decoded.ok()) {
      auto reencoded = lte::encode_x2(*decoded);
      EXPECT_FALSE(reencoded.empty());
    }
  }
}

TEST(FuzzDecoders, MutatedNasFramesStayTotal) {
  sim::RngStream rng{78};
  const auto base = lte::encode_nas(lte::NasMessage{lte::AttachAccept{
      Tmsi{7}, 0x0a2d0001, BearerId{5}}});
  for (int i = 0; i < 3000; ++i) {
    auto mutated = base;
    mutated[rng.uniform_int(0, mutated.size() - 1)] ^=
        static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    auto decoded = lte::decode_nas(mutated);
    if (decoded.ok()) {
      EXPECT_FALSE(lte::encode_nas(*decoded).empty());
    }
  }
}

}  // namespace
}  // namespace dlte
