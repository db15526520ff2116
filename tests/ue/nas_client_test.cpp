// Client-side NAS state machine edge cases.
#include "ue/nas_client.h"

#include <gtest/gtest.h>

namespace dlte::ue {
namespace {

SimProfile profile() {
  crypto::Key128 k{};
  k[0] = 0x46;
  crypto::Block128 op{};
  op[0] = 0xcd;
  return SimProfile{Imsi{77}, k, crypto::derive_opc(k, op), true, "p"};
}

TEST(NasClient, StartAttachEmitsRequest) {
  NasClient c{Usim{profile()}, "net"};
  EXPECT_EQ(c.state(), NasClientState::kIdle);
  const auto msg = c.start_attach();
  ASSERT_TRUE(std::holds_alternative<lte::AttachRequest>(msg));
  EXPECT_EQ(std::get<lte::AttachRequest>(msg).imsi, Imsi{77});
  EXPECT_EQ(c.state(), NasClientState::kAwaitingAuth);
}

TEST(NasClient, IgnoresMessagesInWrongState) {
  NasClient c{Usim{profile()}, "net"};
  // Accept before any attach: ignored.
  EXPECT_FALSE(c.handle(lte::NasMessage{lte::AttachAccept{}}).has_value());
  EXPECT_EQ(c.state(), NasClientState::kIdle);

  (void)c.start_attach();
  // SecurityModeCommand while awaiting auth: ignored.
  EXPECT_FALSE(
      c.handle(lte::NasMessage{lte::SecurityModeCommand{}}).has_value());
  EXPECT_EQ(c.state(), NasClientState::kAwaitingAuth);
}

TEST(NasClient, RejectDuringAuthTerminates) {
  NasClient c{Usim{profile()}, "net"};
  (void)c.start_attach();
  EXPECT_FALSE(c.handle(lte::NasMessage{lte::AttachReject{15}}).has_value());
  EXPECT_EQ(c.state(), NasClientState::kRejected);
  // Further messages do nothing.
  EXPECT_FALSE(
      c.handle(lte::NasMessage{lte::AuthenticationRequest{}}).has_value());
}

TEST(NasClient, ForgedAuthRequestRejected) {
  NasClient c{Usim{profile()}, "net"};
  (void)c.start_attach();
  // All-zero AUTN cannot carry a valid MAC-A for this K.
  const auto reply =
      c.handle(lte::NasMessage{lte::AuthenticationRequest{}});
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(c.state(), NasClientState::kRejected);
}

TEST(AttachRetryPolicy, BackoffGrowsExponentiallyAndClamps) {
  AttachRetryPolicy p;
  p.initial_backoff = Duration::millis(500);
  p.multiplier = 2.0;
  p.max_backoff = Duration::seconds(8.0);
  p.jitter = 0.0;  // Deterministic midpoint for this test.
  sim::RngStream rng{1};
  EXPECT_DOUBLE_EQ(p.backoff(1, rng).to_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(p.backoff(2, rng).to_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(p.backoff(3, rng).to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff(4, rng).to_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(p.backoff(5, rng).to_seconds(), 8.0);
  // Clamped at max_backoff from here on.
  EXPECT_DOUBLE_EQ(p.backoff(9, rng).to_seconds(), 8.0);
}

TEST(AttachRetryPolicy, JitterStaysInsideBandAndIsSeedDeterministic) {
  AttachRetryPolicy p;
  p.jitter = 0.2;
  sim::RngStream a{99};
  sim::RngStream b{99};
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const auto wa = p.backoff(attempt, a);
    const auto wb = p.backoff(attempt, b);
    EXPECT_EQ(wa.ns(), wb.ns());  // Same stream, same schedule.
    sim::RngStream probe{7};
    const double base =
        AttachRetryPolicy{p.initial_backoff, p.multiplier, p.max_backoff,
                          0.0, p.max_attempts}
            .backoff(attempt, probe)
            .to_seconds();
    EXPECT_GE(wa.to_seconds(), base * 0.8 - 1e-9);
    EXPECT_LE(wa.to_seconds(), base * 1.2 + 1e-9);
  }
}

}  // namespace
}  // namespace dlte::ue
