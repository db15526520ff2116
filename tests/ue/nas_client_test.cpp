// Client-side NAS state machine edge cases.
#include "ue/nas_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

// The un-jittered wait before retry `attempt`: 0.5 s doubling, 8 s cap.
double base_backoff_s(int attempt) {
  return std::min(0.5 * std::pow(2.0, attempt - 1), 8.0);
}

TEST(AttachRetryPolicy, BackoffGrowsExponentiallyAndClamps) {
  // ±20 % jitter keeps consecutive doublings apart (0.6 < 0.8, …), so
  // each wait lands in its own band until the cap.
  sim::RngStream rng{1};
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double w = attach_backoff(attempt, rng).to_seconds();
    EXPECT_GE(w, 0.8 * base_backoff_s(attempt) - 1e-9) << attempt;
    EXPECT_LE(w, 1.2 * base_backoff_s(attempt) + 1e-9) << attempt;
    if (attempt > 1) {
      EXPECT_GT(w, 1.2 * base_backoff_s(attempt - 1)) << attempt;
    }
  }
  // Clamped at 8 s from here on.
  for (int attempt = 6; attempt <= kMaxAttachAttempts + 2; ++attempt) {
    const double w = attach_backoff(attempt, rng).to_seconds();
    EXPECT_GE(w, 8.0 * 0.8 - 1e-9) << attempt;
    EXPECT_LE(w, 8.0 * 1.2 + 1e-9) << attempt;
  }
}

TEST(AttachRetryPolicy, JitterStaysInsideBandAndIsSeedDeterministic) {
  sim::RngStream a{99};
  sim::RngStream b{99};
  sim::RngStream other{100};
  bool differs = false;
  for (int attempt = 1; attempt <= kMaxAttachAttempts; ++attempt) {
    const auto wa = attach_backoff(attempt, a);
    const auto wb = attach_backoff(attempt, b);
    EXPECT_EQ(wa.ns(), wb.ns());  // Same stream, same schedule.
    differs |= attach_backoff(attempt, other).ns() != wa.ns();
    const double base = base_backoff_s(attempt);
    EXPECT_GE(wa.to_seconds(), base * 0.8 - 1e-9);
    EXPECT_LE(wa.to_seconds(), base * 1.2 + 1e-9);
  }
  EXPECT_TRUE(differs);  // Another stream, another schedule.
}

}  // namespace
}  // namespace dlte::ue
