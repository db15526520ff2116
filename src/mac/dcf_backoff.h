// The DCF contention discipline, factored out of the 802.11 slot loop.
//
// Binary exponential backoff with a retry limit is the arbitration rule
// both of our listen-before-talk waveforms share: the 802.11 DCF
// (wifi_dcf.h) and the LAA-style LBT access policy a dLTE AP runs on an
// unlicensed channel (coex/shared_channel.h). Keeping the window/retry
// state machine in one class guarantees the two contend by identical
// rules, and taking the RngStream by reference keeps every draw on the
// caller's deterministic stream — coexistence runs derive one stream per
// transmitter via RngStream::derive(seed, component, index), so adding a
// station never perturbs another station's draws. Both walk the 802.11
// window ladder, phy::kCwMin to phy::kCwMax.
#pragma once

#include "phy/wifi_phy.h"
#include "sim/random.h"

namespace dlte::mac {

class DcfBackoff {
 public:
  DcfBackoff() = default;
  // Failures beyond `retry_limit` drop the frame.
  explicit DcfBackoff(int retry_limit) : retry_limit_(retry_limit) {}

  // Uniform draw in [0, cw] on the caller's stream.
  [[nodiscard]] int draw(sim::RngStream& rng) const {
    return static_cast<int>(rng.uniform_int(
        0, static_cast<std::uint64_t>(contention_window_)));
  }

  // Successful exchange: window and retry count reset.
  void note_success() {
    contention_window_ = phy::kCwMin;
    retries_ = 0;
  }

  // Failed exchange (collision or channel loss). Returns true when the
  // retry limit is exceeded — the frame must be dropped, and the window
  // resets for the next one; otherwise the window doubles.
  [[nodiscard]] bool note_failure() {
    ++retries_;
    if (retries_ > retry_limit_) {
      note_success();  // Same reset, applied to the successor frame.
      return true;
    }
    contention_window_ = contention_window_ * 2 + 1 <= phy::kCwMax
                             ? contention_window_ * 2 + 1
                             : phy::kCwMax;
    return false;
  }

  [[nodiscard]] int contention_window() const { return contention_window_; }

 private:
  int retry_limit_{7};
  int contention_window_{phy::kCwMin};
  int retries_{0};
};

}  // namespace dlte::mac
