// Simulated-time types.
//
// All of dLTE runs on simulated time: a signed 64-bit nanosecond count from
// the start of the simulation. Using a dedicated type (rather than
// std::chrono) keeps the event queue trivially comparable and makes
// accidental mixing with wall-clock time impossible.
#pragma once

#include <cstdint>

namespace dlte {

// A span of simulated time, nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration nanos(std::int64_t n) {
    return Duration{n};
  }
  [[nodiscard]] static constexpr Duration micros(std::int64_t u) {
    return Duration{u * 1000};
  }
  [[nodiscard]] static constexpr Duration millis(std::int64_t m) {
    return Duration{m * 1'000'000};
  }
  [[nodiscard]] static constexpr Duration seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9)};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_micros() const { return ns_ / 1e3; }
  [[nodiscard]] constexpr double to_millis() const { return ns_ / 1e6; }
  [[nodiscard]] constexpr double to_seconds() const { return ns_ / 1e9; }

  [[nodiscard]] constexpr bool is_zero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration{a.ns_ + b.ns_};
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration{a.ns_ - b.ns_};
  }
  friend constexpr Duration operator*(Duration a, double k) {
    return Duration{static_cast<std::int64_t>(static_cast<double>(a.ns_) * k)};
  }
  friend constexpr Duration operator*(double k, Duration a) { return a * k; }
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  friend constexpr Duration operator/(Duration a, std::int64_t k) {
    return Duration{a.ns_ / k};
  }
  constexpr Duration& operator+=(Duration other) {
    ns_ += other.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration other) {
    ns_ -= other.ns_;
    return *this;
  }
  friend constexpr auto operator<=>(Duration, Duration) = default;

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_{0};
};

// An absolute point on the simulated timeline.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint from_ns(std::int64_t n) {
    return TimePoint{n};
  }
  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return ns_ / 1e9; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ns_ + d.ns()};
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) {
    return t + d;
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.ns_ - d.ns()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::nanos(a.ns_ - b.ns_);
  }
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

 private:
  constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_{0};
};

}  // namespace dlte
