// Virtual time for the simulation substrate.
//
// All timestamps in the capture pipeline are virtual: they advance with the
// generated traffic (a packet occupies len*8/rate seconds on the wire), not
// with the host's wall clock, so every experiment is deterministic and
// independent of the machine it runs on.
#pragma once

#include <chrono>
#include <cstdint>
#include <compare>

namespace scap {

/// A point in virtual time, in nanoseconds since the start of the experiment.
class Timestamp {
 public:
  constexpr Timestamp() = default;
  constexpr explicit Timestamp(std::int64_t ns) : ns_(ns) {}

  static constexpr Timestamp from_sec(double sec) {
    return Timestamp(static_cast<std::int64_t>(sec * 1e9));
  }
  static constexpr Timestamp from_usec(std::int64_t us) {
    return Timestamp(us * 1000);
  }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr std::int64_t usec() const { return ns_ / 1000; }
  constexpr double sec() const { return static_cast<double>(ns_) * 1e-9; }

  friend constexpr auto operator<=>(Timestamp, Timestamp) = default;

 private:
  std::int64_t ns_ = 0;
};

/// A span of virtual time.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}

  static constexpr Duration from_sec(double sec) {
    return Duration(static_cast<std::int64_t>(sec * 1e9));
  }
  static constexpr Duration from_msec(std::int64_t ms) {
    return Duration(ms * 1'000'000);
  }
  static constexpr Duration from_usec(std::int64_t us) {
    return Duration(us * 1000);
  }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double sec() const { return static_cast<double>(ns_) * 1e-9; }

  friend constexpr auto operator<=>(Duration, Duration) = default;

 private:
  std::int64_t ns_ = 0;
};

constexpr Timestamp operator+(Timestamp t, Duration d) {
  return Timestamp(t.ns() + d.ns());
}
constexpr Timestamp operator-(Timestamp t, Duration d) {
  return Timestamp(t.ns() - d.ns());
}
constexpr Duration operator-(Timestamp a, Timestamp b) {
  return Duration(a.ns() - b.ns());
}
constexpr Duration operator+(Duration a, Duration b) {
  return Duration(a.ns() + b.ns());
}
constexpr Duration operator*(Duration d, std::int64_t k) {
  return Duration(d.ns() * k);
}

/// Monotonic virtual clock owned by the simulation engine. Components that
/// need "now" (inactivity expiry, flush timeouts, FDIR filter timeouts) hold a
/// pointer to the engine's clock.
class VirtualClock {
 public:
  Timestamp now() const { return now_; }

  /// Advance to `t`; time never moves backwards.
  void advance_to(Timestamp t) {
    if (t > now_) now_ = t;
  }
  void advance(Duration d) { now_ = now_ + d; }
  void reset() { now_ = Timestamp(); }

 private:
  Timestamp now_;
};

/// A deadline on the host's monotonic clock — the one wall-clock read in
/// the tree. It bounds how long a producer waits for a worker to show
/// progress (KernelShards' liveness wait, DESIGN.md §13) and feeds nothing
/// else: no timestamp, counter or verdict is ever derived from it.
class HostDeadline {
 public:
  /// Expires `budget` of host time from now.
  explicit HostDeadline(std::chrono::nanoseconds budget);
  bool expired() const;

 private:
  std::chrono::steady_clock::time_point end_;
};

}  // namespace scap
