#include "base/clock.hpp"

namespace scap {

HostDeadline::HostDeadline(std::chrono::nanoseconds budget)
    : end_(std::chrono::steady_clock::now() + budget) {}

bool HostDeadline::expired() const {
  return std::chrono::steady_clock::now() >= end_;
}

}  // namespace scap
