// The traffic generator loop shared by the Capture runs and the traced
// layer replica: closed loop (next batch as soon as the previous call
// returns) or open loop (each batch takes the packets already due, up to the
// batch size, so the schedule and not the benchmark sets when a packet is
// offered).
#pragma once

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Every injected batch: first packet index and wall time around the call.
struct BatchLog {
  std::vector<std::size_t> first;
  std::vector<std::int64_t> start;
  std::vector<std::int64_t> end;
  std::int64_t t0 = 0;  // open loop: wall time the first packet was due

  std::size_t size() const { return first.size(); }
};

/// Generator lag of batch `b`: open loop, how late its first packet was
/// offered; closed loop, the gap the benchmark left since the previous
/// call returned.
inline std::int64_t batch_lag(const Inputs& in, const BatchLog& log,
                              std::size_t b) {
  if (in.rate_pps > 0) {
    return log.start[b] -
           due_open_loop(log.t0, in.stamps.front(), in.stamps[log.first[b]]);
  }
  return b == 0 ? 0 : log.start[b] - log.end[b - 1];
}

/// Due time of the packet with simulated timestamp `ts`: its schedule slot
/// (open loop) or the entry of the inject call that carried it (closed).
inline std::int64_t due_of(const Inputs& in, const BatchLog& log,
                           std::int64_t ts) {
  if (in.rate_pps > 0) return due_open_loop(log.t0, in.stamps.front(), ts);
  const std::size_t i = index_of_stamp(in.stamps, ts);
  if (i >= in.stamps.size()) return -1;
  return log.start[batch_of(log.first, i)];
}

/// Offer every packet of `in` through `inject(std::span<const Packet>)`.
/// `spans` (traced runs) gets one span named `span_name` per call.
template <typename InjectFn>
void drive(const Inputs& in, InjectFn&& inject, BatchLog& log,
           SpanLog* spans = nullptr, std::uint32_t span_name = 0,
           std::uint64_t (*alloc_now)() = nullptr) {
  const std::size_t n = in.packets.size();
  const std::span<const scap::Packet> all(in.packets);
  const std::size_t max_batches =
      in.rate_pps > 0 ? n : (n + in.batch - 1) / in.batch;
  log.first.clear();
  log.start.clear();
  log.end.clear();
  log.first.reserve(max_batches);
  log.start.reserve(max_batches);
  log.end.reserve(max_batches);
  auto one = [&](std::size_t i, std::size_t j, std::int64_t t) {
    const std::uint64_t b = log.first.size();
    log.first.push_back(i);
    log.start.push_back(t);
    if (spans != nullptr) spans->begin(span_name, b, alloc_now(), t);
    inject(all.subspan(i, j - i));
    const std::int64_t e = now_ns();
    if (spans != nullptr) spans->end(alloc_now(), e);
    log.end.push_back(e);
  };
  if (in.rate_pps <= 0) {
    for (std::size_t i = 0; i < n; i += in.batch) {
      one(i, std::min(n, i + in.batch), now_ns());
    }
    return;
  }
  const std::int64_t ts0 = in.stamps.front();
  log.t0 = now_ns() + 1'000'000;  // 1 ms head start for the first batch
  std::size_t i = 0;
  while (i < n) {
    std::int64_t t = now_ns();
    const std::int64_t due = due_open_loop(log.t0, ts0, in.stamps[i]);
    if (due > t) {
      // Sleep through long gaps, spin the last stretch: a sleeping
      // generator would add its wake-up delay to every sample.
      if (due - t > 200'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - t - 100'000));
      }
      while ((t = now_ns()) < due) {
      }
    }
    std::size_t j = i + 1;
    while (j < n && j - i < in.batch &&
           due_open_loop(log.t0, ts0, in.stamps[j]) <= t) {
      ++j;
    }
    one(i, j, t);
    i = j;
  }
}

}  // namespace perfbench
