// Measurement helpers of the benchmark: wall clock, percentile selection,
// span recording with self time, and due-time latency arithmetic. Header
// only and free of scap dependencies so tests/helpers_test.cpp can check
// them in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles -------------------------------------------------------------

/// A percentile of the ladder p50, p90, p99, p99.9, p99.99, written as the
/// denominator of its tail share: 2 is p50, 100 is p99.
struct Percentile {
  std::uint64_t tail_denominator = 0;  // 0: no percentile is supported

  std::string label() const {
    switch (tail_denominator) {
      case 2: return "p50";
      case 10: return "p90";
      case 100: return "p99";
      case 1000: return "p99.9";
      case 10000: return "p99.99";
      default: return "none";
    }
  }
};

/// The highest ladder percentile with at least ten of `n` samples beyond
/// it: tail share n / d >= 10, i.e. n >= 10 d. Integer arithmetic, so
/// boundary counts such as n = 1000 for p99 are exact.
inline Percentile highest_supported_percentile(std::uint64_t n) {
  for (std::uint64_t d : {10000ULL, 1000ULL, 100ULL, 10ULL, 2ULL}) {
    if (n >= 10 * d) return Percentile{d};
  }
  return Percentile{};
}

/// Nearest-rank quantile (d - 1) / d of `sorted` (ascending, non-empty):
/// the smallest sample with at least that share of samples at or below it.
inline double nearest_rank(const std::vector<double>& sorted,
                           std::uint64_t tail_denominator) {
  const std::uint64_t n = sorted.size();
  const std::uint64_t d = tail_denominator;
  std::uint64_t rank = (n * (d - 1) + d - 1) / d;  // ceil(n (d-1) / d)
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// --- spans -------------------------------------------------------------------

/// One timed region at a layer boundary. Spans of one injected batch share
/// `batch`; `parent` is the index of the enclosing span in the same log, or
/// -1 when the region did not run inside another span of its thread.
struct Span {
  std::uint32_t name = 0;  // index into the owner's name table
  std::int32_t parent = -1;
  std::uint64_t batch = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t allocs = 0;  // heap allocations on this thread in the span
};

/// Self time of the interval [start, end): its length minus the part the
/// children cover. Children may nest, overlap each other or stick out of
/// the parent; only their union inside [start, end) is subtracted.
inline std::int64_t self_time(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t cur_s = 0;
  std::int64_t cur_e = 0;
  bool open = false;
  for (auto [s, e] : children) {
    s = std::max(s, start);
    e = std::min(e, end);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_s;
  return (end - start) - covered;
}

/// Per-thread, append-only span log. begin()/end() nest like a stack;
/// nothing is written out until the run ends.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }

  std::size_t begin(std::uint32_t name, std::uint64_t batch,
                    std::uint64_t allocs_now, std::int64_t t = now_ns()) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    s.batch = batch;
    s.start = t;
    s.allocs = allocs_now;
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void end(std::uint64_t allocs_now, std::int64_t t = now_ns()) {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end = t;
    s.allocs = allocs_now - s.allocs;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Per-name totals over one log: summed duration, summed self time
/// (children in the same log subtracted), span count and allocations net
/// of children.
struct SpanTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t count = 0;
  std::uint64_t self_allocs = 0;
};

inline std::vector<SpanTotals> totals_by_name(const std::vector<Span>& spans,
                                              std::size_t names) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  std::vector<std::uint64_t> kid_allocs(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    kids[p].emplace_back(s.start, s.end);
    kid_allocs[p] += s.allocs;
  }
  std::vector<SpanTotals> out(names);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = out[s.name];
    t.total_ns += s.end - s.start;
    t.self_ns += self_time(s.start, s.end, std::move(kids[i]));
    t.count += 1;
    t.self_allocs += s.allocs >= kid_allocs[i] ? s.allocs - kid_allocs[i] : 0;
  }
  return out;
}

// --- due-time latency --------------------------------------------------------

/// Open loop: packet timestamps are the schedule, played 1:1 from wall time
/// `t0` for the first packet (simulated `ts0`).
inline std::int64_t due_open_loop(std::int64_t t0, std::int64_t ts0,
                                  std::int64_t ts) {
  return t0 + (ts - ts0);
}

/// Index of the packet with timestamp `ts` in the strictly increasing
/// `stamps`, or stamps.size() when absent.
inline std::size_t index_of_stamp(const std::vector<std::int64_t>& stamps,
                                  std::int64_t ts) {
  const auto it = std::lower_bound(stamps.begin(), stamps.end(), ts);
  if (it == stamps.end() || *it != ts) return stamps.size();
  return static_cast<std::size_t>(it - stamps.begin());
}

/// Batch that carried packet `index`, given each batch's first packet index
/// (strictly increasing, first entry 0).
inline std::size_t batch_of(const std::vector<std::size_t>& batch_first,
                            std::size_t index) {
  const auto it =
      std::upper_bound(batch_first.begin(), batch_first.end(), index);
  return static_cast<std::size_t>(it - batch_first.begin()) - 1;
}

/// One delivered chunk's latency split at the layer boundaries it crossed:
/// generator lag (due -> inject_batch entry), the inject call itself, the
/// hand-off (inject_batch return -> callback entry; negative when the
/// callback ran inside the call) and the application's work. The parts sum
/// to total() exactly.
struct LatencyParts {
  std::int64_t lag = 0;
  std::int64_t inject = 0;
  std::int64_t handoff = 0;
  std::int64_t work = 0;

  std::int64_t total() const { return lag + inject + handoff + work; }
};

inline LatencyParts split_latency(std::int64_t due, std::int64_t inject_start,
                                  std::int64_t inject_end,
                                  std::int64_t callback_entry,
                                  std::int64_t work_end) {
  return LatencyParts{inject_start - due, inject_end - inject_start,
                      callback_entry - inject_end, work_end - callback_entry};
}

}  // namespace perfbench
