#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "base/rng.hpp"
#include "flowgen/replay.hpp"
#include "flowgen/workload.hpp"
#include "match/aho_corasick.hpp"
#include "match/corpus.hpp"
#include "packet/craft.hpp"

namespace perfbench {

using scap::FiveTuple;
using scap::Packet;
using scap::Timestamp;

namespace {

// stream_delivery: trace loops per Capture lifecycle (~0.9 M packets).
constexpr int kDeliveryLoops = 8;
// flowstats_mc: concurrent flows and open/close passes per lifecycle.
constexpr std::size_t kConcurrentFlows = 262144;
constexpr int kFlowPasses = 2;
constexpr std::uint32_t kFlowPayload = 16;
// nids_paced: offered rate and worker count.
constexpr double kPacedRate = 200000.0;
// Longer runs repeat lifecycles of at most this length rather than grow
// the input (about 70 MB of packets at this rate), so the medians over
// lifecycles have several samples.
constexpr double kPacedLifecycleSeconds = 5.0;
constexpr int kWorkers = 2;
constexpr std::size_t kCampusFlows = 2500;
constexpr std::size_t kPatterns = 2120;
constexpr std::uint64_t kElephantCap = 4ull << 20;

constexpr std::uint64_t kLaneMul0 = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kLaneMul1 = 0xc2b2ae3d27d4eb4fULL;

/// Loop `trace` as flowgen::Replayer does (per-loop address shift, 1 us
/// gap), at `rate_gbps`, then nudge ties apart by 1 ns so every timestamp
/// names exactly one packet (the latency lookup relies on it).
void loop_trace(const scap::flowgen::Trace& trace, double rate_gbps, int loops,
                Inputs& in) {
  scap::flowgen::Replayer replay(trace, rate_gbps, loops);
  in.packets.reserve(replay.total_packets());
  replay.for_each([&in](const Packet& p) { in.packets.push_back(p); });
}

void finish_stamps(Inputs& in) {
  in.stamps.resize(in.packets.size());
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < in.packets.size(); ++i) {
    std::int64_t ts = in.packets[i].timestamp().ns();
    if (i > 0 && ts <= prev) {
      ts = prev + 1;
      in.packets[i].set_timestamp(Timestamp(ts));
    }
    in.stamps[i] = ts;
    prev = ts;
  }
}

scap::flowgen::WorkloadConfig campus_config(std::uint64_t seed) {
  scap::flowgen::WorkloadConfig cfg;
  cfg.flows = kCampusFlows;
  cfg.seed = seed;
  // With the default 64 MiB cap one Pareto elephant can carry most of a
  // 2500-flow trace, so the packet mix, and with it every rate, would
  // depend on the seed more than on the program. A 4 MiB cap keeps the
  // heavy tail (alpha 1.2 above 200 KiB) but spreads it over ~100 flows.
  cfg.sizes.max_bytes = kElephantCap;
  return cfg;
}

void build_stream_delivery(Inputs& in) {
  const auto trace = scap::flowgen::build_trace(campus_config(in.seed));
  in.loops = kDeliveryLoops;
  loop_trace(trace, trace.natural_rate_gbps(), in.loops, in);
  finish_stamps(in);
  // Reference: each directional stream's payload, in packet order.
  std::unordered_map<FiveTuple, Digest, TupleHash> live;
  live.reserve(trace.flows.size() * 2 * static_cast<std::size_t>(in.loops));
  for (const Packet& p : in.packets) {
    if (p.payload_len() > 0) live[p.tuple()].update(p.payload());
  }
  for (const auto& [tuple, d] : live) {
    StreamExpect& e = in.expect_streams[tuple];
    e.digest_sum += d.value();
    e.bytes += d.length();
    e.streams += 1;
  }
}

void build_nids(Inputs& in, double phase_seconds) {
  in.workers = kWorkers;
  in.rate_pps = kPacedRate;
  in.patterns = scap::match::make_corpus({.pattern_count = kPatterns});
  auto cfg = campus_config(in.seed);
  cfg.patterns = in.patterns;
  cfg.plant_probability = 0.15;
  const auto trace = scap::flowgen::build_trace(cfg);
  // Rescale so the trace's mean packet rate is kPacedRate, and loop it to
  // fill one lifecycle: the schedule is the timestamps, played 1:1.
  const double pkts = static_cast<double>(trace.packets.size());
  const double loop_sec = pkts / kPacedRate;
  const double lifecycle_sec = std::min(phase_seconds, kPacedLifecycleSeconds);
  in.loops = std::max(1, static_cast<int>(std::lround(lifecycle_sec / loop_sec)));
  const double rate_gbps =
      trace.natural_rate_gbps() * trace.natural_duration_sec / loop_sec;
  loop_trace(trace, rate_gbps, in.loops, in);
  finish_stamps(in);
  // Reference: stream-carrying scan of loop 0; every loop repeats the same
  // payloads on shifted addresses, so it finds the same matches.
  const scap::match::AhoCorasick ac(in.patterns);
  std::unordered_map<FiveTuple, std::uint32_t, TupleHash> state;
  std::uint64_t matches = 0;
  for (const Packet& p : trace.packets) {
    if (p.payload_len() == 0) continue;
    auto [it, fresh] = state.try_emplace(p.tuple(), ac.root_state());
    matches += ac.scan_stream(it->second, p.payload());
  }
  in.expect_matches = matches * static_cast<std::uint64_t>(in.loops);
}

void build_flowstats(Inputs& in) {
  in.workers = kWorkers;
  in.flows = kConcurrentFlows;
  in.loops = kFlowPasses;
  scap::Rng rng(in.seed);
  // 2^18 distinct sources inside 10.0.0.0/8: a seeded /14 block.
  in.src_base = 0x0a000000u + (static_cast<std::uint32_t>(rng.bounded(64)) << 18);
  std::vector<FiveTuple> tuples(in.flows);
  std::vector<std::uint32_t> isn(in.flows);
  for (std::size_t i = 0; i < in.flows; ++i) {
    FiveTuple& t = tuples[i];
    t.src_ip = in.src_base + static_cast<std::uint32_t>(i);
    t.dst_ip = 0xc0a80000u + static_cast<std::uint32_t>(rng.bounded(4096));
    t.src_port = static_cast<std::uint16_t>(1024 + rng.bounded(60000));
    t.dst_port = rng.chance(0.5) ? 80 : 443;
    t.protocol = scap::kProtoTcp;
    isn[i] = rng.next_u32();
  }
  std::vector<std::size_t> order(in.flows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = in.flows - 1; i > 0; --i) {
    std::swap(order[i], order[rng.bounded(i + 1)]);
  }
  std::vector<std::uint8_t> payload(kFlowPayload);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u32());

  scap::TcpSegmentSpec syn;
  syn.tuple = tuples[0];
  syn.flags = scap::kTcpSyn;
  const Packet syn_t = scap::make_tcp_packet(syn, Timestamp(0));
  scap::TcpSegmentSpec data;
  data.tuple = tuples[0];
  data.flags = scap::kTcpAck | scap::kTcpPsh;
  data.payload = payload;
  const Packet data_t = scap::make_tcp_packet(data, Timestamp(0));
  scap::TcpSegmentSpec fin;
  fin.tuple = tuples[0];
  fin.flags = scap::kTcpFin | scap::kTcpAck;
  const Packet fin_t = scap::make_tcp_packet(fin, Timestamp(0));

  // Round-robin interleave: every flow's SYN, then its data packet, then
  // its FIN, so all flows are open at once. 1 us of simulated time per
  // packet; each pass starts 1 ms after the previous one ended.
  in.packets.reserve(in.flows * 3 * static_cast<std::size_t>(in.loops));
  std::int64_t ts = 1'000'000;
  for (int pass = 0; pass < in.loops; ++pass) {
    const auto shift = static_cast<std::uint32_t>(pass) * 100000u;
    for (std::size_t i : order) {
      in.packets.push_back(syn_t.with_flow(tuples[i], isn[i] + shift, Timestamp(ts)));
      ts += 1000;
    }
    for (std::size_t i : order) {
      in.packets.push_back(
          data_t.with_flow(tuples[i], isn[i] + shift + 1, Timestamp(ts)));
      ts += 1000;
    }
    for (std::size_t i : order) {
      in.packets.push_back(fin_t.with_flow(
          tuples[i], isn[i] + shift + 1 + kFlowPayload, Timestamp(ts)));
      ts += 1000;
    }
    ts += 1'000'000;
  }
  finish_stamps(in);
  in.expect_flow_pkts = 3;
  in.expect_flow_bytes = kFlowPayload;
}

}  // namespace

void Digest::block(const std::uint8_t* p) {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  std::memcpy(&w0, p, 8);
  std::memcpy(&w1, p + 8, 8);
  a_ = (a_ + w0) * kLaneMul0;
  b_ = (b_ + w1) * kLaneMul1;
}

void Digest::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  len_ += n;
  if (nbuf_ > 0) {
    const std::size_t take = std::min<std::size_t>(16 - nbuf_, n);
    std::memcpy(buf_ + nbuf_, p, take);
    nbuf_ += static_cast<std::uint32_t>(take);
    p += take;
    n -= take;
    if (nbuf_ < 16) return;
    block(buf_);
    nbuf_ = 0;
  }
  for (; n >= 16; p += 16, n -= 16) block(p);
  if (n > 0) {
    std::memcpy(buf_, p, n);
    nbuf_ = static_cast<std::uint32_t>(n);
  }
}

std::uint64_t Digest::value() const {
  std::uint8_t tail[16] = {};
  std::memcpy(tail, buf_, nbuf_);
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::memcpy(&t0, tail, 8);
  std::memcpy(&t1, tail + 8, 8);
  std::uint64_t x = (a_ + t0) * kLaneMul1 ^ (b_ + t1) * kLaneMul0 ^ len_;
  x ^= x >> 31;
  return x * kLaneMul0;
}

Inputs make_inputs(WorkloadKind kind, std::uint64_t seed,
                   double phase_seconds) {
  Inputs in;
  in.kind = kind;
  in.seed = seed;
  switch (kind) {
    case WorkloadKind::kStreamDelivery: build_stream_delivery(in); break;
    case WorkloadKind::kFlowstatsMc: build_flowstats(in); break;
    case WorkloadKind::kNidsPaced: build_nids(in, phase_seconds); break;
  }
  return in;
}

}  // namespace perfbench
