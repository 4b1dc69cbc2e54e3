// Generated inputs of the three workloads and the references their outputs
// are checked against. Everything here is a pure function of the seed (and,
// for the paced workload, of the run length), built before any timing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "packet/packet.hpp"

namespace perfbench {

enum class WorkloadKind { kStreamDelivery, kFlowstatsMc, kNidsPaced };

/// Cheap, chunking-independent digest of a byte stream: two multiply-add
/// lanes over 16-byte blocks, with a carry buffer so any split of the
/// stream into pieces gives the same value.
class Digest {
 public:
  void update(std::span<const std::uint8_t> data);
  std::uint64_t value() const;
  std::uint64_t length() const { return len_; }

 private:
  void block(const std::uint8_t* p);

  std::uint64_t a_ = 0x243f6a8885a308d3ULL;
  std::uint64_t b_ = 0x13198a2e03707344ULL;
  std::uint64_t len_ = 0;
  std::uint8_t buf_[16] = {};
  std::uint32_t nbuf_ = 0;
};

struct TupleHash {
  std::size_t operator()(const scap::FiveTuple& t) const {
    std::uint64_t x = (std::uint64_t{t.src_ip} << 32) ^ t.dst_ip;
    x ^= (std::uint64_t{t.src_port} << 24) ^ (std::uint64_t{t.dst_port} << 8) ^
         t.protocol;
    x *= 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(x ^ (x >> 32));
  }
};

/// What one directional stream key must deliver. Keys that recur (a tuple
/// reused by a later flow) fold by sum, on both sides of the check.
struct StreamExpect {
  std::uint64_t digest_sum = 0;
  std::uint64_t bytes = 0;
  std::uint64_t streams = 0;

  friend bool operator==(const StreamExpect&, const StreamExpect&) = default;
};

using StreamExpectMap =
    std::unordered_map<scap::FiveTuple, StreamExpect, TupleHash>;

struct Inputs {
  WorkloadKind kind = WorkloadKind::kStreamDelivery;
  std::uint64_t seed = 0;
  int workers = 0;        // Capture worker threads (0 = inline dispatch)
  double rate_pps = 0.0;  // open-loop rate; 0 = closed loop
  std::size_t batch = 32; // packets per inject_batch (upper bound if paced)

  std::vector<scap::Packet> packets;  // strictly increasing timestamps
  std::vector<std::int64_t> stamps;   // packets[i].timestamp().ns()
  int loops = 1;  // trace loops (campus workloads) or passes (flowstats)

  // stream_delivery: per directional stream, what must arrive.
  StreamExpectMap expect_streams;

  // nids_paced: the rule set and the matches a reference scan finds.
  std::vector<std::string> patterns;
  std::uint64_t expect_matches = 0;

  // flowstats_mc: flows [0, flows) own source addresses src_base + i; each
  // pass must export one record per flow with these counts.
  std::size_t flows = 0;
  std::uint32_t src_base = 0;
  std::uint64_t expect_flow_pkts = 0;
  std::uint64_t expect_flow_bytes = 0;
};

/// Build the workload's input. Only the paced workload sizes it by time:
/// one lifecycle of about `phase_seconds`, at most 5 s. Closed-loop
/// workloads repeat a fixed input.
Inputs make_inputs(WorkloadKind kind, std::uint64_t seed,
                   double phase_seconds);

}  // namespace perfbench
