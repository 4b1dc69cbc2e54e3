// Libnids-style user-level TCP reassembly (the paper's primary baseline).
//
// Behavioural model of Libnids 1.24:
//   - tracks only connections whose 3-way handshake it observed (a stream
//     whose SYN was lost in the capture ring is lost for good — the effect
//     behind Fig. 6c);
//   - static flow-table limit: when the table is full, new connections are
//     REJECTED rather than evicting old ones (the effect behind Fig. 5);
//   - emulates the Linux network stack, i.e. a fixed Linux overlap policy;
//   - copies every payload from the capture ring into per-stream buffers
//     (the extra memory copy of §6.3 — charged by the cost model).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "base/hash.hpp"
#include "baseline/engine.hpp"
#include "kernel/reassembly.hpp"

namespace scap::baseline {

struct NidsConfig {
  std::size_t max_flows = 1 << 20;  // ~1M: the paper's "internal limit"
  std::uint32_t chunk_size = 16 * 1024;
  std::int64_t cutoff_bytes = -1;   // Libnids has none; kept for symmetry
  Duration inactivity_timeout = Duration::from_sec(10);
  kernel::ReassemblyMode mode = kernel::ReassemblyMode::kTcpFast;
};

class NidsEngine : public Engine {
 public:
  NidsEngine(NidsConfig config, ChunkFn on_chunk);
  ~NidsEngine() override;

  void on_packet(const Packet& pkt, Timestamp now) override;
  void finish(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }

  std::size_t tracked_now() const { return flows_.size(); }

 protected:
  struct HalfStream {
    kernel::TcpReassembler reasm;
    bool delivered_any = false;
    std::uint64_t bytes = 0;
    explicit HalfStream(const kernel::StreamParams& params)
        : reasm(params, false) {}
  };
  struct Connection {
    FiveTuple client_tuple;  // direction of the initial SYN
    bool established = false;
    Timestamp last_seen;
    std::unique_ptr<HalfStream> client;  // client -> server data
    std::unique_ptr<HalfStream> server;
  };

  struct TupleHash {
    std::size_t operator()(const FiveTuple& t) const {
      std::uint64_t h = mix64(0x11b41d5ULL ^ t.src_ip);
      h = mix64(h ^ t.dst_ip);
      h = mix64(h ^ (static_cast<std::uint64_t>(t.src_port) << 32) ^
                (static_cast<std::uint64_t>(t.dst_port) << 16) ^ t.protocol);
      return h;
    }
  };

  /// Whether a packet with no tracked connection may create one.
  virtual bool may_create(const Packet& pkt) const {
    // Libnids: only a bare SYN opens a connection.
    return pkt.has_flag(kTcpSyn) && !pkt.has_flag(kTcpAck);
  }

  virtual kernel::StreamParams stream_params() const;

  /// Hand chunks_ to the chunk callback and clear it.
  void deliver(HalfStream& half, const FiveTuple& tuple);
  void expire_idle(Timestamp now);
  void close_connection(const FiveTuple& key, Connection& conn);

  NidsConfig config_;
  ChunkFn on_chunk_;
  EngineStats stats_;
  // Keyed by the canonical tuple (both directions map to one connection).
  std::unordered_map<FiveTuple, Connection, TupleHash> flows_;
  Timestamp last_expiry_scan_;
  // Chunks completed by the current reassembly call (reused).
  std::vector<kernel::Chunk> chunks_;
};

}  // namespace scap::baseline
