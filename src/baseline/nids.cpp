#include "baseline/nids.hpp"

namespace scap::baseline {

NidsEngine::NidsEngine(NidsConfig config, ChunkFn on_chunk)
    : config_(config), on_chunk_(std::move(on_chunk)) {}

NidsEngine::~NidsEngine() = default;

kernel::StreamParams NidsEngine::stream_params() const {
  kernel::StreamParams p;
  p.chunk_size = config_.chunk_size;
  p.mode = config_.mode;
  p.policy = kernel::OverlapPolicy::kLinux;  // Libnids emulates Linux
  p.inactivity_timeout = config_.inactivity_timeout;
  return p;
}

void NidsEngine::deliver(HalfStream& half, const FiveTuple& tuple) {
  for (const auto& chunk : chunks_) {
    stats_.bytes_delivered += chunk.data.size();
    if (!half.delivered_any && !chunk.data.empty()) {
      half.delivered_any = true;
      ++stats_.streams_with_data;
    }
    if (on_chunk_) {
      on_chunk_(tuple, std::span<const std::uint8_t>(chunk.data));
    }
  }
  chunks_.clear();
}

void NidsEngine::close_connection(const FiveTuple& key, Connection& conn) {
  for (auto* half : {conn.client.get(), conn.server.get()}) {
    if (half == nullptr) continue;
    const FiveTuple tuple =
        half == conn.client.get() ? conn.client_tuple
                                  : conn.client_tuple.reversed();
    half->reasm.flush(chunks_);
    deliver(*half, tuple);
  }
  flows_.erase(key);
}

void NidsEngine::expire_idle(Timestamp now) {
  // User-level libraries scan their whole table periodically.
  if (now - last_expiry_scan_ < Duration::from_sec(1)) return;
  last_expiry_scan_ = now;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second.last_seen >= config_.inactivity_timeout) {
      FiveTuple key = it->first;
      ++it;
      auto found = flows_.find(key);
      if (found != flows_.end()) close_connection(key, found->second);
    } else {
      ++it;
    }
  }
}

void NidsEngine::on_packet(const Packet& pkt, Timestamp now) {
  ++stats_.pkts_processed;
  expire_idle(now);
  if (!pkt.valid() || !pkt.is_tcp()) return;

  const FiveTuple canon = pkt.tuple().canonical();
  auto it = flows_.find(canon);
  if (it == flows_.end()) {
    if (!may_create(pkt)) {
      // Mid-flow packet for an untracked connection: Libnids ignores it.
      if (pkt.payload_len() > 0) ++stats_.pkts_untracked;
      return;
    }
    if (flows_.size() >= config_.max_flows) {
      ++stats_.streams_rejected;
      return;
    }
    Connection conn;
    conn.client_tuple = pkt.tuple();
    conn.last_seen = now;
    it = flows_.emplace(canon, std::move(conn)).first;
    ++stats_.streams_tracked;
  }
  Connection& conn = it->second;
  conn.last_seen = now;

  const bool is_client = pkt.tuple() == conn.client_tuple;
  auto& half_ptr = is_client ? conn.client : conn.server;
  if (half_ptr == nullptr) {
    half_ptr = std::make_unique<HalfStream>(stream_params());
  }

  if (pkt.has_flag(kTcpSyn)) {
    half_ptr->reasm.on_syn(pkt.seq());
    if (pkt.has_flag(kTcpAck)) conn.established = true;
    return;
  }

  if (pkt.payload_len() > 0) {
    stats_.payload_bytes += pkt.payload_len();
    stats_.copy_bytes += pkt.payload_len();  // ring -> stream buffer copy
    if (config_.cutoff_bytes >= 0 &&
        half_ptr->bytes >= static_cast<std::uint64_t>(config_.cutoff_bytes)) {
      ++stats_.pkts_discarded_cutoff;
    } else {
      kernel::SegmentMeta meta;
      meta.ts = now;
      meta.seq_raw = pkt.seq();
      meta.tcp_flags = pkt.tcp_flags();
      meta.wire_payload = pkt.wire_payload_len();
      const auto result =
          half_ptr->reasm.on_data(pkt.seq(), pkt.payload(), meta, chunks_);
      half_ptr->bytes += result.accepted_bytes;
      deliver(*half_ptr, pkt.tuple());
    }
  }

  if (pkt.has_flag(kTcpFin) || pkt.has_flag(kTcpRst)) {
    close_connection(canon, conn);
  }
}

void NidsEngine::finish(Timestamp now) {
  (void)now;
  while (!flows_.empty()) {
    auto it = flows_.begin();
    FiveTuple key = it->first;
    close_connection(key, it->second);
  }
}

}  // namespace scap::baseline
