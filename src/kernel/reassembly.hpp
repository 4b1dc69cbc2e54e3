// Chunk building and TCP stream reassembly (paper §2.3, §5.2).
//
// The reassembler turns a directional sequence of TCP segments into
// contiguous stream chunks:
//   - SCAP_TCP_FAST: best-effort. Data is written as it arrives; holes from
//     lost segments are skipped and flagged (kErrHole) instead of stalling
//     the stream — the overload-resilient mode the paper evaluates with.
//   - SCAP_TCP_STRICT: in-order delivery following the robust-reassembly
//     guidelines. Out-of-order segments are buffered in a SegmentStore and
//     released when the hole before them fills; overlap resolution follows
//     the stream's target-based OverlapPolicy. A bounded buffer protects
//     against adversarial hole-floods: on overflow the engine degrades to
//     best-effort delivery and flags kErrBufferOverflow.
//
// Chunks carry optional per-packet records so the original packets can be
// re-delivered in capture order (paper §5.7).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "base/hotpath.hpp"
#include "kernel/segment_store.hpp"
#include "kernel/stream.hpp"

namespace scap::kernel {

/// A contiguous piece of reassembled stream data, ready for delivery.
struct Chunk {
  std::vector<std::uint8_t> data;
  /// Stream offset of data[0] — including any overlap prefix repeated from
  /// the previous chunk.
  std::uint64_t stream_offset = 0;
  /// Leading bytes repeated from the previous chunk (pattern continuity).
  std::uint32_t overlap_len = 0;
  /// StreamError bits raised while assembling this chunk.
  std::uint32_t errors = 0;
  /// Arrival time of the first segment that contributed new bytes — the
  /// start of the chunk-latency interval the tracer measures (DESIGN.md
  /// §10); delivery time minus first_ts is the paper's per-chunk latency.
  Timestamp first_ts;
  std::vector<PacketRecord> packets;
};

/// Spare chunk-payload buffers of one ScapKernel (DESIGN.md §7) — the
/// software counterpart of the paper's preallocated stream buffer (§5.2).
/// A chunk that outgrows a quarter of its chunk_size, or any chunk of a
/// stream that has already filled one, moves into a buffer of chunk_size
/// capacity taken from here; release_chunk hands delivered buffers back.
/// Unsynchronized: one pool per kernel, used from its serial domain only.
class ChunkBufferPool {
 public:
  /// At most this many spares are held; more are freed on give().
  static constexpr std::size_t kMaxSpares = 32;

  /// Buffers with less capacity than `min_capacity` (the kernel's default
  /// chunk_size) are never kept. Nothing is reserved up front.
  explicit ChunkBufferPool(std::uint32_t min_capacity)
      : min_capacity_(min_capacity) {}

  /// An empty buffer with capacity >= `capacity`: the latest spare when it
  /// is large enough, else a fresh reservation of exactly `capacity`.
  std::vector<std::uint8_t> take(std::uint32_t capacity);

  /// A new empty buffer of exactly `capacity` (take()'s fallback; also
  /// what a builder without a pool uses).
  static std::vector<std::uint8_t> fresh(std::uint32_t capacity);

  /// Keep `buf` for a later take() when it is large enough and the list
  /// has room; otherwise it is freed here.
  void give(std::vector<std::uint8_t> buf);

 private:
  std::uint32_t min_capacity_;
  std::size_t count_ = 0;
  std::array<std::vector<std::uint8_t>, kMaxSpares> spares_;
};

/// Per-packet metadata threaded through to PacketRecords.
struct SegmentMeta {
  Timestamp ts;
  std::uint32_t seq_raw = 0;
  std::uint8_t tcp_flags = 0;
  std::uint32_t wire_payload = 0;
};

/// Accumulates delivered bytes into fixed-size chunks with overlap carry.
///
/// Buffer rule (DESIGN.md §7): a chunk grows like any vector while it stays
/// under a quarter of chunk_size; the growth that would cross the quarter —
/// or the first growth of any chunk once the stream has filled one — moves
/// it into a chunk_size buffer from `buffers` (freshly reserved without a
/// pool), which it never outgrows. Small streams keep small buffers;
/// streams that have proven large start every chunk on a recycled one.
class ChunkBuilder {
 public:
  ChunkBuilder(std::uint32_t chunk_size, std::uint32_t overlap_size,
               bool record_packets, ChunkBufferPool* buffers = nullptr);

  /// Reconfigure for a fresh stream, dropping all buffered state. A
  /// chunk_size buffer goes back to the pool rather than staying pinned to
  /// a recycled record; the packet-record vector keeps its capacity.
  void reset(std::uint32_t chunk_size, std::uint32_t overlap_size,
             bool record_packets);

  /// Append delivered bytes; chunks that fill up are appended to
  /// `completed` (caller-owned and reused, never cleared here).
  void append(std::span<const std::uint8_t> data, const SegmentMeta& meta,
              std::uint64_t stream_off, std::vector<Chunk>& completed);

  /// Raise error bits on the chunk currently being built.
  void flag_error(std::uint32_t bits) { pending_errors_ |= bits; }

  /// Emit the current partial chunk (flush timeout, cutoff, termination).
  /// Returns nullopt when nothing is buffered.
  std::optional<Chunk> flush();

  /// Re-install a delivered chunk in front of future data
  /// (scap_keep_stream_chunk): the next completed chunk will contain it.
  void retain(Chunk&& kept);

  std::uint32_t buffered_len() const {
    return static_cast<std::uint32_t>(current_.data.size());
  }
  bool has_data() const { return !current_.data.empty() || retained_.has_value(); }
  std::uint32_t chunk_size() const { return chunk_size_; }
  void set_chunk_size(std::uint32_t s) { chunk_size_ = s ? s : 1; }
  void set_overlap_size(std::uint32_t s) { overlap_size_ = s; }

 private:
  Chunk take_current();
  void start_next(const Chunk& completed);
  /// Apply the buffer rule before the current chunk grows to `need` bytes.
  void make_room(std::size_t need);
  /// Hand a buffer to the pool; without a pool it stays with the caller.
  void recycle(std::vector<std::uint8_t>&& buf);

  // Scalars first, so buffers_ and filled_ fit where padding was: every
  // stream record carries a builder, so its size is paid per stream.
  std::uint32_t chunk_size_;
  std::uint32_t overlap_size_;
  std::uint32_t pending_errors_ = 0;
  bool record_packets_;
  bool current_started_ = false;
  /// The stream has completed at least one chunk (buffer rule).
  bool filled_ = false;
  ChunkBufferPool* buffers_;
  Chunk current_;
  std::optional<Chunk> retained_;
};

/// Stream offset of raw TCP sequence number `seq` in a stream whose offset
/// 0 is raw sequence `base` and whose next expected offset is `next_off`:
/// the signed 32-bit distance from the next expected byte, so the mapping
/// survives sequence wrap and streams past 4 GiB. Negative values lie
/// before offset 0.
inline std::int64_t signed_stream_offset(std::uint32_t base,
                                         std::uint64_t next_off,
                                         std::uint32_t seq) {
  const std::uint32_t expected_raw =
      base + static_cast<std::uint32_t>(next_off);
  const auto delta = static_cast<std::int32_t>(seq - expected_raw);
  return static_cast<std::int64_t>(next_off) + delta;
}

/// signed_stream_offset clamped at 0: the offset the kernel's cutoff and
/// PPL decisions use, for a stream with or without a reassembler (one
/// without has next_off 0 and, after a SYN, base ISN+1).
inline std::uint64_t stream_offset_of(std::uint32_t base,
                                      std::uint64_t next_off,
                                      std::uint32_t seq) {
  const std::int64_t off = signed_stream_offset(base, next_off, seq);
  return off < 0 ? 0 : static_cast<std::uint64_t>(off);
}

/// Default bound on a stream's out-of-order buffer (strict mode).
inline constexpr std::uint64_t kDefaultMaxOooBytes = 256 * 1024;

/// One direction of a TCP (or UDP) stream.
///
/// Chunks completed by a call are appended to the caller's `completed`
/// vector, which the caller clears and reuses (kernel scratch).
class TcpReassembler {
 public:
  TcpReassembler(const StreamParams& params, bool record_packets,
                 std::uint64_t max_ooo_bytes = kDefaultMaxOooBytes,
                 ChunkBufferPool* buffers = nullptr);

  /// Reinitialize for a fresh stream (ReassemblerPool recycling):
  /// equivalent to destroying and reconstructing, but reuses grown
  /// internal buffers so steady-state stream churn allocates nothing.
  void reset(const StreamParams& params, bool record_packets,
             std::uint64_t max_ooo_bytes = kDefaultMaxOooBytes);

  struct Result {
    std::uint64_t accepted_bytes = 0;  // written to a chunk or buffered
    std::uint64_t dup_bytes = 0;       // duplicate / overlap-losing bytes
    std::uint32_t errors = 0;          // error bits raised by this segment
    bool alloc_failed = false;         // segment lost to a failed allocation
  };

  /// Record the SYN's ISN: stream data starts at ISN+1.
  void on_syn(std::uint32_t isn);

  /// Process one data segment (TCP path).
  SCAP_HOT Result on_data(std::uint32_t seq,
                          std::span<const std::uint8_t> payload,
                          const SegmentMeta& meta,
                          std::vector<Chunk>& completed);

  /// Process sequenced-less data (UDP path): straight append.
  SCAP_HOT Result on_datagram(std::span<const std::uint8_t> payload,
                              const SegmentMeta& meta,
                              std::vector<Chunk>& completed);

  /// Flush buffered out-of-order data (strict mode) and the partial chunk.
  /// `error_bits` is OR-ed into the final chunk (e.g. at termination).
  /// May append multiple chunks when the out-of-order buffer held more
  /// than one chunk's worth of data.
  void flush(std::vector<Chunk>& completed, std::uint32_t error_bits = 0);

  /// Highest stream offset delivered or skipped so far — the stream "size"
  /// used for cutoff decisions.
  std::uint64_t stream_offset() const { return next_off_; }

  /// Stream offset a raw TCP sequence number maps to (for PPL / cutoff
  /// decisions before reassembly). Returns nullopt before any base is known.
  std::optional<std::uint64_t> offset_of(std::uint32_t seq) const;

  ChunkBuilder& builder() { return builder_; }
  std::uint64_t ooo_buffered() const { return ooo_.buffered_bytes(); }

 private:
  void deliver(std::span<const std::uint8_t> data, const SegmentMeta& meta,
               Result& result, std::vector<Chunk>& completed);
  void drain_ooo(const SegmentMeta& meta, std::vector<Chunk>& completed);
  void force_deliver_ooo(const SegmentMeta& meta, Result& result,
                         std::vector<Chunk>& completed);

  ReassemblyMode mode_;
  OverlapPolicy policy_;
  std::uint64_t max_ooo_bytes_;
  ChunkBuilder builder_;
  SegmentStore ooo_;
  bool have_base_ = false;
  std::uint32_t base_raw_ = 0;  // raw seq of stream offset 0
  std::uint64_t next_off_ = 0;  // next expected stream offset
};

/// Spare reassemblers of one ScapKernel (DESIGN.md §7). A stream takes one
/// only when it is about to store its first payload byte and gives it back
/// when it ends, so the number ever created is the peak number of streams
/// reassembling at once, whatever the traffic mix that reuses the record
/// slots. Unsynchronized: one pool per kernel, used from its serial domain
/// only.
class ReassemblerPool {
 public:
  /// Reassemblers created here build their chunks from `buffers`.
  explicit ReassemblerPool(ChunkBufferPool* buffers) : buffers_(buffers) {}

  /// A reassembler set up for a fresh stream with `params`: the latest
  /// spare after reset(), or a new one when no spare is held.
  std::unique_ptr<TcpReassembler> take(const StreamParams& params,
                                       bool record_packets);

  /// Keep a finished stream's reassembler for a later take(). Never
  /// allocates; nullptr is ignored.
  void give(std::unique_ptr<TcpReassembler> reasm);

  /// Reassemblers this pool has created (live and spare).
  std::size_t created() const { return spares_.size(); }
  /// Reassemblers held as spares right now.
  std::size_t spares() const { return count_; }

 private:
  std::unique_ptr<TcpReassembler> create(const StreamParams& params,
                                         bool record_packets);

  ChunkBufferPool* buffers_;
  /// One slot per reassembler ever created, so give() is an index
  /// assignment; [0, count_) hold the spares.
  std::vector<std::unique_ptr<TcpReassembler>> spares_;
  std::size_t count_ = 0;
};

}  // namespace scap::kernel
