#include "kernel/reassembly.hpp"

#include <algorithm>
#include <cstring>

namespace scap::kernel {

// --- ChunkBufferPool --------------------------------------------------------

std::vector<std::uint8_t> ChunkBufferPool::take(std::uint32_t capacity) {
  if (count_ > 0 && spares_[count_ - 1].capacity() >= capacity) {
    return std::move(spares_[--count_]);
  }
  return fresh(capacity);
}

std::vector<std::uint8_t> ChunkBufferPool::fresh(std::uint32_t capacity) {
  std::vector<std::uint8_t> buf;
  // scap-lint: allow(hot-alloc) THE chunk-payload buffer: one chunk_size reservation per chunk only while the spare list is empty; release_chunk returns delivered buffers, so a warm stream reuses them (DESIGN.md §7, §14 inventory)
  buf.reserve(capacity);
  return buf;
}

void ChunkBufferPool::give(std::vector<std::uint8_t> buf) {
  if (buf.capacity() < min_capacity_ || count_ == kMaxSpares) return;
  buf.clear();
  spares_[count_++] = std::move(buf);
}

// --- ChunkBuilder -----------------------------------------------------------

ChunkBuilder::ChunkBuilder(std::uint32_t chunk_size, std::uint32_t overlap_size,
                           bool record_packets, ChunkBufferPool* buffers)
    : chunk_size_(chunk_size ? chunk_size : 1),
      overlap_size_(overlap_size),
      record_packets_(record_packets),
      buffers_(buffers) {}

void ChunkBuilder::reset(std::uint32_t chunk_size, std::uint32_t overlap_size,
                         bool record_packets) {
  chunk_size_ = chunk_size ? chunk_size : 1;
  overlap_size_ = overlap_size;
  record_packets_ = record_packets;
  recycle(std::move(current_.data));
  // clear() keeps the capacity a pool-less builder and the record vector
  // had, for the next stream.
  current_.data.clear();
  current_.packets.clear();
  current_.stream_offset = 0;
  current_.overlap_len = 0;
  current_.errors = 0;
  current_.first_ts = Timestamp();
  current_started_ = false;
  filled_ = false;
  pending_errors_ = 0;
  retained_.reset();
}

void ChunkBuilder::recycle(std::vector<std::uint8_t>&& buf) {
  if (buffers_ != nullptr) buffers_->give(std::move(buf));
}

void ChunkBuilder::make_room(std::size_t need) {
  if (need <= current_.data.capacity()) return;
  if (!filled_ && need <= chunk_size_ / 4) return;  // small: vector growth
  std::vector<std::uint8_t> buf = buffers_ != nullptr
                                      ? buffers_->take(chunk_size_)
                                      : ChunkBufferPool::fresh(chunk_size_);
  // scap-lint: allow(hot-alloc) moves the sub-quarter prefix into the chunk_size buffer reserved above; never reallocates
  buf.insert(buf.end(), current_.data.begin(), current_.data.end());
  current_.data.swap(buf);
}

Chunk ChunkBuilder::take_current() {
  Chunk out = std::move(current_);
  out.errors |= pending_errors_;
  pending_errors_ = 0;
  current_ = Chunk{};
  current_started_ = false;
  if (retained_) {
    // A kept chunk is delivered together with the one that just completed.
    Chunk merged = std::move(*retained_);
    retained_.reset();
    merged.errors |= out.errors;
    // scap-lint: allow(hot-alloc) kept-chunk merge (scap_keep_stream_chunk) copies into the retained buffer; ROADMAP item 2 worklist (DESIGN.md §14 inventory)
    merged.data.insert(merged.data.end(), out.data.begin(), out.data.end());
    const std::uint32_t shift =
        static_cast<std::uint32_t>(merged.data.size() - out.data.size());
    for (auto& rec : out.packets) {
      rec.chunk_offset += shift;
      // scap-lint: allow(hot-alloc) per-packet records of a kept chunk, only when need_pkts is on (DESIGN.md §14 inventory)
      merged.packets.push_back(rec);
    }
    recycle(std::move(out.data));
    return merged;
  }
  return out;
}

void ChunkBuilder::start_next(const Chunk& completed) {
  // Seed the next chunk with the overlap tail of the completed one.
  if (overlap_size_ == 0 || completed.data.empty()) return;
  const std::uint32_t tail =
      std::min<std::uint32_t>(overlap_size_,
                              static_cast<std::uint32_t>(completed.data.size()));
  make_room(tail);
  // scap-lint: allow(hot-alloc) overlap carry into the next chunk's buffer; make_room just gave it chunk_size capacity (DESIGN.md §14 inventory)
  current_.data.assign(completed.data.end() - tail, completed.data.end());
  current_.overlap_len = tail;
  current_.stream_offset =
      completed.stream_offset + completed.data.size() - tail;
  current_started_ = true;
}

void ChunkBuilder::append(std::span<const std::uint8_t> data,
                          const SegmentMeta& meta, std::uint64_t stream_off,
                          std::vector<Chunk>& completed) {
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    if (!current_started_) {
      current_.stream_offset = stream_off + consumed;
      current_.first_ts = meta.ts;
      current_started_ = true;
    } else if (current_.first_ts.ns() == 0) {
      // Overlap-seeded chunks start with repeated bytes; the latency clock
      // starts with the first segment that contributes new data.
      current_.first_ts = meta.ts;
    }
    const std::uint32_t room =
        chunk_size_ > current_.data.size()
            ? chunk_size_ - static_cast<std::uint32_t>(current_.data.size())
            : 0;
    const std::size_t take = std::min<std::size_t>(room, data.size() - consumed);
    if (take > 0) {
      if (record_packets_) {
        PacketRecord rec;
        rec.ts = meta.ts;
        rec.chunk_offset = static_cast<std::uint32_t>(current_.data.size());
        rec.caplen = static_cast<std::uint32_t>(take);
        rec.wirelen = meta.wire_payload;
        rec.seq = meta.seq_raw + static_cast<std::uint32_t>(consumed);
        rec.tcp_flags = meta.tcp_flags;
        // scap-lint: allow(hot-alloc) per-packet record append (need_pkts); capacity retained across chunks, ROADMAP item 2 worklist (DESIGN.md §14 inventory)
        current_.packets.push_back(rec);
      }
      make_room(current_.data.size() + take);
      // scap-lint: allow(hot-alloc) the one payload copy: grows only while the chunk is under a quarter of chunk_size, then stays inside make_room's chunk_size buffer (DESIGN.md §7)
      current_.data.insert(current_.data.end(), data.begin() + consumed,
                           data.begin() + consumed + take);
      consumed += take;
    }
    if (current_.data.size() >= chunk_size_) {
      Chunk done = take_current();
      filled_ = true;
      start_next(done);
      // scap-lint: allow(hot-alloc) completed-chunk handoff into the caller's reused scratch vector: grows only past the largest chunk count one call has produced (DESIGN.md §14 inventory)
      completed.push_back(std::move(done));
    }
  }
}

std::optional<Chunk> ChunkBuilder::flush() {
  if (!has_data()) {
    // Nothing buffered; still surface pending errors if a chunk-less error
    // needs reporting (caller decides what to do with nullopt).
    return std::nullopt;
  }
  // A pure-overlap chunk (only the repeated tail) carries no new bytes.
  if (current_.data.size() == current_.overlap_len && !retained_) {
    recycle(std::move(current_.data));
    current_ = Chunk{};
    current_started_ = false;
    return std::nullopt;
  }
  Chunk done = take_current();
  // No overlap seeding after an explicit flush: the next data starts clean.
  return done;
}

void ChunkBuilder::retain(Chunk&& kept) { retained_ = std::move(kept); }

// --- TcpReassembler ---------------------------------------------------------

TcpReassembler::TcpReassembler(const StreamParams& params, bool record_packets,
                               std::uint64_t max_ooo_bytes,
                               ChunkBufferPool* buffers)
    : mode_(params.mode),
      policy_(params.policy),
      max_ooo_bytes_(max_ooo_bytes),
      builder_(params.chunk_size, params.overlap_size, record_packets,
               buffers) {}

void TcpReassembler::reset(const StreamParams& params, bool record_packets,
                           std::uint64_t max_ooo_bytes) {
  mode_ = params.mode;
  policy_ = params.policy;
  max_ooo_bytes_ = max_ooo_bytes;
  builder_.reset(params.chunk_size, params.overlap_size, record_packets);
  ooo_.clear();
  have_base_ = false;
  base_raw_ = 0;
  next_off_ = 0;
}

void TcpReassembler::on_syn(std::uint32_t isn) {
  if (have_base_) return;  // retransmitted SYN
  base_raw_ = isn + 1;     // data begins one past the ISN
  have_base_ = true;
}

std::optional<std::uint64_t> TcpReassembler::offset_of(std::uint32_t seq) const {
  if (!have_base_) return std::nullopt;
  return stream_offset_of(base_raw_, next_off_, seq);
}

void TcpReassembler::deliver(std::span<const std::uint8_t> data,
                             const SegmentMeta& meta, Result& result,
                             std::vector<Chunk>& completed) {
  builder_.append(data, meta, next_off_, completed);
  result.accepted_bytes += data.size();
  next_off_ += data.size();
}

void TcpReassembler::drain_ooo(const SegmentMeta& meta,
                               std::vector<Chunk>& completed) {
  while (auto run = ooo_.pop_contiguous(next_off_)) {
    builder_.append(*run, meta, next_off_, completed);
    next_off_ += run->size();
  }
}

void TcpReassembler::force_deliver_ooo(const SegmentMeta& meta, Result& result,
                                       std::vector<Chunk>& completed) {
  // Adversarial hole-flood: fall back to best-effort, flagging the gap.
  while (ooo_.buffered_bytes() > max_ooo_bytes_ / 2) {
    auto seg = ooo_.pop_front();
    if (!seg) break;
    if (seg->first > next_off_) {
      builder_.flag_error(kErrHole);
      result.errors |= kErrHole;
      next_off_ = seg->first;
    }
    std::span<const std::uint8_t> bytes(seg->second);
    if (seg->first < next_off_) {
      const std::uint64_t skip = next_off_ - seg->first;
      if (skip >= bytes.size()) continue;
      bytes = bytes.subspan(skip);
    }
    builder_.append(bytes, meta, next_off_, completed);
    next_off_ += bytes.size();
  }
}

TcpReassembler::Result TcpReassembler::on_data(
    std::uint32_t seq, std::span<const std::uint8_t> payload,
    const SegmentMeta& meta, std::vector<Chunk>& completed) {
  Result result;
  if (payload.empty()) return result;

  if (!have_base_) {
    // Mid-flow pickup: anchor stream offset 0 at this segment.
    base_raw_ = seq;
    have_base_ = true;
  }

  std::int64_t off = signed_stream_offset(base_raw_, next_off_, seq);
  std::span<const std::uint8_t> data = payload;

  // Reject segments absurdly far from the window (likely corruption or an
  // injection attempt).
  constexpr std::int64_t kMaxJump = 1LL << 30;
  if (off < -kMaxJump || off > static_cast<std::int64_t>(next_off_) + kMaxJump) {
    result.errors |= kErrInvalidSeq;
    builder_.flag_error(kErrInvalidSeq);
    return result;
  }

  // Trim bytes that precede already-delivered data (retransmission or
  // overlap with delivered bytes: first copy wins — it is already out).
  if (off < static_cast<std::int64_t>(next_off_)) {
    const std::uint64_t skip = next_off_ - static_cast<std::uint64_t>(off);
    if (skip >= data.size()) {
      result.dup_bytes += data.size();
      return result;  // fully duplicate
    }
    result.dup_bytes += skip;
    data = data.subspan(skip);
    off = static_cast<std::int64_t>(next_off_);
  }

  const auto uoff = static_cast<std::uint64_t>(off);
  if (mode_ == ReassemblyMode::kTcpFast) {
    if (uoff > next_off_) {
      // Hole: write through without waiting (best-effort mode). The skipped
      // bytes are simply absent; flag the chunk.
      builder_.flag_error(kErrHole);
      result.errors |= kErrHole;
      next_off_ = uoff;
    }
    deliver(data, meta, result, completed);
    return result;
  }

  // Strict mode.
  if (uoff == next_off_) {
    deliver(data, meta, result, completed);
    drain_ooo(meta, completed);
    return result;
  }
  auto ins = ooo_.insert(uoff, data, policy_);
  if (ins.failed) {
    // Buffer allocation failed: the segment is lost, leaving a hole the
    // stream's consumer learns about through the overflow flag. The store
    // itself is untouched, so already-buffered data stays deliverable.
    result.alloc_failed = true;
    result.errors |= kErrBufferOverflow;
    builder_.flag_error(kErrBufferOverflow);
    return result;
  }
  result.accepted_bytes += ins.new_bytes;
  result.dup_bytes += ins.dup_bytes;
  if (ins.conflict) {
    result.errors |= kErrOverlapConflict;
    builder_.flag_error(kErrOverlapConflict);
  }
  if (ooo_.buffered_bytes() > max_ooo_bytes_) {
    result.errors |= kErrBufferOverflow;
    builder_.flag_error(kErrBufferOverflow);
    force_deliver_ooo(meta, result, completed);
  }
  return result;
}

TcpReassembler::Result TcpReassembler::on_datagram(
    std::span<const std::uint8_t> payload, const SegmentMeta& meta,
    std::vector<Chunk>& completed) {
  Result result;
  if (payload.empty()) return result;
  if (!have_base_) have_base_ = true;
  deliver(payload, meta, result, completed);
  return result;
}

void TcpReassembler::flush(std::vector<Chunk>& completed,
                           std::uint32_t error_bits) {
  if (mode_ == ReassemblyMode::kTcpStrict && !ooo_.empty()) {
    // Deliver whatever is buffered, flagging holes.
    SegmentMeta meta{};
    while (auto seg = ooo_.pop_front()) {
      if (seg->first > next_off_) {
        builder_.flag_error(kErrHole);
        next_off_ = seg->first;
      }
      std::span<const std::uint8_t> bytes(seg->second);
      if (seg->first < next_off_) {
        const std::uint64_t skip = next_off_ - seg->first;
        if (skip >= bytes.size()) continue;
        bytes = bytes.subspan(skip);
      }
      builder_.append(bytes, meta, next_off_, completed);
      next_off_ += bytes.size();
    }
  }
  if (error_bits) builder_.flag_error(error_bits);
  // scap-lint: allow(hot-alloc) flush path: final partial chunk into the caller's reused scratch vector (DESIGN.md §14 inventory)
  if (auto last = builder_.flush()) completed.push_back(std::move(*last));
}

// --- ReassemblerPool --------------------------------------------------------

std::unique_ptr<TcpReassembler> ReassemblerPool::take(
    const StreamParams& params, bool record_packets) {
  if (count_ == 0) {
    // scap-lint: allow(hot-alloc) a new reassembler only while no spare is held: streams give theirs back when they end, so the count stays at the peak of concurrently reassembling streams (DESIGN.md §7, §14 inventory)
    return create(params, record_packets);
  }
  std::unique_ptr<TcpReassembler> reasm = std::move(spares_[--count_]);
  reasm->reset(params, record_packets);
  return reasm;
}

std::unique_ptr<TcpReassembler> ReassemblerPool::create(
    const StreamParams& params, bool record_packets) {
  spares_.emplace_back();  // the slot give() will return it to
  return std::make_unique<TcpReassembler>(params, record_packets,
                                          kDefaultMaxOooBytes, buffers_);
}

void ReassemblerPool::give(std::unique_ptr<TcpReassembler> reasm) {
  // A reassembler this pool did not create has no slot: it is freed here.
  if (reasm == nullptr || count_ == spares_.size()) return;
  spares_[count_++] = std::move(reasm);
}

}  // namespace scap::kernel
