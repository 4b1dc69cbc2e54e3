// Events flowing from the kernel datapath to user-level worker threads
// (paper §5.4).
//
// Each event carries a snapshot of the stream's user-visible state — the
// paper keeps a second stream_t instance updated right before enqueueing an
// event to avoid races between the kernel and the application; the snapshot
// plays that role here. Data events additionally carry the completed chunk.
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/reassembly.hpp"
#include "kernel/stream.hpp"

namespace scap::kernel {

/// User-visible stream state (the application's copy of stream_t).
struct StreamSnapshot {
  StreamId id = kInvalidStreamId;
  FiveTuple tuple;
  Direction dir = Direction::kOrig;
  StreamId opposite = kInvalidStreamId;
  StreamStatus status = StreamStatus::kActive;
  bool cutoff_exceeded = false;
  std::uint32_t error_bits = 0;
  StreamStats stats;
  StreamParams params;
  std::uint64_t chunks_delivered = 0;
};

enum class EventType : std::uint8_t { kCreated, kData, kTerminated };

struct Event {
  EventType type = EventType::kData;
  StreamSnapshot stream;
  Chunk chunk;  // data events only
  /// Allocator accounting the consumer must release after processing.
  std::uint64_t chunk_addr = 0;
  std::uint32_t chunk_alloc = 0;
  /// Which attached applications should see this event (bit per app).
  std::uint64_t app_mask = ~0ULL;
};

/// Per-core event queue. Unbounded by design: the real backpressure is the
/// shared chunk buffer — when workers fall behind, chunk memory stays
/// allocated and PPL starts dropping packets, which is the paper's overload
/// behaviour.
///
/// A power-of-two ring of reused Event slots that doubles when full: once
/// it has grown to the largest backlog, push and pop move events in and out
/// of existing slots and never touch the allocator. (An Event is ~300 B, so
/// a std::deque would hold one per node and malloc on every push.)
class EventQueue {
 public:
  void push(Event ev) {
    if (size() == slots_.size()) grow();
    slots_[tail_ & mask_] = std::move(ev);
    ++tail_;
  }

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }

  Event pop() {
    Event ev = std::move(slots_[head_ & mask_]);
    ++head_;
    return ev;
  }

 private:
  static constexpr std::size_t kInitialSlots = 16;

  /// Double the ring (first push: allocate it), unwrapping the queued
  /// events to the front of the new slot array. The one allocating path:
  /// cold, entered only when the backlog outgrows every earlier one.
  void grow() {
    std::vector<Event> bigger;
    // scap-lint: allow(hot-alloc) ring doubling, amortized: reached only when the backlog outgrows every earlier one, never at steady state (DESIGN.md §14 inventory)
    bigger.resize(slots_.empty() ? kInitialSlots : slots_.size() * 2);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_.swap(bigger);
    mask_ = slots_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<Event> slots_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;  // next slot to pop (monotonic, masked on use)
  std::uint64_t tail_ = 0;  // next slot to fill
};

}  // namespace scap::kernel
