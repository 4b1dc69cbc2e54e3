// Slab allocator for StreamRecords (fast-path memory layout, DESIGN.md).
//
// Stream create/terminate is the second-hottest kernel operation after flow
// lookup; allocating each StreamRecord with operator new puts a malloc/free
// pair on that path and scatters records across the heap. The pool carves
// records out of fixed-size slabs and recycles them through a freelist, so
// steady-state stream churn performs zero heap allocations. Records carry
// no reassembler of their own: the kernel lends one from its spare list to
// a stream that stores payload and takes it back when the stream ends
// (DESIGN.md §7), so a recycled slot hands nothing over to the next stream.
//
// Pointer stability: slabs are never freed while the pool lives, so a
// StreamRecord* stays valid from acquire() until release() regardless of
// how many records are created in between (the flow table relies on this
// across rehashes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernel/flow_table.hpp"

namespace scap::kernel {

class RecordPool {
 public:
  /// `slab_records`: records per slab (one slab is allocated up front).
  explicit RecordPool(std::size_t slab_records = 1024);

  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;

  /// Take a record with every field value-initialized: a released one
  /// when the freelist holds any (counted as recycled), else a slot of the
  /// newest slab never handed out before. Allocates a new slab only when
  /// both are exhausted.
  StreamRecord* acquire();

  /// Return a record to the freelist. Its contents become garbage until
  /// the next acquire() resets them.
  void release(StreamRecord* rec);

  RecordPoolStats stats() const;

 private:
  void grow();

  std::size_t slab_records_;
  std::vector<std::unique_ptr<StreamRecord[]>> slabs_;
  /// Released records as an explicit stack over pre-sized storage: grow()
  /// resizes `free_` to the full pool, `free_count_` marks the live top.
  /// Pushes and pops are index assignments, so the per-stream path never
  /// grows a container.
  std::vector<StreamRecord*> free_;
  std::size_t free_count_ = 0;
  /// Slots of the newest slab below this index have been handed out.
  std::size_t fresh_next_ = 0;
  std::uint64_t acquired_total_ = 0;
  std::uint64_t recycled_total_ = 0;
  std::uint64_t acquire_failures_ = 0;  // injected allocation failures
};

}  // namespace scap::kernel
