#include "kernel/record_pool.hpp"

#include "faultinject/faultinject.hpp"

namespace scap::kernel {

RecordPool::RecordPool(std::size_t slab_records)
    : slab_records_(slab_records ? slab_records : 1) {
  grow();
}

void RecordPool::grow() {
  // scap-lint: allow(hot-alloc) slab growth: one allocation per slab_records new streams, zero once the pool covers the working set (DESIGN.md §14 inventory)
  auto slab = std::make_unique<StreamRecord[]>(slab_records_);
  // Size the freelist backing store for the full pool up front, so
  // release() is a plain index assignment — the freelist itself never
  // performs a growth call on the per-stream path.
  // scap-lint: allow(hot-alloc) freelist resize rides the amortized slab growth above
  free_.resize((slabs_.size() + 1) * slab_records_);
  // scap-lint: allow(hot-alloc) slab bookkeeping rides the amortized slab growth
  slabs_.push_back(std::move(slab));
  fresh_next_ = 0;
}

StreamRecord* RecordPool::acquire() {
  // Injected slab-allocation failure (models a failed kmalloc of a new
  // slab): callers must treat nullptr as "stream cannot be tracked".
  if (faultinject::should_fail(faultinject::FaultPoint::kRecordPoolAcquire)) {
    ++acquire_failures_;
    return nullptr;
  }
  ++acquired_total_;
  if (free_count_ > 0) {
    // The most recently released record first (it is likeliest cached).
    StreamRecord* rec = free_[--free_count_];
    ++recycled_total_;
    *rec = StreamRecord{};
    return rec;
  }
  // Fresh slots are value-initialized by the slab allocation, lowest
  // address first.
  if (fresh_next_ == slab_records_) grow();
  return &slabs_.back()[fresh_next_++];
}

// Index assignment into storage grow() already sized for the full pool:
// a release can never outrun the capacity it was acquired from.
void RecordPool::release(StreamRecord* rec) { free_[free_count_++] = rec; }

RecordPoolStats RecordPool::stats() const {
  RecordPoolStats s;
  s.capacity = slabs_.size() * slab_records_;
  s.free = free_count_ + (slab_records_ - fresh_next_);
  s.slabs = slabs_.size();
  s.acquired_total = acquired_total_;
  s.recycled_total = recycled_total_;
  s.acquire_failures = acquire_failures_;
  return s;
}

}  // namespace scap::kernel
