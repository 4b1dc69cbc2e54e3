#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::allocs {
namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

// Threads past kSlots share the last slot through an atomic add; a run
// starts a few dozen threads at most.
constexpr std::size_t kSlots = 4096;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local Slot* t_slot = nullptr;

void count_one() {
  if (t_slot == nullptr) {
    const std::size_t i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[i < kSlots - 1 ? i : kSlots - 1];
  }
  if (t_slot == &g_slots[kSlots - 1]) {
    t_slot->count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Single writer per slot: a relaxed load/store pair is enough and avoids
  // a locked read-modify-write on every allocation.
  t_slot->count.store(t_slot->count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

}  // namespace

std::uint64_t this_thread() {
  return t_slot == nullptr ? 0 : t_slot->count.load(std::memory_order_relaxed);
}

std::uint64_t total() {
  std::uint64_t sum = 0;
  const std::size_t used = g_next_slot.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < used && i < kSlots; ++i) {
    sum += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return sum;
}

}  // namespace perfbench::allocs

// Every non-aligned form is replaced, so each allocation is counted and
// every pointer is released by the allocator that made it (the library's
// nothrow and array forms would otherwise bypass the count, and sanitizer
// runtimes flag the mixed pairs).
namespace {
void* counted_malloc(std::size_t size) {
  perfbench::allocs::count_one();
  return std::malloc(size ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
