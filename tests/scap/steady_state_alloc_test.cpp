// Steady-state allocation test: the dynamic twin of the static guarantee
// tools/scap_callgraph.py proves (DESIGN.md §14). The analyzer shows no
// `operator new` is *reachable* from the SCAP_HOT roots outside waivered
// amortized sites; this test replaces the global allocator with counting
// hooks and shows those amortized sites actually reach zero: once the flow
// table, record pool and event queue cover the working set, per-packet
// lookup work and event emission perform literally no allocations.
//
// The counting-hook pattern (and the -Wmismatched-new-delete pragma it
// needs under GCC) follows bench/throughput.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "kernel/events.hpp"
#include "kernel/flow_table.hpp"
#include "kernel/record_pool.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The replacement operator-new family above is malloc/aligned_alloc backed,
// so free() is the correct deallocator for every pointer reaching these —
// GCC's pairing heuristic cannot see that and flags inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace scap::kernel {
namespace {

FiveTuple tuple_for(std::uint16_t port) {
  return {0x0a000001, 0x0a000002, port, 80, kProtoTcp};
}

// The per-packet lookup work — hash, probe, LRU re-link — on a warm table
// must not touch the allocator at all. No waivered amortized site is even
// on this path; the static closure for FlowTable::find/touch is clean, and
// this pins it dynamically.
TEST(SteadyStateAlloc, FlowLookupIsAllocFree) {
  constexpr std::uint16_t kFlows = 256;
  constexpr int kRounds = 1000;

  FlowTable table;
  for (std::uint16_t p = 0; p < kFlows; ++p) {
    ASSERT_NE(table.create(tuple_for(p), Timestamp(p), nullptr), nullptr);
  }

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t hits = 0;
  Timestamp now(kFlows);
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint16_t p = 0; p < kFlows; ++p) {
      StreamRecord* rec = table.find(tuple_for(p));
      if (rec != nullptr) {
        table.touch(*rec, now);
        ++hits;
      }
      now = now + Duration::from_usec(1);
    }
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(hits, static_cast<std::uint64_t>(kFlows) * kRounds);
  EXPECT_EQ(after - before, 0u)
      << "flow lookup steady state allocated " << (after - before)
      << " time(s)";
}

// Misses (tuples that were never created) probe and return nullptr — also
// alloc-free.
TEST(SteadyStateAlloc, FlowLookupMissIsAllocFree) {
  FlowTable table;
  for (std::uint16_t p = 0; p < 64; ++p) {
    ASSERT_NE(table.create(tuple_for(p), Timestamp(p), nullptr), nullptr);
  }

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t misses = 0;
  for (int round = 0; round < 1000; ++round) {
    for (std::uint16_t p = 1000; p < 1064; ++p) {
      if (table.find(tuple_for(p)) == nullptr) ++misses;
    }
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(misses, 64u * 1000u);
  EXPECT_EQ(after - before, 0u);
}

// Record churn on a warm pool: grow() reserves the full pool up front
// (that is what its hot-alloc waivers in record_pool.cpp claim), so
// acquire/release cycles within the slab's capacity never allocate.
TEST(SteadyStateAlloc, RecordPoolRecycleIsAllocFree) {
  constexpr std::size_t kSlab = 128;
  RecordPool pool(kSlab);

  // Warm: touch every record once so the slab and freelist exist.
  StreamRecord* warm[kSlab];
  for (std::size_t i = 0; i < kSlab; ++i) warm[i] = pool.acquire();
  for (std::size_t i = kSlab; i-- > 0;) pool.release(warm[i]);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 1000; ++round) {
    StreamRecord* a = pool.acquire();
    StreamRecord* b = pool.acquire();
    pool.release(a);
    pool.release(b);
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "warm record-pool churn allocated " << (after - before)
      << " time(s)";
}

// Event emission and drain on a warm queue: EventQueue reuses its ring
// slots, so once it has grown past the backlog a create/data/terminate
// round moves events in and out of existing slots without allocating. The
// data event's chunk buffers travel with the event and come back out of
// the drain, so the round reuses them too.
TEST(SteadyStateAlloc, EventQueueRoundIsAllocFree) {
  EventQueue q;
  Chunk chunk;
  chunk.data.resize(4096, 0x5a);
  chunk.packets.resize(4);
  std::uint64_t drained = 0;
  auto round = [&](StreamId id) {
    Event created;
    created.type = EventType::kCreated;
    created.stream.id = id;
    q.push(std::move(created));
    Event data;
    data.type = EventType::kData;
    data.stream.id = id;
    data.chunk = std::move(chunk);
    q.push(std::move(data));
    Event terminated;
    terminated.type = EventType::kTerminated;
    terminated.stream.id = id;
    q.push(std::move(terminated));
    while (!q.empty()) {
      Event ev = q.pop();
      if (ev.type == EventType::kData) chunk = std::move(ev.chunk);
      ++drained;
    }
  };

  round(1);  // warm: the queue allocates its slot ring on first push
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (StreamId id = 2; id < 1002; ++id) round(id);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(drained, 3u * 1001u);
  EXPECT_EQ(chunk.data.size(), 4096u);
  EXPECT_EQ(after - before, 0u)
      << "warm event emission + drain allocated " << (after - before)
      << " time(s)";
}

// A backlog past the slot count grows the ring by doubling, in FIFO order
// across the wrap point; the grown ring then serves the same backlog with
// no further allocation.
TEST(SteadyStateAlloc, EventQueueGrowsOnceThenReuses) {
  EventQueue q;
  StreamId next = 0;
  StreamId expect = 0;
  // Offset head and tail first so the growth below unwraps a wrapped ring.
  for (int i = 0; i < 5; ++i) {
    Event ev;
    ev.stream.id = next++;
    q.push(std::move(ev));
    EXPECT_EQ(q.pop().stream.id, expect++);
  }
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Event ev;
      ev.stream.id = next++;
      q.push(std::move(ev));
    }
    while (!q.empty()) ASSERT_EQ(q.pop().stream.id, expect++);
  };
  burst(100);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int r = 0; r < 100; ++r) burst(100);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(expect, 5u + 101u * 100u);
}

}  // namespace
}  // namespace scap::kernel
