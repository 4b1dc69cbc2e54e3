// Steady-state allocation test: the dynamic twin of the static guarantee
// tools/scap_callgraph.py proves (DESIGN.md §14). The analyzer shows no
// `operator new` is *reachable* from the SCAP_HOT roots outside waivered
// amortized sites; this test replaces the global allocator with counting
// hooks and shows those amortized sites actually reach zero: once the flow
// table, record pool and event queue cover the working set, per-packet
// lookup work and event emission perform literally no allocations, and
// once a long stream has filled a chunk, building, delivering and
// releasing further chunks recycles their buffers instead of allocating.
//
// The counting-hook pattern (and the -Wmismatched-new-delete pragma it
// needs under GCC) follows bench/throughput.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "kernel/events.hpp"
#include "kernel/flow_table.hpp"
#include "kernel/module.hpp"
#include "kernel/record_pool.hpp"
#include "packet/bpf.hpp"
#include "tests/kernel/test_helpers.hpp"

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

// Capacities of the data events one drain delivered, read before
// release_chunk hands each payload buffer back to the kernel.
void drain_capacities(ScapKernel& k, std::vector<std::size_t>& out) {
  out.clear();
  EventQueue& q = k.events(0);
  while (!q.empty()) {
    Event ev = q.pop();
    if (ev.type == EventType::kData) out.push_back(ev.chunk.data.capacity());
    k.release_chunk(ev);
  }
}

// The chunk path: one long TCP stream through handle_batch, drained and
// released after every batch. Once the stream has filled its first chunk
// the kernel holds the buffers it needs (the chunk being built and the one
// in flight), so dozens more chunks and the termination flush build,
// deliver and recycle without touching the allocator. The batch carries
// less than a chunk of payload, so at most one chunk completes per drain.
TEST(SteadyStateAlloc, ChunkPathIsAllocFreeOnceAStreamFilledAChunk) {
  KernelConfig cfg;  // default 16 KiB chunks, no overlap, no need_pkts
  ScapKernel k(cfg);
  const std::uint32_t chunk = cfg.defaults.chunk_size;
  constexpr std::size_t kPayload = 1460;
  constexpr std::size_t kBatch = 8;  // 11680 B < one chunk per batch
  constexpr std::uint64_t kMeasuredChunks = 60;

  // Every packet is crafted up front: building frames allocates.
  testing::SessionBuilder s;
  const std::string payload(kPayload, 'x');
  std::vector<Packet> pkts;
  Timestamp t(1000);
  auto next_ts = [&t] { return t = t + Duration::from_usec(1); };
  pkts.push_back(s.syn(next_ts()));
  const std::uint64_t total = (kMeasuredChunks + 2) * chunk + chunk / 2;
  for (std::uint64_t sent = 0; sent < total; sent += kPayload) {
    pkts.push_back(s.data(payload, next_ts()));
  }
  pkts.push_back(s.fin(next_ts()));
  ASSERT_LT(t.ns(), Duration::from_sec(1).ns());  // no maintenance tick

  std::vector<std::size_t> caps;
  caps.reserve(16);
  std::size_t next = 0;
  std::uint64_t chunks = 0;
  auto run_batch = [&] {
    const std::size_t n = std::min(kBatch, pkts.size() - next);
    const std::span<const Packet> batch(pkts.data() + next, n);
    k.handle_batch(batch, batch.back().timestamp());
    next += n;
    drain_capacities(k, caps);
    for (std::size_t cap : caps) {
      EXPECT_EQ(cap, chunk) << "delivered chunk " << chunks;
      ++chunks;
    }
  };

  // Warm: stream creation, the first (promoted) chunk and its release.
  while (chunks == 0) run_batch();
  const std::uint64_t warm_chunks = chunks;

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  while (next < pkts.size()) run_batch();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  // Full chunks plus the termination flush's partial one.
  EXPECT_GE(chunks - warm_chunks, kMeasuredChunks + 1);
  EXPECT_EQ(k.stats().streams_terminated, 1u);
  EXPECT_EQ(k.allocator().used(), 0u);
  EXPECT_EQ(after - before, 0u)
      << "warm chunk path allocated " << (after - before) << " time(s) over "
      << (chunks - warm_chunks) << " chunks";
}

// The memory half of the buffer rule: a stream that never reaches a quarter
// chunk keeps a small, vector-grown buffer; one that has filled a chunk
// delivers every later chunk in a buffer of exactly chunk_size.
TEST(SteadyStateAlloc, SmallStreamsKeepSmallChunkBuffers) {
  KernelConfig cfg;
  ScapKernel k(cfg);
  const std::uint32_t chunk = cfg.defaults.chunk_size;
  testing::SessionBuilder s;
  Timestamp t(1000);
  std::vector<std::size_t> caps;
  k.handle_packet(s.syn(t), t);
  const std::string payload(1000, 'y');
  for (int i = 0; i < 3; ++i) k.handle_packet(s.data(payload, t), t);
  ASSERT_LT(3 * payload.size(), chunk / 4);
  k.handle_packet(s.fin(t), t);
  drain_capacities(k, caps);
  ASSERT_EQ(caps.size(), 1u);
  EXPECT_GE(caps[0], 3 * payload.size());
  EXPECT_LT(caps[0], chunk);
}

// Drain a kernel's events, handing every chunk back.
void drain_all(ScapKernel& k) {
  EventQueue& q = k.events(0);
  while (!q.empty()) {
    Event ev = q.pop();
    k.release_chunk(ev);
  }
}

// A cold kernel tracking thousands of cutoff-0 streams (the flow-statistics
// workload of §3.3.1) allocates only for the growth of its slabs, tables
// and event ring — O(log n) doublings plus one slab per 1024 records — and
// never per stream: none of them stores a byte, so none gets reassembly
// state.
TEST(SteadyStateAlloc, CutoffZeroStreamsAllocateOnlyForGrowth) {
  constexpr std::uint16_t kStreams = 4096;
  constexpr std::size_t kBatch = 32;
  // 3 slabs x 3 + 2 tables x 7 doublings + the event ring, with headroom;
  // one allocation per stream would be 4096.
  constexpr std::uint64_t kGrowthBound = 48;
  KernelConfig cfg;
  cfg.defaults.cutoff_bytes = 0;
  ScapKernel k(cfg);

  // Every packet is crafted up front: building frames allocates.
  std::vector<Packet> pkts;
  pkts.reserve(2 * kStreams);
  Timestamp t(1000);
  for (std::uint16_t p = 0; p < kStreams; ++p) {
    testing::SessionBuilder s(tuple_for(p));
    t = t + Duration::from_usec(1);
    pkts.push_back(s.syn(t));
    pkts.push_back(s.data("0123456789", t));
  }
  ASSERT_LT(t.ns(), Duration::from_sec(1).ns());  // no maintenance tick

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t next = 0; next < pkts.size(); next += kBatch) {
    const std::span<const Packet> batch(pkts.data() + next, kBatch);
    k.handle_batch(batch, batch.back().timestamp());
    drain_all(k);
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(k.stats().streams_active, kStreams);
  EXPECT_EQ(k.stats().pkts_cutoff, kStreams);
  EXPECT_EQ(k.reassemblers().created(), 0u);
  EXPECT_LE(after - before, kGrowthBound)
      << "creating " << kStreams << " cutoff-0 streams allocated "
      << (after - before) << " time(s)";
}

// Cutoff-0 and reassembling streams churn through the same record slots,
// round after round. Reassembly state follows the streams that store
// bytes, not the slots: the kernel creates no more reassemblers than the
// peak number of streams storing bytes at once, and holds them all as
// spares once every stream has ended.
TEST(SteadyStateAlloc, MixedChurnCreatesReassemblersOnlyForPeakConcurrency) {
  constexpr int kRounds = 50;
  constexpr std::uint16_t kCutoffZero = 8;
  constexpr std::uint16_t kStoring = 4;
  KernelConfig cfg;
  CutoffClass zero;
  zero.filter = BpfProgram::compile("tcp and port 9");
  zero.cutoff_bytes = 0;
  cfg.cutoff_classes.push_back(zero);
  ScapKernel k(cfg);
  testing::KernelInvariantGuard guard(k);

  Timestamp t(1000);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<testing::SessionBuilder> sessions;
    // Interleaved creates, so each kind lands in slots the other kind
    // released in the round before.
    for (std::uint16_t i = 0; i < kCutoffZero + kStoring; ++i) {
      const bool storing = i % 3 == 2;
      const auto port = static_cast<std::uint16_t>(1000 + i);
      sessions.emplace_back(
          FiveTuple{0x0a000001, 0x0a000002, port,
                    static_cast<std::uint16_t>(storing ? 80 : 9), kProtoTcp});
      k.handle_packet(sessions.back().syn(t), t);
      k.handle_packet(sessions.back().data("0123456789", t), t);
    }
    for (auto it = sessions.rbegin(); it != sessions.rend(); ++it) {
      k.handle_packet(it->fin(t), t);
    }
    drain_all(k);
    t = t + Duration::from_usec(10);
  }

  EXPECT_EQ(k.stats().streams_created,
            std::uint64_t{kRounds} * (kCutoffZero + kStoring));
  EXPECT_EQ(k.stats().bytes_stored, std::uint64_t{kRounds} * kStoring * 10);
  EXPECT_LE(k.reassemblers().created(), kStoring);
  EXPECT_EQ(k.reassemblers().spares(), k.reassemblers().created());
}

}  // namespace
}  // namespace scap::kernel
