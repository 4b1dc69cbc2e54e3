// The producer/worker wake handshake of the sharded datapath (DESIGN.md
// §12). A worker parks when its ring is empty; publish() must wake it for
// every pushed packet with no further help from the producer. The
// store-buffer (Dekker) race this guards against: the worker stores
// `sleeping` and then reads the ring tail, the producer stores the tail and
// then reads `sleeping`; without a fence on each side both reads can miss
// the other's store, the worker parks on a non-empty ring and nothing wakes
// it until some later push. This test feeds one shard 1-packet batches,
// each timed to land while the worker is parking or already parked, and
// requires every packet to be consumed within a bounded wait — without the
// producer pushing again, filling the ring, or calling flush().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>

#include "base/mutex.hpp"
#include "kernel/shard.hpp"
#include "packet/craft.hpp"

namespace scap::kernel {
namespace {

using Clock = std::chrono::steady_clock;

void spin_for(std::chrono::nanoseconds d) {
  const auto until = Clock::now() + d;
  while (Clock::now() < until) {
  }
}

TEST(ShardWakeup, EveryOnePacketBatchIsConsumedWithoutFurtherProducerAction) {
  constexpr int kIterations = 10000;
  // Generous for a loaded or sanitized host; a lost wakeup never recovers.
  constexpr auto kBound = std::chrono::seconds(5);

  KernelConfig cfg;
  cfg.memory_size = 8 << 20;
  KernelShards shards(cfg, /*num_shards=*/1);
  base::SerialGuard prod(shards.producer());

  // Packets the worker has retired, published from its drain hook after
  // every batch.
  std::atomic<std::uint64_t> consumed{0};
  shards.start([&consumed](int, ScapKernel& k) {
    base::SerialGuard serial(k.serial());
    EventQueue& q = k.events(0);
    while (!q.empty()) k.release_chunk(q.pop());
    consumed.store(k.stats().pkts_seen, std::memory_order_release);
  });

  TcpSegmentSpec spec;
  spec.tuple = {0xc0a80001, 0x0a000001, 40000, 80, kProtoTcp};
  const Packet pkt = make_tcp_packet(spec, Timestamp(1'000'000));

  int lost_at = -1;
  for (int i = 0; i < kIterations; ++i) {
    // After the previous packet's drain hook the worker still publishes its
    // snapshot, finds the ring empty and parks. Sweep the gap across that
    // window (0-16 us): early pushes race the park, later ones find the
    // worker asleep.
    spin_for(std::chrono::nanoseconds((i * 997) % 16000));
    shards.push(0, pkt);
    shards.publish();
    const auto deadline = Clock::now() + kBound;
    const auto want = static_cast<std::uint64_t>(i) + 1;
    while (consumed.load(std::memory_order_acquire) < want) {
      if (Clock::now() > deadline) break;
    }
    if (consumed.load(std::memory_order_acquire) < want) {
      lost_at = i;
      break;
    }
  }
  EXPECT_EQ(lost_at, -1) << "packet " << lost_at
                         << " sat on the ring past the bound: lost wakeup";

  shards.stop(Timestamp(2'000'000));
  EXPECT_EQ(shards.stats().pkts_seen,
            static_cast<std::uint64_t>(lost_at < 0 ? kIterations
                                                   : lost_at + 1));
  EXPECT_EQ(shards.check_invariants(), "");
}

}  // namespace
}  // namespace scap::kernel
