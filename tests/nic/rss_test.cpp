#include "nic/rss.hpp"

#include <gtest/gtest.h>

#include <random>

#include "packet/craft.hpp"

namespace scap::nic {
namespace {

TEST(RssEngine, SymmetricKeyMapsBothDirectionsToSameQueue) {
  RssEngine rss(symmetric_rss_key(), 8);
  for (std::uint32_t i = 0; i < 200; ++i) {
    FiveTuple fwd{0x0a000001 + i * 3, 0xc0a80001 + i * 11,
                  static_cast<std::uint16_t>(1024 + i),
                  static_cast<std::uint16_t>(80 + (i % 3)), kProtoTcp};
    EXPECT_EQ(rss.queue_for(fwd), rss.queue_for(fwd.reversed()))
        << "asymmetric mapping at i=" << i;
  }
}

// Property test for the canonicalized 4-tuple: both directions of 10k
// random flows map to the same queue for every queue count 1-8, and with
// an arbitrary (non-symmetric) key — the symmetry must come from the
// canonicalization, not from a specially crafted key. This is the flow
// affinity the sharded kernel relies on: a flow's two directions must
// never land on different shards.
TEST(RssEngine, BothDirectionsSameQueueForEveryQueueCount) {
  std::mt19937 rng(0x5ca9u);
  std::uniform_int_distribution<std::uint32_t> ip;
  std::uniform_int_distribution<std::uint16_t> port;
  std::vector<FiveTuple> flows;
  flows.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    flows.push_back({ip(rng), ip(rng), port(rng), port(rng),
                     (i % 2) ? kProtoTcp : kProtoUdp});
  }
  for (int queues = 1; queues <= 8; ++queues) {
    RssEngine symmetric(symmetric_rss_key(), queues);
    RssEngine arbitrary(default_rss_key(), queues);
    for (const FiveTuple& fwd : flows) {
      const FiveTuple rev = fwd.reversed();
      ASSERT_EQ(symmetric.queue_for(fwd), symmetric.queue_for(rev))
          << "symmetric key, queues=" << queues;
      ASSERT_EQ(arbitrary.queue_for(fwd), arbitrary.queue_for(rev))
          << "arbitrary key, queues=" << queues;
    }
  }
}

TEST(RssEngine, SpreadsFlowsReasonablyEvenly) {
  RssEngine rss(symmetric_rss_key(), 8);
  std::vector<int> counts(8, 0);
  const int flows = 8000;
  for (int i = 0; i < flows; ++i) {
    FiveTuple t{0x0a000000 + static_cast<std::uint32_t>(i * 7919),
                0xc0a80000 + static_cast<std::uint32_t>(i * 104729),
                static_cast<std::uint16_t>(1024 + i * 13),
                static_cast<std::uint16_t>(80), kProtoTcp};
    counts[static_cast<std::size_t>(rss.queue_for(t))]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, flows / 8 / 2);
    EXPECT_LT(c, flows / 8 * 2);
  }
}

TEST(RssEngine, PacketAndTupleAgree) {
  RssEngine rss(symmetric_rss_key(), 4);
  TcpSegmentSpec spec;
  spec.tuple = {0x01020304, 0x05060708, 1111, 80, kProtoTcp};
  Packet p = make_tcp_packet(spec, Timestamp(0));
  EXPECT_EQ(rss.queue_for(p), rss.queue_for(spec.tuple));
}

// The engine's table-driven queue choice equals the bit-serial reference —
// canonicalize the endpoints, Toeplitz-hash (address pair, port pair) with
// toeplitz_hash, reduce modulo the queue count — on 100k seeded random
// tuples, for both keys and every queue count 1-8.
TEST(RssEngine, TablePathMatchesBitSerialReference) {
  std::mt19937 rng(0x7a61eu);
  std::uniform_int_distribution<std::uint32_t> ip;
  std::uniform_int_distribution<std::uint16_t> port;
  for (const RssKey& key : {symmetric_rss_key(), default_rss_key()}) {
    std::vector<RssEngine> engines;
    for (int queues = 1; queues <= 8; ++queues) {
      engines.emplace_back(key, queues);
    }
    for (int i = 0; i < 100000; ++i) {
      FiveTuple t{ip(rng), ip(rng), port(rng), port(rng),
                  (i % 2) ? kProtoTcp : kProtoUdp};
      if (i % 16 == 0) t.dst_ip = t.src_ip;  // exercise the port tie-break
      FiveTuple c = t;
      if (c.dst_ip < c.src_ip ||
          (c.dst_ip == c.src_ip && c.dst_port < c.src_port)) {
        c = t.reversed();
      }
      const std::uint8_t input[12] = {
          static_cast<std::uint8_t>(c.src_ip >> 24),
          static_cast<std::uint8_t>(c.src_ip >> 16),
          static_cast<std::uint8_t>(c.src_ip >> 8),
          static_cast<std::uint8_t>(c.src_ip),
          static_cast<std::uint8_t>(c.dst_ip >> 24),
          static_cast<std::uint8_t>(c.dst_ip >> 16),
          static_cast<std::uint8_t>(c.dst_ip >> 8),
          static_cast<std::uint8_t>(c.dst_ip),
          static_cast<std::uint8_t>(c.src_port >> 8),
          static_cast<std::uint8_t>(c.src_port),
          static_cast<std::uint8_t>(c.dst_port >> 8),
          static_cast<std::uint8_t>(c.dst_port)};
      const std::uint32_t ref = toeplitz_hash(key, input);
      for (const RssEngine& rss : engines) {
        ASSERT_EQ(rss.queue_for(t),
                  static_cast<int>(ref % static_cast<std::uint32_t>(
                                             rss.num_queues())))
            << "tuple " << i << ", queues=" << rss.num_queues();
      }
    }
  }
}

TEST(RssEngine, SingleQueueAlwaysZero) {
  RssEngine rss(default_rss_key(), 1);
  FiveTuple t{1, 2, 3, 4, kProtoTcp};
  EXPECT_EQ(rss.queue_for(t), 0);
}

}  // namespace
}  // namespace scap::nic
