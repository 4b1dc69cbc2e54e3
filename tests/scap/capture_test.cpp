#include "scap/capture.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "tests/kernel/test_helpers.hpp"

namespace scap {
namespace {

using kernel::Direction;
using kernel::ReassemblyMode;
using kernel::StreamStatus;
using kernel::testing::SessionBuilder;
using kernel::testing::client_tuple;

TEST(CaptureTest, InlineModeDispatchesCallbacks) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  int created = 0, data = 0, closed = 0;
  std::string text;
  cap.dispatch_creation([&](StreamView&) { ++created; });
  cap.dispatch_data([&](StreamView& sd) {
    ++data;
    text.append(sd.data().begin(), sd.data().end());
  });
  cap.dispatch_termination([&](StreamView& sd) {
    ++closed;
    // The client direction closes with FIN; the reply direction (no FIN
    // seen) is flushed at stop() with a timeout status.
    if (sd.direction() == Direction::kOrig) {
      EXPECT_EQ(sd.status(), StreamStatus::kClosedFin);
    }
  });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  SessionBuilder s;
  Timestamp t(0);
  cap.inject(s.syn(t));
  cap.inject(s.syn_ack(t));
  cap.inject(s.ack(t));
  cap.inject(s.data("hello ", t));
  cap.inject(s.data("scap", t));
  cap.inject(s.fin(t));
  cap.stop();

  EXPECT_EQ(created, 2);  // both directions
  EXPECT_EQ(data, 1);
  EXPECT_GE(closed, 1);
  EXPECT_EQ(text, "hello scap");
}

TEST(CaptureTest, FlowStatsUseCaseFromPaper) {
  // §3.3.1: zero cutoff, stats collected at termination.
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.set_cutoff(0);
  struct Row {
    std::uint64_t bytes, pkts;
  };
  std::map<std::uint16_t, Row> rows;
  cap.dispatch_termination([&](StreamView& sd) {
    rows[sd.tuple().src_port] = {sd.stats().bytes, sd.stats().pkts};
  });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  Timestamp t(0);
  for (std::uint16_t port : {std::uint16_t{1001}, std::uint16_t{1002}}) {
    SessionBuilder s(client_tuple(port, 80));
    cap.inject(s.syn(t));
    cap.inject(s.data("0123456789", t));
    cap.inject(s.data("0123456789", t));
    cap.inject(s.fin(t));
  }
  cap.stop();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1001].bytes, 20u);
  EXPECT_GE(rows[1001].pkts, 4u);
  // No data events should have allocated lasting memory.
  EXPECT_EQ(cap.kernel().allocator().used(), 0u);
}

TEST(CaptureTest, BpfFilterLimitsStreams) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.set_filter("dst port 80");
  int created = 0;
  cap.dispatch_creation([&](StreamView&) { ++created; });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  Timestamp t(0);
  SessionBuilder web(client_tuple(4000, 80));
  SessionBuilder ssh(client_tuple(4001, 22));
  cap.inject(web.syn(t));
  cap.inject(ssh.syn(t));
  cap.stop();
  EXPECT_EQ(created, 1);
}

TEST(CaptureTest, KeepChunkMergesDeliveries) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, true);
  cap.set_parameter(Parameter::kChunkSize, 8);
  std::vector<std::string> deliveries;
  std::vector<std::string> payloads;
  bool first = true;
  cap.dispatch_data([&](StreamView& sd) {
    deliveries.emplace_back(sd.data().begin(), sd.data().end());
    while (const auto* rec = sd.next_packet()) {
      auto p = sd.packet_payload(*rec);
      payloads.emplace_back(p.begin(), p.end());
    }
    if (first) {
      sd.keep_chunk();
      first = false;
    }
  });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  SessionBuilder s;
  Timestamp t(0);
  cap.inject(s.syn(t));
  cap.inject(s.data("AAAAAAAA", t));  // chunk 1 (kept)
  cap.inject(s.data("BBBBBBBB", t));  // chunk 2 → delivered merged
  cap.inject(s.fin(t));
  cap.stop();
  ASSERT_GE(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], "AAAAAAAA");
  EXPECT_EQ(deliveries[1], "AAAAAAAABBBBBBBB");
  // Packet records of the merged delivery must resolve to the right bytes:
  // the second chunk's records are shifted past the retained prefix.
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "AAAAAAAA");  // first delivery (kept chunk)
  EXPECT_EQ(payloads[1], "AAAAAAAA");  // merged: retained chunk's record
  EXPECT_EQ(payloads[2], "BBBBBBBB");  // merged: shifted completed-chunk record
  EXPECT_EQ(cap.kernel().allocator().used(), 0u);
}

TEST(CaptureTest, PerStreamCutoffFromCallback) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.dispatch_creation([&](StreamView& sd) {
    if (sd.tuple().dst_port == 80) sd.set_cutoff(4);
  });
  std::map<std::uint16_t, std::uint64_t> captured;
  cap.dispatch_termination([&](StreamView& sd) {
    captured[sd.tuple().src_port] = sd.stats().captured_bytes;
  });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  Timestamp t(0);
  SessionBuilder limited(client_tuple(5001, 80));
  SessionBuilder full(client_tuple(5002, 443));
  for (auto* s : {&limited, &full}) {
    cap.inject(s->syn(t));
    cap.inject(s->data("0123456789", t));
    cap.inject(s->fin(t));
  }
  cap.stop();
  EXPECT_EQ(captured[5001], 4u);
  EXPECT_EQ(captured[5002], 10u);
}

TEST(CaptureTest, DiscardStreamFromCallback) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  int data_events = 0;
  cap.dispatch_data([&](StreamView& sd) {
    ++data_events;
    sd.discard();
  });
  cap.set_parameter(Parameter::kChunkSize, 4);
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  SessionBuilder s;
  Timestamp t(0);
  cap.inject(s.syn(t));
  cap.inject(s.data("0123", t));    // delivers chunk -> handler discards
  cap.inject(s.data("4567", t));    // discarded in kernel
  cap.inject(s.data("89ab", t));    // discarded
  cap.inject(s.fin(t));
  cap.stop();
  EXPECT_EQ(data_events, 1);
}

TEST(CaptureTest, PacketDeliveryThroughStreamView) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, true);
  std::vector<std::uint32_t> caplens;
  std::string text;
  cap.dispatch_data([&](StreamView& sd) {
    while (const kernel::PacketRecord* rec = sd.next_packet()) {
      caplens.push_back(rec->caplen);
      auto pay = sd.packet_payload(*rec);
      text.append(pay.begin(), pay.end());
    }
  });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  SessionBuilder s;
  Timestamp t(0);
  cap.inject(s.syn(t));
  cap.inject(s.data("aaa", t));
  cap.inject(s.data("bbbbb", t));
  cap.inject(s.fin(t));
  cap.stop();
  ASSERT_EQ(caplens.size(), 2u);
  EXPECT_EQ(caplens[0], 3u);
  EXPECT_EQ(caplens[1], 5u);
  EXPECT_EQ(text, "aaabbbbb");
}

TEST(CaptureTest, ThreadedModeDeliversEverything) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.set_worker_threads(2);
  std::mutex mu;
  std::uint64_t total_bytes = 0;
  int terminations = 0;
  cap.dispatch_data([&](StreamView& sd) {
    std::scoped_lock lock(mu);
    total_bytes += sd.data_len();
  });
  cap.dispatch_termination([&](StreamView&) {
    std::scoped_lock lock(mu);
    ++terminations;
  });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  Timestamp t(0);
  const int kStreams = 50;
  for (int i = 0; i < kStreams; ++i) {
    SessionBuilder s(client_tuple(static_cast<std::uint16_t>(10000 + i), 80));
    cap.inject(s.syn(t));
    cap.inject(s.data("0123456789ABCDEF", t));
    cap.inject(s.fin(t));
  }
  cap.stop();
  std::scoped_lock lock(mu);
  EXPECT_EQ(total_bytes, 16u * kStreams);
  EXPECT_EQ(terminations, kStreams);
}

TEST(CaptureTest, StatsAggregate) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  SessionBuilder s;
  Timestamp t(0);
  cap.inject(s.syn(t));
  cap.inject(s.data("payload", t));
  cap.inject(s.fin(t));
  cap.stop();
  CaptureStats st = cap.stats();
  EXPECT_EQ(st.kernel.pkts_seen, 3u);
  EXPECT_EQ(st.kernel.bytes_stored, 7u);
  EXPECT_GE(st.events_dispatched, 3u);
}

TEST(CaptureTest, StrictModeEndToEnd) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpStrict, false);
  std::string text;
  cap.dispatch_data(
      [&](StreamView& sd) { text.append(sd.data().begin(), sd.data().end()); });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  SessionBuilder s;
  Timestamp t(0);
  cap.inject(s.syn(t));
  // Out-of-order segments.
  std::uint32_t base = s.client_seq();
  cap.inject(s.data_at(base + 6, "world!", t));
  cap.inject(s.data_at(base, "hello ", t));
  TcpSegmentSpec fin;
  fin.tuple = s.tuple();
  fin.seq = base + 12;
  fin.flags = kTcpFin | kTcpAck;
  cap.inject(make_tcp_packet(fin, t));
  cap.stop();
  EXPECT_EQ(text, "hello world!");
}

// Chunk-buffer recycling (DESIGN.md §7) must never change what a stream
// delivers. Interleaved streams of mixed sizes share each kernel's spare
// list: default chunks with an overlap carry, streams switched to a larger
// and to a smaller chunk_size than the default, and streams that keep
// every other chunk (scap_keep_stream_chunk) — all with need_pkts records.
// Every delivery must be the stream's own bytes at its offset, every packet
// record must point at that packet's bytes, and the deliveries must cover
// each stream without a gap. Run inline and with two worker shards.
class ChunkRecyclingTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkRecyclingTest, DeliveriesMatchTheReferenceStreams) {
  constexpr int kStreams = 48;
  constexpr std::uint32_t kIsn = 1000;  // data starts at kIsn + 1
  constexpr std::uint32_t kOverlap = 48;
  constexpr std::uint32_t kLargeChunk = 40000;  // > the 16 KiB default
  constexpr std::uint32_t kSmallChunk = 3000;   // < the default
  enum Kind { kOverlapCarry, kLarge, kSmall, kKeep };
  auto kind_of = [](std::size_t i) { return static_cast<Kind>(i % 4); };
  auto port_of = [](std::size_t i) {
    return static_cast<std::uint16_t>(20000 + i);
  };

  Rng rng(0xc0ffee);
  std::vector<std::string> truth(kStreams);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    // A third stay under a quarter chunk; the rest span several chunks.
    const std::uint64_t len =
        rng.chance(0.3) ? 50 + rng.bounded(3000) : 5000 + rng.bounded(100000);
    truth[i].resize(len);
    for (auto& ch : truth[i]) ch = static_cast<char>('a' + rng.bounded(26));
  }

  Capture cap("sim0", 1ull << 26, ReassemblyMode::kTcpFast, true);
  cap.set_worker_threads(GetParam());
  std::mutex mu;
  std::vector<std::uint64_t> covered(kStreams, 0);
  std::vector<int> deliveries(kStreams, 0);
  std::vector<std::string> failures;
  auto index_of = [](const StreamView& sd) {
    return static_cast<std::size_t>(sd.tuple().src_port - 20000);
  };
  cap.dispatch_creation([&](StreamView& sd) {
    switch (kind_of(index_of(sd))) {
      case kOverlapCarry:
        sd.set_parameter(Parameter::kOverlapSize, kOverlap);
        break;
      case kLarge:
        sd.set_parameter(Parameter::kChunkSize, kLargeChunk);
        break;
      case kSmall:
        sd.set_parameter(Parameter::kChunkSize, kSmallChunk);
        break;
      case kKeep:
        break;
    }
  });
  cap.dispatch_data([&](StreamView& sd) {
    std::scoped_lock lock(mu);
    const std::size_t i = index_of(sd);
    const std::string& ref = truth[i];
    const std::string got(sd.data().begin(), sd.data().end());
    const std::uint64_t off = sd.stream_offset();
    const std::string where = "stream " + std::to_string(i) + " offset " +
                              std::to_string(off) + ": ";
    if (off > covered[i]) failures.push_back(where + "gap before delivery");
    if (off + got.size() > ref.size() ||
        ref.compare(off, got.size(), got) != 0) {
      failures.push_back(where + "bytes differ from the stream");
    }
    covered[i] = std::max<std::uint64_t>(covered[i], off + got.size());
    while (const kernel::PacketRecord* rec = sd.next_packet()) {
      const std::uint64_t pkt_off = rec->seq - (kIsn + 1);
      const auto pay = sd.packet_payload(*rec);
      if (rec->chunk_offset + rec->caplen > got.size() ||
          pkt_off + pay.size() > ref.size() ||
          ref.compare(pkt_off, pay.size(),
                      std::string(pay.begin(), pay.end())) != 0) {
        failures.push_back(where + "packet record at chunk offset " +
                           std::to_string(rec->chunk_offset) +
                           " does not point at its packet's bytes");
      }
    }
    if (kind_of(i) == kKeep && deliveries[i] % 2 == 0) sd.keep_chunk();
    ++deliveries[i];
  });
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);

  // Round-robin-ish interleave: a random live stream sends its next
  // segment (1..1460 bytes); a finished stream sends its FIN.
  std::vector<SessionBuilder> sessions;
  std::vector<std::uint64_t> sent(kStreams, 0);
  std::vector<Packet> batch;
  Timestamp t(0);
  auto flush_batch = [&] {
    cap.inject_batch(batch);
    batch.clear();
  };
  for (std::size_t i = 0; i < kStreams; ++i) {
    sessions.emplace_back(client_tuple(port_of(i), 80), kIsn);
    batch.push_back(sessions.back().syn(t));
  }
  flush_batch();
  std::vector<std::size_t> live(kStreams);
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
  while (!live.empty()) {
    const std::size_t pick = rng.bounded(live.size());
    const std::size_t i = live[pick];
    t = t + Duration::from_usec(10);
    const std::uint64_t n = std::min<std::uint64_t>(
        1 + rng.bounded(1460), truth[i].size() - sent[i]);
    batch.push_back(sessions[i].data(truth[i].substr(sent[i], n), t));
    sent[i] += n;
    if (sent[i] == truth[i].size()) {
      batch.push_back(sessions[i].fin(t));
      live[pick] = live.back();
      live.pop_back();
    }
    if (batch.size() >= 16) flush_batch();
  }
  flush_batch();
  cap.stop();

  std::scoped_lock lock(mu);
  for (std::size_t i = 0; i < kStreams; ++i) {
    EXPECT_EQ(covered[i], truth[i].size()) << "stream " << i;
  }
  EXPECT_TRUE(failures.empty())
      << failures.size() << " failure(s), first: " << failures.front();
  EXPECT_EQ(cap.stats().kernel.bytes_stored, [&] {
    std::uint64_t total = 0;
    for (const auto& ref : truth) total += ref.size();
    return total;
  }());
}

INSTANTIATE_TEST_SUITE_P(InlineAndTwoWorkers, ChunkRecyclingTest,
                         ::testing::Values(0, 2));

// --- lazy reassembly state ---------------------------------------------------
//
// A stream gets reassembly state only when it is about to store its first
// payload byte. These cases pin what must not change because of that:
// where offset 0 is, chunk geometry set before the first byte, UDP
// offsets, the §5.5 flow size of a stream that never stored a byte, and
// scap_keep_stream_chunk. Each runs inline and with two workers.

struct Delivery {
  std::string bytes;
  std::uint64_t offset = 0;
  std::uint32_t errors = 0;
  bool operator==(const Delivery&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Delivery& d) {
  return os << "{\"" << d.bytes << "\" @" << d.offset << " errors "
            << d.errors << "}";
}

/// Records every delivery and each stream's final statistics (by source
/// port) from whichever thread dispatches them.
struct Recorder {
  std::mutex mu;
  std::vector<Delivery> deliveries;
  std::map<std::uint16_t, kernel::StreamStats> final_stats;
  std::map<std::uint16_t, std::uint32_t> final_errors;
  std::atomic<int> created{0};
  std::atomic<int> delivered{0};

  void record(const StreamView& sd) {
    std::scoped_lock lock(mu);
    deliveries.push_back({std::string(sd.data().begin(), sd.data().end()),
                          sd.stream_offset(), sd.chunk_errors()});
    ++delivered;
  }

  void attach(Capture& cap) {
    cap.dispatch_data([this](StreamView& sd) { record(sd); });
    cap.dispatch_termination([this](StreamView& sd) {
      std::scoped_lock lock(mu);
      final_stats[sd.tuple().src_port] = sd.stats();
      final_errors[sd.tuple().src_port] = sd.error();
    });
  }

  /// Block until `counter` reaches `n`: at once inline; a worker runs the
  /// callbacks after the packets that caused them, asynchronously.
  static void wait_for(const std::atomic<int>& counter, int n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (counter.load() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(counter.load(), n) << "callback never ran";
  }
  void wait_created(int n) { wait_for(created, n); }
};

class LazyReassemblyTest : public ::testing::TestWithParam<int> {
 protected:
  static Packet fin_at(const FiveTuple& tuple, std::uint32_t seq,
                       Timestamp ts) {
    TcpSegmentSpec spec;
    spec.tuple = tuple;
    spec.seq = seq;
    spec.flags = kTcpFin | kTcpAck;
    return make_tcp_packet(spec, ts);
  }
};

// The cutoff goes from 0 to unlimited in the creation callback, after the
// SYN: the stream's first stored byte must land at its offset from the
// SYN's ISN, exactly as in a stream that was never limited. The first
// segment is lost, so the first delivery starts at offset 6 with a hole.
TEST_P(LazyReassemblyTest, CutoffRaisedAfterTheSynMatchesAnUnlimitedStream) {
  auto run = [&](bool start_at_zero) {
    Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
    cap.set_worker_threads(GetParam());
    cap.set_parameter(Parameter::kChunkSize, 8);
    if (start_at_zero) cap.set_cutoff(0);
    Recorder r;
    r.attach(cap);
    cap.dispatch_creation([&](StreamView& sd) {
      if (start_at_zero) sd.set_cutoff(-1);
      ++r.created;
    });
    cap.start();
    {
      kernel::testing::CaptureInvariantGuard guard(cap);
      SessionBuilder s(client_tuple(5001, 80), 1000);
      Timestamp t(0);
      cap.inject(s.syn(t));
      r.wait_created(1);
      s.data("lost!!", t);  // never reaches the capture
      cap.inject(s.data("0123456789", t));
      cap.inject(s.data("abcdefghij", t));
      s.data("XXXX", t);  // a second hole
      cap.inject(s.data("klmnop", t));
      cap.inject(s.fin(t));
      cap.stop();
    }
    EXPECT_EQ(r.final_stats[5001].captured_bytes, 26u);
    return r.deliveries;
  };
  const std::vector<Delivery> raised = run(true);
  const std::vector<Delivery> reference = run(false);
  EXPECT_EQ(raised, reference);
  ASSERT_FALSE(raised.empty());
  EXPECT_EQ(raised.front(), (Delivery{"01234567", 6, kernel::kErrHole}));
}

// No SYN: offset 0 is the first stored segment, as before.
TEST_P(LazyReassemblyTest, MidFlowPickupAnchorsAtTheFirstStoredSegment) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.set_worker_threads(GetParam());
  cap.set_parameter(Parameter::kChunkSize, 8);
  Recorder r;
  r.attach(cap);
  cap.start();
  {
    kernel::testing::CaptureInvariantGuard guard(cap);
    SessionBuilder s(client_tuple(5002, 80), 7000);
    Timestamp t(0);
    cap.inject(s.data("hello", t));
    cap.inject(s.data("world", t));
    s.data("XXXX", t);  // lost
    cap.inject(s.data("again", t));
    cap.inject(s.fin(t));
    cap.stop();
  }
  const std::vector<Delivery> want = {{"hellowor", 0, 0},
                                      {"ldagain", 8, kernel::kErrHole}};
  EXPECT_EQ(r.deliveries, want);
  EXPECT_NE(r.final_errors[5002] & kernel::kErrIncompleteHandshake, 0u);
}

// UDP offsets count stored bytes; a cutoff truncates the datagram that
// crosses it and discards the rest, and a cutoff-0 UDP stream stores
// nothing.
TEST_P(LazyReassemblyTest, UdpStreamsStoreUpToTheirCutoff) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.set_worker_threads(GetParam());
  cap.set_cutoff(10);
  cap.add_cutoff_class(0, "udp and port 6000");
  Recorder r;
  r.attach(cap);
  cap.start();
  {
    kernel::testing::CaptureInvariantGuard guard(cap);
    const FiveTuple limited{0x0a000001, 0x0a000002, 5003, 53, kProtoUdp};
    const FiveTuple zero{0x0a000001, 0x0a000002, 6000, 53, kProtoUdp};
    Timestamp t(0);
    for (const char* d : {"abcdef", "ghijkl", "mnop"}) {
      const std::string text(d);
      for (const FiveTuple& tuple : {limited, zero}) {
        cap.inject(make_udp_packet(tuple, kernel::testing::bytes_of(text), t));
      }
    }
    cap.stop();
  }
  const std::vector<Delivery> want = {{"abcdefghij", 0, 0}};
  EXPECT_EQ(r.deliveries, want);
  EXPECT_EQ(r.final_stats[5003].captured_bytes, 10u);
  EXPECT_EQ(r.final_stats[5003].discarded_pkts, 1u);
  EXPECT_EQ(r.final_stats[6000].captured_bytes, 0u);
  EXPECT_EQ(r.final_stats[6000].discarded_pkts, 3u);
}

// Chunk and overlap sizes set from the creation callback, before the
// stream has reassembly state, shape every chunk it delivers.
TEST_P(LazyReassemblyTest, ChunkGeometrySetBeforeTheFirstByteApplies) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.set_worker_threads(GetParam());
  Recorder r;
  r.attach(cap);
  cap.dispatch_creation([&](StreamView& sd) {
    EXPECT_TRUE(sd.set_parameter(Parameter::kChunkSize, 5));
    EXPECT_TRUE(sd.set_parameter(Parameter::kOverlapSize, 2));
    ++r.created;
  });
  cap.start();
  {
    kernel::testing::CaptureInvariantGuard guard(cap);
    SessionBuilder s(client_tuple(5004, 80));
    Timestamp t(0);
    cap.inject(s.syn(t));
    r.wait_created(1);
    cap.inject(s.data("abcdefghijkl", t));
    cap.inject(s.fin(t));
    cap.stop();
  }
  const std::vector<Delivery> want = {
      {"abcde", 0, 0}, {"defgh", 3, 0}, {"ghijk", 6, 0}, {"jkl", 9, 0}};
  EXPECT_EQ(r.deliveries, want);
}

// Flow statistics of a cutoff-0 stream (§5.5): the FIN's sequence number,
// read against the SYN's ISN, gives the bytes the NIC never handed over —
// the stream never stored one, so there is no reassembler to ask.
TEST_P(LazyReassemblyTest, FinAfterCutoffCountsBytesWithoutReassembly) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.set_worker_threads(GetParam());
  cap.set_cutoff(0);
  Recorder r;
  r.attach(cap);
  cap.start();
  {
    kernel::testing::CaptureInvariantGuard guard(cap);
    SessionBuilder s(client_tuple(5005, 80), 1000);
    Timestamp t(0);
    cap.inject(s.syn(t));
    cap.inject(s.data("0123456789", t));
    cap.inject(fin_at(s.tuple(), 1000 + 1 + 5000, t));
    cap.stop();
  }
  EXPECT_TRUE(r.deliveries.empty());
  EXPECT_EQ(r.final_stats[5005].bytes, 5000u);
  EXPECT_EQ(r.final_stats[5005].captured_bytes, 0u);
}

// scap_keep_stream_chunk needs the stream's reassembler: a stream that got
// one lazily keeps a delivered chunk into its next delivery.
TEST_P(LazyReassemblyTest, KeepChunkMergesIntoTheNextDelivery) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.set_worker_threads(GetParam());
  cap.set_parameter(Parameter::kChunkSize, 8);
  Recorder r;
  r.attach(cap);
  cap.dispatch_data([&](StreamView& sd) {
    if (r.delivered.load() == 0) sd.keep_chunk();
    r.record(sd);
  });
  cap.start();
  {
    kernel::testing::CaptureInvariantGuard guard(cap);
    SessionBuilder s(client_tuple(5006, 80));
    Timestamp t(0);
    cap.inject(s.syn(t));
    cap.inject(s.data("AAAAAAAA", t));
    // Kept only if the stream's next chunk is still being built.
    Recorder::wait_for(r.delivered, 1);
    cap.inject(s.data("BBBBBBBB", t));
    cap.inject(s.fin(t));
    cap.stop();
  }
  const std::vector<Delivery> want = {{"AAAAAAAA", 0, 0},
                                      {"AAAAAAAABBBBBBBB", 0, 0}};
  EXPECT_EQ(r.deliveries, want);
}

INSTANTIATE_TEST_SUITE_P(InlineAndTwoWorkers, LazyReassemblyTest,
                         ::testing::Values(0, 2));

TEST(CaptureTest, StartTwiceThrows) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  cap.start();
  kernel::testing::CaptureInvariantGuard guard(cap);
  EXPECT_THROW(cap.start(), std::logic_error);
}

TEST(CaptureTest, InjectBeforeStartThrows) {
  Capture cap("sim0", 1 << 20, ReassemblyMode::kTcpFast, false);
  SessionBuilder s;
  EXPECT_THROW(cap.inject(s.syn(Timestamp(0))), std::logic_error);
}

}  // namespace
}  // namespace scap
