#include "kernel/reassembly.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

namespace scap::kernel {
namespace {

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string str_of(const std::vector<std::uint8_t>& v) {
  return std::string(v.begin(), v.end());
}

StreamParams params(ReassemblyMode mode, std::uint32_t chunk = 64,
                    std::uint32_t overlap = 0) {
  StreamParams p;
  p.mode = mode;
  p.chunk_size = chunk;
  p.overlap_size = overlap;
  return p;
}

SegmentMeta meta_at(std::int64_t us, std::uint32_t seq = 0) {
  SegmentMeta m;
  m.ts = Timestamp::from_usec(us);
  m.seq_raw = seq;
  return m;
}

// The chunks one ChunkBuilder::append call completes.
std::vector<Chunk> append(ChunkBuilder& b, std::span<const std::uint8_t> data,
                          const SegmentMeta& meta, std::uint64_t stream_off) {
  std::vector<Chunk> done;
  b.append(data, meta, stream_off, done);
  return done;
}

// The chunks TcpReassembler::flush delivers.
std::vector<Chunk> flush_all(TcpReassembler& r) {
  std::vector<Chunk> chunks;
  r.flush(chunks);
  return chunks;
}

// --- ChunkBuilder -----------------------------------------------------------

TEST(ChunkBuilder, AccumulatesUntilChunkSize) {
  ChunkBuilder b(8, 0, false);
  auto done = append(b, bytes_of("abc"), meta_at(0), 0);
  EXPECT_TRUE(done.empty());
  done = append(b, bytes_of("defgh"), meta_at(1), 3);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(str_of(done[0].data), "abcdefgh");
  EXPECT_EQ(done[0].stream_offset, 0u);
  EXPECT_FALSE(b.has_data());
}

TEST(ChunkBuilder, SplitsLargePayloadAcrossChunks) {
  ChunkBuilder b(4, 0, false);
  auto done = append(b, bytes_of("0123456789"), meta_at(0), 0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(str_of(done[0].data), "0123");
  EXPECT_EQ(str_of(done[1].data), "4567");
  EXPECT_EQ(done[1].stream_offset, 4u);
  auto rest = b.flush();
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(str_of(rest->data), "89");
  EXPECT_EQ(rest->stream_offset, 8u);
}

TEST(ChunkBuilder, OverlapCarriesTailIntoNextChunk) {
  ChunkBuilder b(8, 3, false);
  auto done = append(b, bytes_of("abcdefgh"), meta_at(0), 0);
  ASSERT_EQ(done.size(), 1u);
  // Next chunk starts pre-seeded with "fgh".
  done = append(b, bytes_of("ijklm"), meta_at(1), 8);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(str_of(done[0].data), "fghijklm");
  EXPECT_EQ(done[0].overlap_len, 3u);
  EXPECT_EQ(done[0].stream_offset, 5u);  // 8 - overlap
}

TEST(ChunkBuilder, FlushEmptyReturnsNullopt) {
  ChunkBuilder b(8, 0, false);
  EXPECT_FALSE(b.flush().has_value());
}

TEST(ChunkBuilder, PureOverlapChunkNotDelivered) {
  ChunkBuilder b(4, 2, false);
  append(b, bytes_of("abcd"), meta_at(0), 0);  // completes, seeds "cd"
  auto flushed = b.flush();
  EXPECT_FALSE(flushed.has_value());  // only the repeated tail: no new bytes
}

TEST(ChunkBuilder, ErrorsAttachToCurrentChunk) {
  ChunkBuilder b(8, 0, false);
  append(b, bytes_of("abc"), meta_at(0), 0);
  b.flag_error(kErrHole);
  auto flushed = b.flush();
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->errors & kErrHole, kErrHole);
  // Next chunk starts clean.
  append(b, bytes_of("x"), meta_at(1), 3);
  auto next = b.flush();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->errors, 0u);
}

TEST(ChunkBuilder, PacketRecordsTrackOffsets) {
  ChunkBuilder b(100, 0, true);
  SegmentMeta m1 = meta_at(10, 1000);
  m1.wire_payload = 3;
  append(b, bytes_of("abc"), m1, 0);
  SegmentMeta m2 = meta_at(20, 1003);
  m2.wire_payload = 5;
  append(b, bytes_of("defgh"), m2, 3);
  auto c = b.flush();
  ASSERT_TRUE(c.has_value());
  ASSERT_EQ(c->packets.size(), 2u);
  EXPECT_EQ(c->packets[0].chunk_offset, 0u);
  EXPECT_EQ(c->packets[0].caplen, 3u);
  EXPECT_EQ(c->packets[0].ts.usec(), 10);
  EXPECT_EQ(c->packets[1].chunk_offset, 3u);
  EXPECT_EQ(c->packets[1].seq, 1003u);
}

TEST(ChunkBuilder, RetainMergesKeptChunkWithNext) {
  ChunkBuilder b(4, 0, false);
  auto done = append(b, bytes_of("abcd"), meta_at(0), 0);
  ASSERT_EQ(done.size(), 1u);
  b.retain(std::move(done[0]));
  done = append(b, bytes_of("efgh"), meta_at(1), 4);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(str_of(done[0].data), "abcdefgh");
}

TEST(ChunkBuilder, RetainMergeShiftsPacketRecordOffsets) {
  ChunkBuilder b(4, 0, true);
  SegmentMeta m1 = meta_at(10, 1000);
  m1.wire_payload = 4;
  auto done = append(b, bytes_of("abcd"), m1, 0);
  ASSERT_EQ(done.size(), 1u);
  b.retain(std::move(done[0]));
  // The next chunk completes from two segments; its packet records are
  // relative to that chunk and must be shifted by the retained prefix.
  SegmentMeta m2 = meta_at(20, 1004);
  m2.wire_payload = 2;
  append(b, bytes_of("ef"), m2, 4);
  SegmentMeta m3 = meta_at(30, 1006);
  m3.wire_payload = 2;
  done = append(b, bytes_of("gh"), m3, 6);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(str_of(done[0].data), "abcdefgh");
  ASSERT_EQ(done[0].packets.size(), 3u);
  EXPECT_EQ(done[0].packets[0].chunk_offset, 0u);  // retained chunk's record
  EXPECT_EQ(done[0].packets[1].chunk_offset, 4u);  // "ef", shifted by prefix
  EXPECT_EQ(done[0].packets[2].chunk_offset, 6u);  // "gh", shifted by prefix
  EXPECT_EQ(done[0].packets[1].seq, 1004u);
  EXPECT_EQ(done[0].packets[2].seq, 1006u);
}

// --- ChunkBufferPool and the buffer rule -----------------------------------

TEST(ChunkBufferPool, KeepsFullSizeBuffersUpToTheCap) {
  ChunkBufferPool pool(64);
  std::vector<std::uint8_t> small;
  small.reserve(32);
  pool.give(std::move(small));  // below min_capacity: freed, not kept
  EXPECT_EQ(pool.take(64).capacity(), 64u);

  for (std::size_t i = 0; i <= ChunkBufferPool::kMaxSpares; ++i) {
    std::vector<std::uint8_t> buf(5, 0x7f);
    buf.reserve(128);
    pool.give(std::move(buf));
  }
  for (std::size_t i = 0; i < ChunkBufferPool::kMaxSpares; ++i) {
    const auto buf = pool.take(64);
    EXPECT_EQ(buf.capacity(), 128u);  // a spare, larger than asked
    EXPECT_TRUE(buf.empty());
  }
  EXPECT_EQ(pool.take(64).capacity(), 64u);  // the extra one was freed

  std::vector<std::uint8_t> buf;
  buf.reserve(64);
  pool.give(std::move(buf));
  EXPECT_EQ(pool.take(100).capacity(), 100u);  // spare too small: fresh
}

TEST(ChunkBuilder, PromotesToAChunkSizeBufferPastAQuarter) {
  ChunkBufferPool pool(64);
  ChunkBuilder b(64, 0, false, &pool);
  std::vector<Chunk> done;
  b.append(bytes_of("0123456789"), meta_at(0), 0, done);  // 10 <= 16
  b.append(bytes_of("abcdef"), meta_at(1), 10, done);     // 16 <= 16
  b.append(bytes_of("g"), meta_at(2), 16, done);          // crosses 16
  b.append(bytes_of(std::string(47, 'z')), meta_at(3), 17, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].data.capacity(), 64u);
  EXPECT_EQ(str_of(done[0].data), "0123456789abcdefg" + std::string(47, 'z'));

  // The stream has filled a chunk: the next chunk's first byte takes the
  // spare the consumer gave back.
  const std::uint8_t* recycled = done[0].data.data();
  pool.give(std::move(done[0].data));
  b.append(bytes_of("h"), meta_at(4), 64, done);
  auto rest = b.flush();
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(str_of(rest->data), "h");
  EXPECT_EQ(rest->data.data(), recycled);
}

TEST(ChunkBuilder, SmallChunksKeepVectorGrowth) {
  ChunkBufferPool pool(64);
  ChunkBuilder b(64, 0, false, &pool);
  std::vector<Chunk> done;
  b.append(bytes_of("0123456789"), meta_at(0), 0, done);
  auto c = b.flush();
  ASSERT_TRUE(c.has_value());
  EXPECT_LT(c->data.capacity(), 64u);
}

// --- TcpReassembler: fast mode ----------------------------------------------

TEST(TcpReassemblerFast, InOrderDelivery) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(999);  // data starts at 1000
  auto res = r.on_data(1000, bytes_of("hello "), meta_at(0), out);
  EXPECT_EQ(res.accepted_bytes, 6u);
  res = r.on_data(1006, bytes_of("world"), meta_at(1), out);
  EXPECT_EQ(res.accepted_bytes, 5u);
  auto chunks = flush_all(r);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(str_of(chunks[0].data), "hello world");
  EXPECT_EQ(chunks[0].errors, 0u);
}

TEST(TcpReassemblerFast, RetransmissionDiscarded) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  r.on_data(1, bytes_of("abcdef"), meta_at(0), out);
  auto res = r.on_data(1, bytes_of("abcdef"), meta_at(1), out);
  EXPECT_EQ(res.accepted_bytes, 0u);
  EXPECT_EQ(res.dup_bytes, 6u);
  auto chunks = flush_all(r);
  EXPECT_EQ(str_of(chunks[0].data), "abcdef");
}

TEST(TcpReassemblerFast, PartialOverlapTrimmed) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  r.on_data(1, bytes_of("abcdef"), meta_at(0), out);
  // Segment re-sends "def" and adds "ghi".
  auto res = r.on_data(4, bytes_of("defghi"), meta_at(1), out);
  EXPECT_EQ(res.accepted_bytes, 3u);
  EXPECT_EQ(res.dup_bytes, 3u);
  auto chunks = flush_all(r);
  EXPECT_EQ(str_of(chunks[0].data), "abcdefghi");
}

TEST(TcpReassemblerFast, HoleWrittenThroughAndFlagged) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  r.on_data(1, bytes_of("abc"), meta_at(0), out);
  // Segment at offset 10 — bytes [3,10) lost.
  auto res = r.on_data(11, bytes_of("xyz"), meta_at(1), out);
  EXPECT_EQ(res.errors & kErrHole, kErrHole);
  EXPECT_EQ(res.accepted_bytes, 3u);
  auto chunks = flush_all(r);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(str_of(chunks[0].data), "abcxyz");  // hole skipped, not padded
  EXPECT_EQ(chunks[0].errors & kErrHole, kErrHole);
  EXPECT_EQ(r.stream_offset(), 13u);  // offset advanced past the hole
}

TEST(TcpReassemblerFast, LateSegmentAfterHoleIsDuplicate) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  r.on_data(1, bytes_of("abc"), meta_at(0), out);
  r.on_data(11, bytes_of("xyz"), meta_at(1), out);  // hole [3,10)
  // The missing segment finally arrives — too late in fast mode.
  auto res = r.on_data(4, bytes_of("1234567"), meta_at(2), out);
  EXPECT_EQ(res.accepted_bytes, 0u);
  EXPECT_EQ(res.dup_bytes, 7u);
}

TEST(TcpReassemblerFast, MidFlowPickupAnchorsAtFirstSegment) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  // No SYN observed; first data seg anchors offset 0.
  auto res = r.on_data(777777, bytes_of("data"), meta_at(0), out);
  EXPECT_EQ(res.accepted_bytes, 4u);
  EXPECT_EQ(r.stream_offset(), 4u);
}

TEST(TcpReassemblerFast, SequenceWraparound) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  const std::uint32_t isn = 0xfffffff0;
  r.on_syn(isn);  // data starts at 0xfffffff1
  std::string a(20, 'a');
  auto res = r.on_data(isn + 1, bytes_of(a), meta_at(0), out);  // wraps past 0
  EXPECT_EQ(res.accepted_bytes, 20u);
  auto res2 = r.on_data(isn + 21, bytes_of("bb"), meta_at(1), out);
  EXPECT_EQ(res2.accepted_bytes, 2u);
  EXPECT_EQ(r.stream_offset(), 22u);
  auto chunks = flush_all(r);
  EXPECT_EQ(chunks[0].data.size(), 22u);
}

TEST(TcpReassemblerFast, AbsurdJumpRejected) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  r.on_data(1, bytes_of("abc"), meta_at(0), out);
  auto res = r.on_data(0x7f000000, bytes_of("zzz"), meta_at(1), out);
  EXPECT_EQ(res.accepted_bytes, 0u);
  EXPECT_EQ(res.errors & kErrInvalidSeq, kErrInvalidSeq);
}

// --- TcpReassembler: strict mode --------------------------------------------

TEST(TcpReassemblerStrict, ReordersOutOfOrderSegments) {
  TcpReassembler r(params(ReassemblyMode::kTcpStrict, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  auto res1 = r.on_data(4, bytes_of("def"), meta_at(0), out);  // future
  EXPECT_EQ(res1.accepted_bytes, 3u);  // buffered, not delivered
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(r.ooo_buffered(), 3u);
  auto res2 = r.on_data(1, bytes_of("abc"), meta_at(1), out);  // fills the hole
  EXPECT_EQ(res2.accepted_bytes, 3u);
  auto chunks = flush_all(r);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(str_of(chunks[0].data), "abcdef");
  EXPECT_EQ(chunks[0].errors, 0u);
  EXPECT_EQ(r.ooo_buffered(), 0u);
}

TEST(TcpReassemblerStrict, HeavyReorderingReconstructsExactly) {
  TcpReassembler r(params(ReassemblyMode::kTcpStrict, 4096), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  // Segments delivered in a scrambled order.
  const std::string text = "the quick brown fox jumps over the lazy dog!!";
  const std::size_t seg = 5;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < text.size(); i += seg) order.push_back(i);
  // Deterministic scramble.
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    std::swap(order[i], order[i + 1]);
  }
  for (std::size_t off : order) {
    const std::string piece = text.substr(off, seg);
    r.on_data(static_cast<std::uint32_t>(1 + off), bytes_of(piece),
              meta_at(static_cast<std::int64_t>(off)), out);
  }
  auto chunks = flush_all(r);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(str_of(chunks[0].data), text);
}

TEST(TcpReassemblerStrict, FlushDeliversBufferedWithHoleFlag) {
  TcpReassembler r(params(ReassemblyMode::kTcpStrict, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  r.on_data(1, bytes_of("abc"), meta_at(0), out);
  // [9..] buffered, hole [3,9)
  r.on_data(10, bytes_of("xyz"), meta_at(1), out);
  auto chunks = flush_all(r);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(str_of(chunks[0].data), "abcxyz");
  EXPECT_EQ(chunks[0].errors & kErrHole, kErrHole);
}

TEST(TcpReassemblerStrict, OverlapConflictFlagged) {
  TcpReassembler r(params(ReassemblyMode::kTcpStrict, 1024), false);
  std::vector<Chunk> out;
  r.on_syn(0);
  r.on_data(5, bytes_of("AAAA"), meta_at(0), out);  // buffered at off 4
  auto res = r.on_data(5, bytes_of("BBBB"), meta_at(1), out);
  EXPECT_EQ(res.errors & kErrOverlapConflict, kErrOverlapConflict);
}

TEST(TcpReassemblerStrict, OooBufferOverflowDegradesGracefully) {
  TcpReassembler r(params(ReassemblyMode::kTcpStrict, 1 << 20), false,
                   /*max_ooo_bytes=*/1024);
  std::vector<Chunk> out;
  r.on_syn(0);
  // Never send offset 0; flood with disjoint future segments.
  std::string block(128, 'x');
  std::uint32_t seq = 101;
  std::uint32_t all_errors = 0;
  for (int i = 0; i < 20; ++i) {
    auto res = r.on_data(seq, bytes_of(block), meta_at(i), out);
    all_errors |= res.errors;
    seq += 256;  // leave holes so nothing merges
  }
  EXPECT_EQ(all_errors & kErrBufferOverflow, kErrBufferOverflow);
  EXPECT_LE(r.ooo_buffered(), 1024u);
  // Data was force-delivered rather than silently dropped.
  auto chunks = flush_all(r);
  std::size_t delivered = 0;
  for (const auto& c : chunks) delivered += c.data.size();
  EXPECT_GT(delivered, 1024u);
}

TEST(TcpReassemblerStrict, PolicyAppliedToBufferedOverlaps) {
  for (auto policy : {OverlapPolicy::kFirst, OverlapPolicy::kLast}) {
    StreamParams p = params(ReassemblyMode::kTcpStrict, 1024);
    p.policy = policy;
    TcpReassembler r(p, false);
    std::vector<Chunk> out;
    r.on_syn(0);
    r.on_data(5, bytes_of("ATTACK"), meta_at(0), out);
    r.on_data(5, bytes_of("BENIGN"), meta_at(1), out);
    r.on_data(1, bytes_of("head"), meta_at(2), out);
    auto chunks = flush_all(r);
    ASSERT_EQ(chunks.size(), 1u);
    const std::string expected =
        policy == OverlapPolicy::kFirst ? "headATTACK" : "headBENIGN";
    EXPECT_EQ(str_of(chunks[0].data), expected);
  }
}

// --- UDP / datagram path ----------------------------------------------------

TEST(TcpReassembler, DatagramsConcatenate) {
  TcpReassembler r(params(ReassemblyMode::kTcpFast, 1024), false);
  std::vector<Chunk> out;
  r.on_datagram(bytes_of("q1"), meta_at(0), out);
  r.on_datagram(bytes_of("q2"), meta_at(1), out);
  auto chunks = flush_all(r);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(str_of(chunks[0].data), "q1q2");
  EXPECT_EQ(r.stream_offset(), 4u);
}

// --- Parameterized sweep: chunk sizes ---------------------------------------

class ChunkSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChunkSizeSweep, AllBytesDeliveredExactlyOnce) {
  const std::uint32_t chunk_size = GetParam();
  StreamParams p = params(ReassemblyMode::kTcpFast, chunk_size);
  TcpReassembler r(p, false);
  std::vector<Chunk> out;
  r.on_syn(0);
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "segment-" + std::to_string(i) + "|";
  }
  std::vector<Chunk> all;
  std::size_t pos = 0;
  std::uint32_t seq = 1;
  while (pos < text.size()) {
    const std::size_t n = std::min<std::size_t>(37, text.size() - pos);
    r.on_data(seq, bytes_of(text.substr(pos, n)),
              meta_at(static_cast<std::int64_t>(pos)), all);
    pos += n;
    seq += static_cast<std::uint32_t>(n);
  }
  r.flush(all);
  std::string got;
  for (const auto& c : all) {
    got.append(c.data.begin() + c.overlap_len, c.data.end());
  }
  EXPECT_EQ(got, text);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkSizeSweep,
                         ::testing::Values(1, 7, 64, 512, 4096, 16384));

// One offset formula serves the reassembler and streams without one: the
// 32-bit distance from the next expected byte, across sequence wrap,
// clamped at offset 0.
TEST(StreamOffset, MapsAcrossSequenceWrapAndClampsBeforeTheBase) {
  EXPECT_EQ(stream_offset_of(0xfffffff0u, 0, 0x10u), 0x20u);
  EXPECT_EQ(stream_offset_of(1001, 0, 1001), 0u);
  EXPECT_EQ(stream_offset_of(1001, 0, 900), 0u);
  EXPECT_EQ(signed_stream_offset(1001, 0, 900), -101);
  // Past 4 GiB the high bits come from next_off.
  const std::uint64_t far = (1ull << 32) + 100;
  EXPECT_EQ(stream_offset_of(0, far, 150), far + 50);
}

// Spares come back reset for the next stream's parameters; a give-back
// never grows the pool, and one it did not create is simply freed.
TEST(ReassemblerPool, RecyclesResetReassemblersAndCountsWhatItCreated) {
  ChunkBufferPool buffers(64);
  ReassemblerPool pool(&buffers);
  std::vector<Chunk> done;

  std::unique_ptr<TcpReassembler> a =
      pool.take(params(ReassemblyMode::kTcpFast, 4), false);
  a->on_syn(1000);
  a->on_data(1001, bytes_of("abcdef"), meta_at(1), done);
  ASSERT_EQ(done.size(), 1u);  // "abcd"; "ef" stays buffered
  TcpReassembler* const first = a.get();
  pool.give(std::move(a));
  pool.give(nullptr);
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.spares(), 1u);

  std::unique_ptr<TcpReassembler> b =
      pool.take(params(ReassemblyMode::kTcpFast, 8), false);
  EXPECT_EQ(b.get(), first);
  EXPECT_EQ(pool.spares(), 0u);
  EXPECT_FALSE(b->builder().has_data());
  EXPECT_EQ(b->builder().chunk_size(), 8u);
  EXPECT_EQ(b->offset_of(5000), std::nullopt);  // no base until SYN/data

  std::unique_ptr<TcpReassembler> c =
      pool.take(params(ReassemblyMode::kTcpFast), false);
  EXPECT_EQ(pool.created(), 2u);
  pool.give(std::move(b));
  pool.give(std::move(c));
  pool.give(std::make_unique<TcpReassembler>(
      params(ReassemblyMode::kTcpFast), false));
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.spares(), 2u);
}

}  // namespace
}  // namespace scap::kernel
