// Property tests: TCP reassembly invariants under randomized segmentation,
// reordering, duplication, and overlap — for every target policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "kernel/reassembly.hpp"

namespace scap::kernel {
namespace {

std::string reconstruct(TcpReassembler& r) {
  std::vector<Chunk> chunks;
  r.flush(chunks);
  std::string out;
  for (const auto& c : chunks) {
    out.append(c.data.begin() + c.overlap_len, c.data.end());
  }
  return out;
}

struct Segment {
  std::uint64_t off;
  std::uint32_t len;
};

/// Cut [0, total) into random segments, then duplicate and shuffle some.
std::vector<Segment> random_segments(Rng& rng, std::uint64_t total) {
  std::vector<Segment> segs;
  std::uint64_t off = 0;
  while (off < total) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(1 + rng.bounded(900), total - off));
    segs.push_back({off, len});
    off += len;
  }
  // Duplicate ~20% of segments (retransmissions), possibly with different
  // boundaries (overlapping re-sends).
  const std::size_t n = segs.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.2)) {
      Segment dup = segs[i];
      if (rng.chance(0.5) && dup.len > 2) {
        // Re-send a shifted window overlapping two original segments.
        const std::uint32_t shift = 1 + static_cast<std::uint32_t>(
                                            rng.bounded(dup.len - 1));
        if (dup.off + shift + dup.len <= total) dup.off += shift;
      }
      segs.push_back(dup);
    }
  }
  // Shuffle (Fisher-Yates).
  for (std::size_t i = segs.size(); i > 1; --i) {
    std::swap(segs[i - 1], segs[rng.bounded(i)]);
  }
  return segs;
}

class ReassemblyProperty
    : public ::testing::TestWithParam<std::tuple<OverlapPolicy, int>> {};

TEST_P(ReassemblyProperty, StrictReconstructsExactlyWithConsistentData) {
  const auto [policy, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const std::uint64_t total = 2000 + rng.bounded(30000);

  // Ground-truth byte stream (every copy of a byte is identical, as in a
  // well-behaved TCP connection).
  std::string truth(total, '\0');
  for (auto& ch : truth) {
    ch = static_cast<char>('a' + rng.bounded(26));
  }

  StreamParams params;
  params.mode = ReassemblyMode::kTcpStrict;
  params.policy = policy;
  params.chunk_size = 1 + static_cast<std::uint32_t>(rng.bounded(8192));
  TcpReassembler r(params, false, /*max_ooo_bytes=*/1ull << 30);
  r.on_syn(0);

  std::vector<Chunk> live;
  for (const Segment& s : random_segments(rng, total)) {
    SegmentMeta meta;
    auto res = r.on_data(
        1 + static_cast<std::uint32_t>(s.off),
        {reinterpret_cast<const std::uint8_t*>(truth.data()) + s.off, s.len},
        meta, live);
    // Consistent copies can never conflict.
    EXPECT_EQ(res.errors & kErrOverlapConflict, 0u);
  }
  std::string got;
  for (const auto& c : live) {
    got.append(c.data.begin() + c.overlap_len, c.data.end());
  }
  got += reconstruct(r);
  ASSERT_EQ(got, truth) << "policy=" << static_cast<int>(policy)
                        << " seed=" << seed;
}

TEST_P(ReassemblyProperty, FastModeNeverDeliversMoreThanSent) {
  const auto [policy, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
  const std::uint64_t total = 1000 + rng.bounded(20000);
  std::string truth(total, 'x');

  StreamParams params;
  params.mode = ReassemblyMode::kTcpFast;
  params.policy = policy;
  params.chunk_size = 4096;
  TcpReassembler r(params, false);
  r.on_syn(0);

  std::uint64_t delivered = 0;
  std::vector<Chunk> completed;
  auto segs = random_segments(rng, total);
  // Drop ~20% of segments entirely (capture loss).
  std::vector<Segment> kept;
  for (const auto& s : segs) {
    if (!rng.chance(0.2)) kept.push_back(s);
  }
  for (const Segment& s : kept) {
    SegmentMeta meta;
    auto res = r.on_data(
        1 + static_cast<std::uint32_t>(s.off),
        {reinterpret_cast<const std::uint8_t*>(truth.data()) + s.off, s.len},
        meta, completed);
    delivered += res.accepted_bytes;
  }
  EXPECT_LE(delivered, total);
  EXPECT_LE(r.stream_offset(), total);
  // Everything flushed still bounded.
  std::uint64_t flushed = 0;
  completed.clear();
  r.flush(completed);
  for (const auto& c : completed) flushed += c.data.size();
  EXPECT_LE(flushed, delivered);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ReassemblyProperty,
    ::testing::Combine(::testing::Values(OverlapPolicy::kFirst,
                                         OverlapPolicy::kLast,
                                         OverlapPolicy::kBsd,
                                         OverlapPolicy::kLinux),
                       ::testing::Range(0, 6)));

// Conflicting overlaps: whichever policy is in force, the reassembled
// stream must equal one of the two sent variants byte-for-byte in the
// contested range — never an interleaving torn WITHIN one overlap region.
TEST(ReassemblyConflicts, ContestedRangeIsCoherentPerPolicy) {
  for (auto policy : {OverlapPolicy::kFirst, OverlapPolicy::kLast}) {
    StreamParams params;
    params.mode = ReassemblyMode::kTcpStrict;
    params.policy = policy;
    params.chunk_size = 1 << 16;
    TcpReassembler r(params, false);
    r.on_syn(0);
    const std::string attack = "AAAAAAAAAAAAAAAA";
    const std::string benign = "BBBBBBBBBBBBBBBB";
    SegmentMeta meta;
    std::vector<Chunk> completed;
    // Hole at the front keeps both copies buffered (policy applies).
    auto to_span = [](const std::string& s) {
      return std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    };
    r.on_data(11, to_span(attack), meta, completed);
    auto res = r.on_data(11, to_span(benign), meta, completed);
    EXPECT_NE(res.errors & kErrOverlapConflict, 0u);
    r.on_data(1, to_span("0123456789"), meta, completed);
    ASSERT_TRUE(completed.empty());
    std::string got = reconstruct(r);
    ASSERT_EQ(got.size(), 26u);
    const std::string contested = got.substr(10);
    EXPECT_TRUE(contested == attack || contested == benign) << contested;
    EXPECT_EQ(contested, policy == OverlapPolicy::kFirst ? attack : benign);
  }
}

}  // namespace
}  // namespace scap::kernel
