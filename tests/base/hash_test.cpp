#include "base/hash.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

namespace scap {
namespace {

std::span<const std::byte> bytes_of(const char* s) {
  return std::as_bytes(std::span<const char>(s, std::strlen(s)));
}

TEST(Fnv1a, KnownValues) {
  // FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(bytes_of("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(bytes_of("foobar")), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, SeedChangesHash) {
  EXPECT_NE(fnv1a(bytes_of("abc"), 1), fnv1a(bytes_of("abc"), 2));
}

// Verified against the Microsoft RSS verification suite vectors
// (IPv4, TCP, default key).
TEST(Toeplitz, MicrosoftTestVectors) {
  const RssKey key = default_rss_key();
  struct Vector {
    std::uint32_t src_ip, dst_ip;
    std::uint16_t src_port, dst_port;
    std::uint32_t expected;
  };
  // Input order for the hash: dst_ip, src_ip, dst_port, src_port — as in the
  // Microsoft spec ("source address" first means the remote peer's address;
  // we follow the canonical published vectors).
  const Vector vectors[] = {
      // 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178
      {0x420995bb, 0xa18e6450, 2794, 1766, 0x51ccc178},
      // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
      {0xc75c6f02, 0x41458c53, 14230, 4739, 0xc626b0ea},
  };
  for (const auto& v : vectors) {
    std::uint8_t input[12];
    // Microsoft spec: input = src_addr | dst_addr | src_port | dst_port,
    // where "src" is the packet's source. In the published vectors the
    // first address listed is the destination of the packet.
    input[0] = static_cast<std::uint8_t>(v.src_ip >> 24);
    input[1] = static_cast<std::uint8_t>(v.src_ip >> 16);
    input[2] = static_cast<std::uint8_t>(v.src_ip >> 8);
    input[3] = static_cast<std::uint8_t>(v.src_ip);
    input[4] = static_cast<std::uint8_t>(v.dst_ip >> 24);
    input[5] = static_cast<std::uint8_t>(v.dst_ip >> 16);
    input[6] = static_cast<std::uint8_t>(v.dst_ip >> 8);
    input[7] = static_cast<std::uint8_t>(v.dst_ip);
    input[8] = static_cast<std::uint8_t>(v.src_port >> 8);
    input[9] = static_cast<std::uint8_t>(v.src_port);
    input[10] = static_cast<std::uint8_t>(v.dst_port >> 8);
    input[11] = static_cast<std::uint8_t>(v.dst_port);
    EXPECT_EQ(toeplitz_hash(key, input), v.expected);
  }
}

TEST(Toeplitz, SymmetricKeyIsDirectionInvariant) {
  const RssKey key = symmetric_rss_key();
  auto hash_of = [&](std::uint32_t sip, std::uint32_t dip, std::uint16_t sp,
                     std::uint16_t dp) {
    std::uint8_t input[12] = {
        static_cast<std::uint8_t>(sip >> 24), static_cast<std::uint8_t>(sip >> 16),
        static_cast<std::uint8_t>(sip >> 8),  static_cast<std::uint8_t>(sip),
        static_cast<std::uint8_t>(dip >> 24), static_cast<std::uint8_t>(dip >> 16),
        static_cast<std::uint8_t>(dip >> 8),  static_cast<std::uint8_t>(dip),
        static_cast<std::uint8_t>(sp >> 8),   static_cast<std::uint8_t>(sp),
        static_cast<std::uint8_t>(dp >> 8),   static_cast<std::uint8_t>(dp)};
    return toeplitz_hash(key, input);
  };
  for (std::uint32_t i = 1; i < 50; ++i) {
    std::uint32_t sip = 0x0a000001 + i * 7;
    std::uint32_t dip = 0xc0a80001 + i * 13;
    std::uint16_t sp = static_cast<std::uint16_t>(1024 + i * 3);
    std::uint16_t dp = static_cast<std::uint16_t>(80 + (i % 5));
    EXPECT_EQ(hash_of(sip, dip, sp, dp), hash_of(dip, sip, dp, sp))
        << "direction asymmetry at i=" << i;
  }
}

TEST(Toeplitz, SpreadsFlowsAcrossQueues) {
  const RssKey key = default_rss_key();
  int counts[8] = {};
  for (std::uint32_t i = 0; i < 4000; ++i) {
    std::uint8_t input[12] = {};
    input[3] = static_cast<std::uint8_t>(i & 0xff);
    input[2] = static_cast<std::uint8_t>((i >> 8) & 0xff);
    input[7] = static_cast<std::uint8_t>(i * 7 & 0xff);
    input[9] = static_cast<std::uint8_t>(i * 13 & 0xff);
    counts[toeplitz_hash(key, input) % 8]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 4000 / 8 / 2) << "queue badly underloaded";
    EXPECT_LT(c, 4000 / 8 * 2) << "queue badly overloaded";
  }
}

// The 12-byte input as the three big-endian words ToeplitzTable::hash takes.
std::uint32_t be_word(const std::uint8_t* b) {
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) | b[3];
}

std::uint32_t table_hash(const ToeplitzTable& table, const std::uint8_t* in) {
  return table.hash(be_word(in), be_word(in + 4), be_word(in + 8));
}

TEST(ToeplitzTable, MicrosoftTestVectors) {
  const ToeplitzTable table(default_rss_key());
  // The same published vectors as Toeplitz.MicrosoftTestVectors, in input
  // order: first address, second address, first port, second port.
  EXPECT_EQ(table.hash(0x420995bb, 0xa18e6450, (2794u << 16) | 1766u),
            0x51ccc178u);
  EXPECT_EQ(table.hash(0xc75c6f02, 0x41458c53, (14230u << 16) | 4739u),
            0xc626b0eau);
}

// The table path is bit-identical to the bit-serial reference on 100k
// seeded random inputs per key: the symmetric key RSS runs with,
// Microsoft's default key, and a random key.
TEST(ToeplitzTable, MatchesBitSerialOnRandomInputs) {
  std::mt19937 rng(0x7eb1u);
  RssKey random_key;
  for (std::uint8_t& b : random_key) b = static_cast<std::uint8_t>(rng());
  for (const RssKey& key :
       {symmetric_rss_key(), default_rss_key(), random_key}) {
    const ToeplitzTable table(key);
    std::uint8_t input[ToeplitzTable::kInputBytes];
    for (int i = 0; i < 100000; ++i) {
      for (std::uint8_t& b : input) b = static_cast<std::uint8_t>(rng());
      ASSERT_EQ(table_hash(table, input), toeplitz_hash(key, input))
          << "input " << i;
    }
  }
}

TEST(Mix64, Bijective) {
  EXPECT_NE(mix64(0), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_EQ(mix64(12345), mix64(12345));
}

}  // namespace
}  // namespace scap
