// Hash functions used across the capture pipeline.
//
//  - fnv1a: flow-table bucket hashing (seeded, so an adversary cannot
//    precompute collisions — the paper picks a random hash function at
//    module-init time for the same reason, §5.2).
//  - Toeplitz: the RSS hash implemented by commodity NICs; used by the NIC
//    model to spread flows across RX queues. We also provide the
//    symmetric-seed variant of Woo & Park so both directions of a TCP
//    connection land on the same queue (paper §4.2). toeplitz_hash is the
//    bit-serial reference; ToeplitzTable is the per-key table-driven form
//    the RSS engine runs per packet.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "base/hotpath.hpp"

namespace scap {

/// Seeded FNV-1a over arbitrary bytes.
SCAP_HOT std::uint64_t fnv1a(std::span<const std::byte> data,
                             std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Convenience overload for trivially-copyable keys.
template <typename T>
std::uint64_t fnv1a_of(const T& value, std::uint64_t seed = 0xcbf29ce484222325ULL) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(std::as_bytes(std::span<const T, 1>(&value, 1)), seed);
}

/// 40-byte RSS key, as programmed into real NICs.
using RssKey = std::array<std::uint8_t, 40>;

/// Microsoft's default RSS key (the one most drivers ship with).
RssKey default_rss_key();

/// A symmetric RSS key: every 16-bit lane is identical, so swapping
/// (src ip, src port) with (dst ip, dst port) yields the same hash.
/// This is the Woo & Park construction the paper adopts in §4.2.
RssKey symmetric_rss_key(std::uint16_t lane = 0x6d5a);

/// Toeplitz hash over `input` with the given key. Input is at most 36 bytes
/// for the IPv4 4-tuple case; we support any input that fits the key window.
/// Bit-serial reference implementation: the published verification vectors
/// pin it, and ToeplitzTable is tested bit-identical against it.
std::uint32_t toeplitz_hash(const RssKey& key,
                            std::span<const std::uint8_t> input);

/// Table-driven Toeplitz hash of the 12-byte IPv4 RSS input (address pair,
/// then port pair) for one key. The hash is linear over GF(2): each input
/// nibble contributes the XOR of the key windows its set bits select, so a
/// 16-entry table per nibble position turns the 96 conditional window
/// shifts into 24 loads and XORs. 24 x 16 x 4 bytes = 1.5 KB per key, built
/// once by the constructor (384 XORs). Equal to toeplitz_hash(key, input)
/// for every input (tests/base/hash_test.cpp).
class ToeplitzTable {
 public:
  static constexpr std::size_t kInputBytes = 12;

  explicit ToeplitzTable(const RssKey& key);

  /// Hash of the input whose 12 bytes are w0, w1, w2 in big-endian order.
  SCAP_HOT std::uint32_t hash(std::uint32_t w0, std::uint32_t w1,
                              std::uint32_t w2) const {
    return word(0, w0) ^ word(8, w1) ^ word(16, w2);
  }

 private:
  /// XOR of the eight nibble tables of one input word, most significant
  /// nibble first (nibble position `first` onwards).
  std::uint32_t word(std::size_t first, std::uint32_t w) const {
    std::uint32_t h = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      h ^= nibble_[first + i][(w >> (28 - 4 * i)) & 0xfu];
    }
    return h;
  }

  std::array<std::array<std::uint32_t, 16>, kInputBytes * 2> nibble_{};
};

/// Mix a 64-bit value (splitmix64 finalizer); used to derive per-run seeds.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace scap
