#include "nic/rss.hpp"

namespace scap::nic {

int RssEngine::queue_for(const FiveTuple& tuple) const {
  // Canonicalize the 4-tuple before hashing: order the two endpoints so
  // both directions of a flow produce the same Toeplitz input. With the
  // symmetric key this was already direction-independent; canonicalizing
  // makes it so for *any* key, which is what the sharded kernel's flow
  // affinity rests on — a flow's packets must never cross shards
  // (DESIGN.md §12). Endpoints are ordered by (ip, port) lexicographically.
  std::uint32_t lo_ip = tuple.src_ip, hi_ip = tuple.dst_ip;
  std::uint16_t lo_port = tuple.src_port, hi_port = tuple.dst_port;
  if (hi_ip < lo_ip || (hi_ip == lo_ip && hi_port < lo_port)) {
    lo_ip = tuple.dst_ip;
    hi_ip = tuple.src_ip;
    lo_port = tuple.dst_port;
    hi_port = tuple.src_port;
  }
  // Toeplitz input: both addresses, then both ports, big-endian.
  const std::uint32_t ports = (static_cast<std::uint32_t>(lo_port) << 16) |
                              hi_port;
  const std::uint32_t hash = table_.hash(lo_ip, hi_ip, ports);
  return static_cast<int>(hash % static_cast<std::uint32_t>(num_queues_));
}

int RssEngine::queue_for(const Packet& pkt) const {
  // scap-lint: allow(hot-recursion) overload delegation (callgraph merges overloads by name)
  return queue_for(pkt.tuple());
}

}  // namespace scap::nic
