// Receive-Side Scaling: maps a packet's 4-tuple to an RX queue with the
// Toeplitz hash, exactly as commodity NICs do. Scap programs a symmetric key
// (Woo & Park) so both directions of a TCP connection hash to the same queue
// and therefore to the same core (paper §4.2). The engine precomputes its
// key's Toeplitz tables once, so steering a packet is 24 table loads.
#pragma once

#include "base/hash.hpp"
#include "base/hotpath.hpp"
#include "packet/packet.hpp"

namespace scap::nic {

class RssEngine {
 public:
  RssEngine(const RssKey& key, int num_queues)
      : table_(key), num_queues_(num_queues > 0 ? num_queues : 1) {}

  /// Queue index for this packet. Non-IP / port-less packets hash on the
  /// address pair only (ports zero), as real hardware does for non-TCP/UDP.
  SCAP_HOT int queue_for(const Packet& pkt) const;

  /// Queue index for an explicit tuple (used when installing filters).
  SCAP_HOT int queue_for(const FiveTuple& tuple) const;

  int num_queues() const { return num_queues_; }

 private:
  ToeplitzTable table_;
  int num_queues_;
};

}  // namespace scap::nic
