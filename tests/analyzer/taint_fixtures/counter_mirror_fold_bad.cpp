// Bad twin for rule counter-mirror, dead-counter half: lost_counter is
// mirrored and dumped, and the shard-sum fold names it like every other
// field — but no kernel code ever counts anything into it. A fold that
// copies or sums a field from another stats object proves nothing about
// the field being live, so it does not count as a write.
typedef unsigned long uint64_t;

namespace scap::kernel {

struct KernelStats {
  uint64_t pkts_seen = 0;
  uint64_t lost_counter = 0;  // expect-chain: counter-mirror: -
};

inline void count(KernelStats& k) {
  ++k.pkts_seen;
}

inline void accumulate(KernelStats& into, const KernelStats& s) {
  into.pkts_seen += s.pkts_seen;
  into.lost_counter += s.lost_counter;
}

}  // namespace scap::kernel

namespace scap::capi {

struct ApiStats {
  uint64_t pkts_seen;
  uint64_t lost_counter;
};

inline void mirror(const kernel::KernelStats& k, ApiStats& out) {
  out.pkts_seen = k.pkts_seen;
  out.lost_counter = k.lost_counter;
}

}  // namespace scap::capi

namespace scap::chaos_run {

inline uint64_t dump(const kernel::KernelStats& k) {
  return k.pkts_seen + k.lost_counter;
}

}  // namespace scap::chaos_run
