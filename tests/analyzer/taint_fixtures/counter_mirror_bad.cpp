// Bad twin for rule counter-mirror: KernelStats grows counters that the
// reports never see — the exact bug class where a counter is added on the
// hot path but silently vanishes. orphan_counter is counted and dumped but
// never mirrored into the C API stats; undumped_counter is counted and
// mirrored but chaos_run never prints it. In fixture mode namespace `capi`
// stands in for src/scap/capi.cpp and namespace `chaos_run` for
// tools/chaos_run.cpp. Findings carry no chain, hence the "-" sentinel.
typedef unsigned long uint64_t;

namespace scap::kernel {

struct KernelStats {
  uint64_t pkts_seen = 0;
  uint64_t orphan_counter = 0;  // expect-chain: counter-mirror: -
  uint64_t undumped_counter = 0;  // expect-chain: counter-mirror: -
};

inline void count(KernelStats& k) {
  ++k.pkts_seen;
  k.orphan_counter += 2;
  k.undumped_counter++;
}

}  // namespace scap::kernel

namespace scap::capi {

struct ApiStats {
  uint64_t pkts_seen;
  uint64_t undumped_counter;
};

inline void mirror(const kernel::KernelStats& k, ApiStats& out) {
  out.pkts_seen = k.pkts_seen;
  out.undumped_counter = k.undumped_counter;
}

}  // namespace scap::capi

namespace scap::chaos_run {

inline uint64_t dump(const kernel::KernelStats& k) {
  return k.pkts_seen + k.orphan_counter;
}

}  // namespace scap::chaos_run
