// Good twin for rule counter-mirror: every KernelStats field is counted by
// kernel code (a running max over a local counts too — it reads the
// field only through its own receiver), summed across shards, mirrored
// into the C API stats and dumped by chaos_run. Zero findings.
typedef unsigned long uint64_t;

namespace scap::kernel {

struct KernelStats {
  uint64_t pkts_seen = 0;
  uint64_t bytes_seen = 0;
  uint64_t depth_peak = 0;
  uint64_t verdicts[4] = {};
};

inline void count(KernelStats& k, uint64_t len, uint64_t depth, int v) {
  ++k.pkts_seen;
  k.bytes_seen += len;
  if (depth > k.depth_peak) k.depth_peak = depth;
  ++k.verdicts[v];
}

inline void accumulate(KernelStats& into, const KernelStats& s) {
  into.pkts_seen += s.pkts_seen;
  into.bytes_seen += s.bytes_seen;
  if (s.depth_peak > into.depth_peak) into.depth_peak = s.depth_peak;
  for (int i = 0; i < 4; ++i) into.verdicts[i] += s.verdicts[i];
}

}  // namespace scap::kernel

namespace scap::capi {

struct ApiStats {
  uint64_t pkts_seen;
  uint64_t bytes_seen;
  uint64_t depth_peak;
  uint64_t verdicts[4];
};

inline void mirror(const kernel::KernelStats& k, ApiStats& out) {
  out.pkts_seen = k.pkts_seen;
  out.bytes_seen = k.bytes_seen;
  out.depth_peak = k.depth_peak;
  for (int i = 0; i < 4; ++i) out.verdicts[i] = k.verdicts[i];
}

}  // namespace scap::capi

namespace scap::chaos_run {

inline uint64_t dump(const kernel::KernelStats& k) {
  return k.pkts_seen + k.bytes_seen + k.depth_peak + k.verdicts[0];
}

}  // namespace scap::chaos_run
