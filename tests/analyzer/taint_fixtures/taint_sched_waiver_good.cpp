// Good twin for the taint-sched waiver limit — the two waiver shapes the
// sharded datapath relies on, next to deterministic writes they must not
// excuse and do not. A sink-line waiver lets a liveness trace event carry
// the heartbeat; a call-edge waiver discharges a callee whose taint drains
// only into a kSchedulingDependent field (the .inc registry), so the
// caller's deterministic writes on other lines stay clean.
#define SCAP_TRACE_EVENT(...) (void)0
typedef unsigned long uint64_t;

namespace scap::kernel {

struct KernelStats {
  uint64_t worker_stalls = 0;
  uint64_t peak_depth = 0;
};

struct Cell {
  uint64_t v = 0;
  uint64_t load() const {
    return v;
  }
};

class Shard {
 public:
  void declare_stall(uint64_t pushed) {
    const uint64_t outstanding = pushed - processed.load();
    // scap-lint: allow(taint-sched) trace payload only: the event reports liveness, which is schedule state
    SCAP_TRACE_EVENT(outstanding);
  }
  void fold_peak(KernelStats& k) {
    const uint64_t d = occupancy_peak.load();
    if (d > k.peak_depth) k.peak_depth = d;
  }
  void fold(KernelStats& k, uint64_t stalls) {
    k.worker_stalls += stalls;
    // scap-lint: allow(taint-sched) discharged: fold_peak drains only into peak_depth, registry-classified kSchedulingDependent
    fold_peak(k);
  }

 private:
  Cell processed;
  Cell occupancy_peak;
};

}  // namespace scap::kernel
