// Bad twin for the taint-sched waiver limit: a waiver may not excuse a
// write to a field the registry (.inc) classifies kDeterministic, whatever
// its shape. All three shapes are refused here — on the sink line, on the
// source line, and on a call edge whose call line writes the field — and
// each write is reported as if the waiver were absent.
typedef unsigned long uint64_t;

namespace scap::kernel {

struct KernelStats {
  uint64_t worker_stalls = 0;
  uint64_t pkts_seen = 0;
};

struct Cell {
  uint64_t v = 0;
  uint64_t load() const {
    return v;
  }
};

class Shard {
 public:
  uint64_t heartbeat() {
    return processed.load();
  }
  void judge(KernelStats& k) {
    const uint64_t done = heartbeat();
    // scap-lint: allow(taint-sched) the stall count is liveness telemetry  // expect-chain: taint-sched: -
    if (done == 0) k.worker_stalls += 1;  // expect-chain: taint-sched: src:processed.load() -> kernel::Shard::heartbeat -> kernel::Shard::judge -> sink:KernelStats.worker_stalls
  }
  void count(KernelStats& k) {
    // scap-lint: allow(taint-sched) the heartbeat only picks a branch  // expect-chain: taint-sched: -
    const uint64_t done = processed.load();
    k.pkts_seen += done;  // expect-chain: taint-sched: src:processed.load() -> kernel::Shard::count -> sink:KernelStats.pkts_seen
  }

 private:
  Cell processed;
};

class Pipeline {
 public:
  void fold(KernelStats& k) {
    // scap-lint: allow(taint-sched) discharged: heartbeat is telemetry  // expect-chain: taint-sched: -
    k.pkts_seen += shard_.heartbeat();  // expect-chain: taint-sched: src:processed.load() -> kernel::Shard::heartbeat -> kernel::Pipeline::fold -> sink:KernelStats.pkts_seen
  }

 private:
  Shard shard_;
};

}  // namespace scap::kernel
