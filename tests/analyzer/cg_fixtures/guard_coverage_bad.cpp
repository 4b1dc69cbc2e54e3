// Bad twin for rule guard-coverage: fields from the pinned capability
// table (DESIGN.md §11) lost their annotations — exactly what happens when
// someone deletes a SCAP_GUARDED_BY to silence a thread-safety error
// instead of fixing the locking. One per-shard snapshot field was renamed
// without updating the table, which is reported at its class. Findings
// carry no call chain, hence the "-" sentinel.
#define SCAP_CAPABILITY(x) __attribute__((capability(x)))
#define SCAP_GUARDED_BY(x) __attribute__((guarded_by(x)))
#define SCAP_PT_GUARDED_BY(x) __attribute__((pt_guarded_by(x)))

namespace scap {

namespace kernel {
class ScapKernel {
 private:
  class SCAP_CAPABILITY("serial domain") SerialDomain {} serial_;
  int* nic_ SCAP_PT_GUARDED_BY(serial_) = nullptr;
  int* tracer_ = nullptr;  // expect-chain: guard-coverage: -
  int* fdir_queue_ SCAP_PT_GUARDED_BY(serial_) = nullptr;
  struct ChunkBufferPool {};
  ChunkBufferPool chunk_buffers_;  // expect-chain: guard-coverage: -
  struct ReassemblerPool {};
  ReassemblerPool reassemblers_;  // expect-chain: guard-coverage: -
};

class KernelShards {
 private:
  struct Shard {  // expect-chain: guard-coverage: -
    class SCAP_CAPABILITY("mutex") Mutex {} snap_mu;
    long snapshot = 0;  // expect-chain: guard-coverage: -
    unsigned long snap_trace_recorded SCAP_GUARDED_BY(snap_mu) = 0;
    unsigned long snap_dropped SCAP_GUARDED_BY(snap_mu) = 0;
    long snap_metrics SCAP_GUARDED_BY(snap_mu) = 0;
  };
  class SCAP_CAPABILITY("serial domain") SerialDomain {} producer_;
  unsigned long pushed_ = 0;  // expect-chain: guard-coverage: -
  struct Unpublished {};
  Unpublished unpublished_;  // expect-chain: guard-coverage: -
  bool stopped_ = false;  // expect-chain: guard-coverage: -
  struct WatchdogState {};
  WatchdogState watchdog_;  // expect-chain: guard-coverage: -
};
}  // namespace kernel

class Capture {
 private:
  class SCAP_CAPABILITY("mutex") Mutex {} kernel_mutex_;
  Mutex producer_mutex_;
  int* nic_ SCAP_PT_GUARDED_BY(kernel_mutex_) = nullptr;
  int* kernel_ SCAP_PT_GUARDED_BY(kernel_mutex_) = nullptr;
  int* tracer_ SCAP_PT_GUARDED_BY(kernel_mutex_) = nullptr;
  long last_tick_ = 0;  // expect-chain: guard-coverage: -
  bool ticks_started_ SCAP_GUARDED_BY(producer_mutex_) = false;
  int* rx_queues_ SCAP_GUARDED_BY(producer_mutex_) = nullptr;
  struct RingPolicy {};
  RingPolicy ring_policy_;  // expect-chain: guard-coverage: -
  unsigned long events_dispatched_ = 0;  // unannotated atomic: fine now
};

}  // namespace scap
