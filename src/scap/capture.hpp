// scap::Capture — the user-level core of the Scap API (paper §3, Table 1).
//
// A Capture owns a simulated-or-real NIC and the Scap kernel datapath, and
// dispatches creation/data/termination events to user callbacks, mirroring
// the Scap stub of Figure 1.
//
// Two dispatch modes:
//   * inline (worker_threads == 0, the default): a single ScapKernel;
//     inject() processes the packet and synchronously runs every pending
//     callback on the calling thread. Fully deterministic — the mode benches
//     and tests use.
//   * sharded (worker_threads >= 1): start() builds a KernelShards layer —
//     one ScapKernel per worker core, each with private flow-table slabs,
//     chunk allocator, PPL state and trace ring — and feeds it through
//     lock-free SPSC rings. Symmetric RSS keeps both directions of a flow
//     on one shard, so the per-packet worker path takes no shared lock
//     (paper §4, DESIGN.md §12).
//
// Concurrency model in sharded mode (DESIGN.md §12): producer_mutex_ is the
// outer capability backing the shards' single-producer domain — it
// serializes inject()/inject_batch()/stop() end to end, including any spin
// on a full shard ring. kernel_mutex_ is the inner lock guarding only the
// producer-owned NIC and its tracer; its critical sections are bounded (RSS
// classification, FDIR servicing, stats snapshot), so a worker callback may
// call stats() — which takes kernel_mutex_ alone — without deadlocking
// against a producer waiting out a full ring. Inline mode claims both
// capabilities structurally (a single thread is trivially serialized). The
// clang thread-safety analysis checks all of this on every clang build
// (-Wthread-safety, errors under SCAP_WERROR).
//
// Packet sources: inject() for programmatic feeds, replay_pcap() for traces.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/hotpath.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "kernel/module.hpp"
#include "kernel/shard.hpp"
#include "nic/nic.hpp"
#include "packet/packet.hpp"
#include "trace/trace.hpp"

namespace scap {

/// Tunables addressable through scap_set_parameter (paper Table 1).
enum class Parameter {
  kInactivityTimeoutMs,
  kChunkSize,
  kOverlapSize,
  kFlushTimeoutMs,
  kBaseThresholdPercent,  // PPL base threshold, 0-100
  kOverloadCutoff,
  kPriorityLevels,
  kAdaptiveCutoff,     // adaptive overload control: start cutoff (0 = off)
  kAdaptiveMinCutoff,  // adaptive overload control: tightening floor
  kWorkerThreads,      // sharded-mode worker count (0 = inline), pre-start
  kShardRingCapacity,  // per-shard SPSC ring slots, pre-start
  // Sharded-datapath robustness knobs (DESIGN.md §13), all pre-start:
  kRingHighWatermarkPct,  // ring admission high watermark, % of ring capacity
                          // (0 = watermark admission off, spin on full ring)
  kRingLowWatermarkPct,   // ring admission low watermark (hysteresis exit +
                          // PPL ladder base), % of ring capacity
  kStallTimeoutMs,        // worker watchdog deadline, simulated ms (0 = off)
  kStallPolicy,           // on stall: 0 = fatal (assert), 1 = degrade (shed)
};

class Capture;

/// The application's view of a stream inside a callback — the paper's
/// stream_t as handed to handlers. Wraps the event's immutable snapshot and
/// forwards per-stream control calls to the kernel that emitted the event
/// (in sharded mode that is the stream's shard kernel — flow affinity means
/// the stream lives there and nowhere else).
///
/// A StreamView only exists inside a dispatch callback, which always runs
/// with the owning kernel's serial domain held (a worker holds its shard's
/// batch lock; inline mode holds the capability structurally). The control
/// methods assert exactly that before re-entering the kernel — the C API
/// wrappers in capi.cpp cannot carry capability annotations across
/// extern "C".
class StreamView {
 public:
  StreamView(kernel::ScapKernel& k, kernel::Event& ev) : k_(k), ev_(ev) {}

  // --- identity (sd->hdr) --------------------------------------------------
  kernel::StreamId id() const { return ev_.stream.id; }
  const FiveTuple& tuple() const { return ev_.stream.tuple; }
  kernel::Direction direction() const { return ev_.stream.dir; }
  kernel::StreamId opposite_id() const { return ev_.stream.opposite; }

  // --- status (sd->status / sd->error) ------------------------------------
  kernel::StreamStatus status() const { return ev_.stream.status; }
  bool cutoff_exceeded() const { return ev_.stream.cutoff_exceeded; }
  std::uint32_t error() const { return ev_.stream.error_bits; }

  // --- statistics (sd->stats) ----------------------------------------------
  const kernel::StreamStats& stats() const { return ev_.stream.stats; }
  std::uint64_t chunks() const { return ev_.stream.chunks_delivered; }

  // --- chunk data (sd->data / sd->data_len) --------------------------------
  std::span<const std::uint8_t> data() const {
    return std::span<const std::uint8_t>(ev_.chunk.data);
  }
  std::size_t data_len() const { return ev_.chunk.data.size(); }
  std::uint32_t chunk_errors() const { return ev_.chunk.errors; }
  std::uint32_t overlap_len() const { return ev_.chunk.overlap_len; }
  std::uint64_t stream_offset() const { return ev_.chunk.stream_offset; }

  // --- per-stream control ---------------------------------------------------
  void discard();                       // scap_discard_stream
  void set_cutoff(std::int64_t bytes);  // scap_set_stream_cutoff
  void set_priority(int priority);      // scap_set_stream_priority
  bool set_parameter(Parameter p, std::int64_t value);
  void keep_chunk();                    // scap_keep_stream_chunk

  // --- packet delivery (scap_next_stream_packet) ---------------------------
  /// Next packet record of this chunk in capture order, or nullptr.
  const kernel::PacketRecord* next_packet();
  /// Payload bytes of a packet record within this chunk.
  std::span<const std::uint8_t> packet_payload(
      const kernel::PacketRecord& rec) const;
  void rewind_packets() { pkt_cursor_ = 0; }

 private:
  friend class Capture;

  /// Dispatch callbacks run with the kernel's serial domain held (see class
  /// comment); the control methods carry that structural fact into the
  /// analysis before re-entering the kernel.
  void assert_serial() const SCAP_ASSERT_CAPABILITY(k_.serial()) {}

  kernel::ScapKernel& k_;
  kernel::Event& ev_;
  std::size_t pkt_cursor_ = 0;
  bool keep_requested_ = false;
};

using StreamHandler = std::function<void(StreamView&)>;

struct CaptureStats {
  kernel::KernelStats kernel;
  std::uint64_t nic_dropped_by_filter = 0;
  std::uint64_t events_dispatched = 0;
  // Tracing (zero/empty when enable_tracing was not called).
  bool traced = false;
  std::uint64_t trace_events_recorded = 0;
  std::uint64_t trace_events_dropped = 0;  // lost to ring wrap
  trace::MetricsRegistry metrics;
};

class Capture {
 public:
  /// scap_create(device, memory_size, reassembly_mode, need_pkts).
  /// `device` is informational (the simulated NIC stands in for hardware).
  Capture(std::string device, std::uint64_t memory_size,
          kernel::ReassemblyMode mode, bool need_pkts);
  ~Capture();

  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  // --- configuration (before start) ----------------------------------------
  void set_filter(const std::string& bpf);                 // scap_set_filter
  void set_cutoff(std::int64_t bytes);                     // scap_set_cutoff
  void add_cutoff_direction(std::int64_t bytes, kernel::Direction dir);
  void add_cutoff_class(std::int64_t bytes, const std::string& bpf);
  void set_worker_threads(int n);
  bool set_parameter(Parameter p, std::int64_t value);
  void set_use_fdir(bool on) { config_.use_fdir = on; }
  void set_max_streams(std::size_t n) { config_.max_streams = n; }
  void set_overlap_policy(kernel::OverlapPolicy p) {
    config_.defaults.policy = p;
  }
  void set_defragment(bool on) { config_.defragment_ip = on; }
  /// Per-shard SPSC ring slots (sharded mode; rounded up to a power of
  /// two). Also reachable as Parameter::kShardRingCapacity.
  void set_shard_ring_capacity(std::size_t slots) {
    ring_capacity_ = slots > 0 ? slots : 1;
  }

  /// Turn on event tracing (DESIGN.md §10) with one fixed-capacity ring per
  /// core. Must be called before start(): the trace's conservation laws
  /// require the tracer to see every packet. In sharded mode each shard
  /// kernel gets its own single-ring tracer and the capture-level tracer
  /// (tracer()) carries only the producer-side NIC events; stats() presents
  /// the merged totals. With SCAP_TRACE=OFF builds the tracers still exist
  /// but the instrumentation sites compile to nothing, so the rings stay
  /// empty.
  void enable_tracing(std::size_t ring_capacity = 1 << 16);

  /// The capture-level tracer, or nullptr: the full per-core trace in
  /// inline mode, the NIC-event trace in sharded mode (per-shard kernel
  /// traces live on shards()->tracer(i)). The pointee is SCAP_PT_GUARDED_BY
  /// (kernel_mutex_): the producer records NIC events holding that mutex,
  /// so dereference only after stop(). The raw pointer returned here
  /// escapes the analysis — treat it as borrowed under the same rule.
  trace::Tracer* tracer() const { return tracer_.get(); }

  // --- handlers --------------------------------------------------------------
  void dispatch_creation(StreamHandler handler);
  void dispatch_data(StreamHandler handler);
  void dispatch_termination(StreamHandler handler);

  // --- multiple applications (§5.6) -----------------------------------------
  /// Attach an additional application sharing this capture. Stream
  /// reassembly runs once in the kernel; each application receives only the
  /// streams matching its BPF filter, through its own handlers. Requirement
  /// merging is best-effort as in the paper: the kernel keeps a stream if
  /// at least one application wants it. Returns the application index.
  /// When no application is attached, the dispatch_* handlers above act as
  /// the single implicit application receiving everything.
  struct AppHandlers {
    StreamHandler on_created;
    StreamHandler on_data;
    StreamHandler on_terminated;
  };
  int add_application(const std::string& bpf_filter, AppHandlers handlers);

  // --- capture lifecycle ------------------------------------------------------
  /// Instantiate NIC + kernel datapath and (in sharded mode) start the
  /// per-shard workers.
  void start() SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Feed one packet (timestamp taken from the packet). Inline mode returns
  /// the NIC/kernel outcome for instrumentation; sharded mode hands the
  /// packet to its shard's ring and returns a default outcome (processing
  /// is asynchronous — totals land in stats()).
  kernel::PacketOutcome inject(const Packet& pkt)
      SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Feed a batch of packets: each is received by the NIC in order, then
  /// processed per RSS queue through handle_batch (amortized maintenance
  /// check + flow-lookup prefetch) — inline mode batches per queue itself,
  /// sharded mode lets each shard's ring/pop_batch do it. Event callbacks
  /// run after the whole batch in inline mode; FDIR filters installed while
  /// processing a batch take effect from a later batch. Returns the
  /// aggregate outcome (inline; default-constructed when sharded).
  kernel::PacketOutcome inject_batch(std::span<const Packet> pkts)
      SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Replay a pcap file through the capture in inject_batch-sized batches.
  /// Returns packets injected. (inject()/inject_batch() are the *user-API*
  /// boundary, deliberately outside the SCAP_HOT closure: they throw on
  /// misuse and take the documented producer/kernel locks. The purity
  /// lattice anchors kernel-side — ScapKernel::handle_packet/handle_batch
  /// and the KernelShards submit/worker path, DESIGN.md §14.)
  SCAP_COLD std::uint64_t replay_pcap(const std::string& path)
      SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Dispatch pending events on the calling thread. Inline mode only (in
  /// sharded mode the workers dispatch as packets arrive; asserted).
  /// Returns events dispatched.
  std::size_t poll() SCAP_EXCLUDES(kernel_mutex_);

  /// Flush all remaining streams, dispatch final events, join workers.
  SCAP_COLD void stop() SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Snapshot of kernel + NIC + dispatch counters. Safe to call from a
  /// monitoring thread — and, in sharded mode, from inside a dispatch
  /// callback on a worker — while the capture runs: the sharded path reads
  /// the shards' post-batch snapshots and takes only kernel_mutex_ (bounded
  /// producer critical sections) for the NIC counters.
  CaptureStats stats() const SCAP_EXCLUDES(kernel_mutex_);

  /// Conservation suite over the whole datapath: the single kernel inline,
  /// or every shard plus the shard-aggregated stats in sharded mode.
  /// Returns "" when every law holds.
  std::string check_invariants() SCAP_EXCLUDES(kernel_mutex_);

  /// Direct kernel/NIC access for single-threaded drivers (tests, benches,
  /// chaos_run). These assert the serialization capabilities rather than
  /// take the lock — never call them while workers are live. kernel() is
  /// inline-mode only (sharded captures have one kernel per shard: use
  /// shards()).
  kernel::ScapKernel& kernel() {
    assert_serialized();
    return *kernel_;
  }
  bool has_kernel() const { return kernel_ != nullptr; }
  /// The sharded datapath, or nullptr in inline mode / before start().
  /// KernelShards is internally synchronized; see its own locking notes.
  kernel::KernelShards* shards() { return shards_.get(); }
  nic::Nic& nic() {
    assert_serialized();
    return *nic_;
  }
  const std::string& device() const { return device_; }
  int worker_threads() const { return worker_threads_; }
  bool started() const { return started_; }

 private:
  friend class StreamView;

  /// Claim kernel_mutex_ and the inline kernel's serial domain
  /// structurally: in inline mode a single thread does all processing.
  /// Zero runtime cost — the assertion exists for the thread-safety
  /// analysis. Sharded-mode code paths take the real locks instead.
  void assert_serialized() const
      SCAP_ASSERT_CAPABILITY(kernel_mutex_, kernel_->serial()) {}

  /// Dispatch one event from kernel `k`, recording kEventDispatched on
  /// `tracer` ring `trace_core` when tracing. Runs the user handlers, then
  /// returns the chunk accounting to `k`. Inline mode passes the capture
  /// kernel and tracer; the sharded drain hook passes the shard's.
  void dispatch_event_on(kernel::ScapKernel& k, trace::Tracer* tracer,
                         int trace_core, kernel::Event& ev)
      SCAP_REQUIRES(k.serial());
  void drain_core_inline(int core)
      SCAP_REQUIRES(kernel_mutex_, kernel_->serial());
  /// Counter snapshot under the capability; takes the kernel's SerialGuard
  /// internally once it knows kernel_ is non-null. Inline mode only.
  CaptureStats stats_locked() const SCAP_REQUIRES(kernel_mutex_);
  /// Sharded producer: push in-band maintenance markers for every
  /// expiry_interval boundary crossed up to `now` (before the packets that
  /// carry those timestamps — the ordering that makes shard expiry equal a
  /// single-core replay), and service the FDIR command queue + hardware
  /// filter expiry at the same cadence.
  void advance_ticks(Timestamp now)
      SCAP_REQUIRES(producer_mutex_, shards_->producer());

  std::string device_;
  kernel::KernelConfig config_;
  int worker_threads_ = 0;   // immutable once start() ran (branch selector)
  bool started_ = false;     // driver-thread only
  Timestamp last_ts_;        // driver/producer thread only

  StreamHandler on_created_;
  StreamHandler on_data_;
  StreamHandler on_terminated_;
  std::vector<AppHandlers> apps_;

  // The pointees are shared across threads in sharded mode; the pointers
  // themselves are written once in start() (before any worker exists) and
  // cleared never, so reading the pointer is always safe while every
  // dereference needs kernel_mutex_.
  std::unique_ptr<nic::Nic> nic_ SCAP_PT_GUARDED_BY(kernel_mutex_);
  std::unique_ptr<kernel::ScapKernel> kernel_ SCAP_PT_GUARDED_BY(kernel_mutex_);
  std::unique_ptr<trace::Tracer> tracer_ SCAP_PT_GUARDED_BY(kernel_mutex_);
  std::size_t trace_capacity_ = 0;  // 0 = tracing off
  std::size_t ring_capacity_ = 4096;  // per-shard SPSC ring slots
  std::vector<std::vector<Packet>> batch_buckets_;  // inline per-queue buckets

  // Sharded-mode machinery. shards_ is written once in start() and is
  // internally synchronized (per-shard locks + snapshots), so it carries no
  // guard annotation; the producer-only entry points require its
  // SerialDomain, which producer_mutex_ backs.
  std::unique_ptr<kernel::KernelShards> shards_;

  /// Sharded-datapath robustness policy (DESIGN.md §13), staged by
  /// set_parameter and translated into KernelShards::Options at start()
  /// (percentages become ring slots once the ring capacity is final).
  /// Guarded by producer_mutex_ — the same capability that orders every
  /// producer-side decision these knobs feed.
  struct RingPolicy {
    int high_watermark_pct = 0;  // 0 = watermark admission disabled
    int low_watermark_pct = 0;
    std::int64_t stall_timeout_ms = 0;  // 0 = watchdog disabled
    kernel::StallPolicy stall_policy = kernel::StallPolicy::kDegrade;
  };
  RingPolicy ring_policy_ SCAP_GUARDED_BY(producer_mutex_);
  mutable base::Mutex producer_mutex_;  // outer; never taken under kernel_mutex_
  mutable base::Mutex kernel_mutex_;    // inner; NIC + capture tracer
  Timestamp last_tick_ SCAP_GUARDED_BY(producer_mutex_);
  bool ticks_started_ SCAP_GUARDED_BY(producer_mutex_) = false;
  std::vector<int> rx_queues_ SCAP_GUARDED_BY(producer_mutex_);
  std::atomic<std::uint64_t> events_dispatched_{0};
};

}  // namespace scap
