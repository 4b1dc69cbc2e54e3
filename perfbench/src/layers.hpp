// The traced layer replica. scap::Capture hides the NIC, the kernel and the
// shard rings from its caller, so the traced run drives their public APIs
// directly — nic::Nic::receive, kernel::ScapKernel::handle_batch and
// kernel::KernelShards::submit_to with a drain hook — on the same input, in
// the order Capture uses them, with a span around every call. Its
// KernelStats must equal the Capture run's.
#pragma once

#include <cstdint>
#include <vector>

#include "apps.hpp"
#include "generator.hpp"
#include "inputs.hpp"
#include "kernel/module.hpp"

namespace perfbench {

/// Span names of both traced runs.
enum SpanName : std::uint32_t {
  kSpanInject,        // scap::Capture::inject_batch
  kSpanStop,          // scap::Capture::stop
  kSpanBatch,         // one replica batch (parent of the layer calls below)
  kSpanNicReceive,    // nic::Nic::receive over the batch
  kSpanKernelBatch,   // kernel::ScapKernel::handle_batch / terminate_all
  kSpanDispatch,      // replica event drain (inline)
  kSpanShardSubmit,   // kernel::KernelShards tick_all + submit_to
  kSpanShardDrain,    // drain hook on a shard worker
  kSpanShardStop,     // kernel::KernelShards::stop
  kSpanApp,           // application callback
  kNumSpanNames,
};

const char* span_name(std::uint32_t name);

/// Capture configuration shared by the Capture runs and the replica.
struct CaptureSetup {
  std::uint64_t memory_size = 1ull << 30;
  std::int64_t cutoff = -1;
  int workers = 0;
};
CaptureSetup capture_setup(const Inputs& in);

struct ReplicaResult {
  scap::kernel::KernelStats stats;
  std::vector<std::uint64_t> queue_pkts;  // NIC packets per RX queue
  BatchLog batches;
  std::int64_t wall_ns = 0;        // first batch -> end of stop
  std::int64_t worker_cpu_ns = 0;  // sharded: summed worker thread CPU time
  std::int64_t worker_hook_ns = 0; // sharded: drain-hook time on workers
  std::uint64_t worker_hook_allocs = 0;
  std::uint64_t worker_allocs = 0; // sharded: every allocation on workers
  std::uint64_t hook_calls = 0;
  std::vector<Span> spans;         // producer-thread spans
  std::vector<std::vector<Span>> worker_spans;  // per shard (drain hooks)
};

ReplicaResult run_replica(const Inputs& in, App& app);

}  // namespace perfbench
