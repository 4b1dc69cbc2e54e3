#include "layers.hpp"

#include <time.h>

#include <thread>

#include "alloc_count.hpp"
#include "base/mutex.hpp"
#include "kernel/shard.hpp"
#include "nic/nic.hpp"

namespace perfbench {

using scap::Packet;
using scap::Timestamp;
using scap::kernel::Event;
using scap::kernel::EventType;
using scap::kernel::KernelConfig;
using scap::kernel::KernelShards;
using scap::kernel::ScapKernel;

namespace {

// Worker CPU time is read at most this often from the drain hook; the
// clock read is a system call.
constexpr std::int64_t kCpuSampleNs = 200'000;
constexpr std::uint64_t kNoBatch = ~std::uint64_t{0};

std::int64_t thread_cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

KernelConfig kernel_config(const CaptureSetup& cs) {
  // What scap::Capture's constructor, set_cutoff and set_worker_threads
  // put into its KernelConfig.
  KernelConfig cfg;
  cfg.memory_size = cs.memory_size;
  cfg.defaults.mode = scap::kernel::ReassemblyMode::kTcpFast;
  cfg.need_pkts = false;
  cfg.defaults.cutoff_bytes = cs.cutoff;
  cfg.num_cores = cs.workers > 0 ? cs.workers : 1;
  return cfg;
}

/// Capture::dispatch_event_on without the trace hook: run the handler,
/// then return the chunk accounting to the kernel.
void dispatch(App& app, ScapKernel& k, Event& ev) {
  scap::StreamView view(k, ev);
  switch (ev.type) {
    case EventType::kCreated: app.on_created(view); break;
    case EventType::kData: app.on_data(view); break;
    case EventType::kTerminated: app.on_terminated(view); break;
  }
  k.release_chunk(ev);
}

ReplicaResult run_inline(const Inputs& in, App& app, const KernelConfig& cfg) {
  ReplicaResult res;
  scap::nic::Nic nic(cfg.num_cores);
  ScapKernel k(cfg, &nic);
  scap::base::SerialGuard serial(k.serial());
  std::vector<std::vector<Packet>> buckets(
      static_cast<std::size_t>(cfg.num_cores));
  SpanLog& log = app.local().spans;
  auto drain = [&](int core) {
    auto& q = k.events(core);
    while (!q.empty()) {
      Event ev = q.pop();
      dispatch(app, k, ev);
    }
  };
  Timestamp last_ts;
  auto inject = [&](std::span<const Packet> pkts) {
    const std::uint64_t b = res.batches.size() - 1;
    last_ts = pkts.back().timestamp();
    log.begin(kSpanNicReceive, b, allocs::this_thread());
    for (const Packet& pkt : pkts) {
      const auto rx = nic.receive(pkt);
      if (rx.disposition == scap::nic::RxDisposition::kDroppedByFilter) {
        continue;
      }
      buckets[static_cast<std::size_t>(rx.queue)].push_back(pkt);
    }
    log.end(allocs::this_thread());
    for (std::size_t q = 0; q < buckets.size(); ++q) {
      auto& bucket = buckets[q];
      if (bucket.empty()) continue;
      const int core = static_cast<int>(q);
      log.begin(kSpanKernelBatch, b, allocs::this_thread());
      k.handle_batch(bucket, bucket.front().timestamp(), core);
      log.end(allocs::this_thread());
      log.begin(kSpanDispatch, b, allocs::this_thread());
      drain(core);
      log.end(allocs::this_thread());
      bucket.clear();
    }
  };
  drive(in, inject, res.batches, &log, kSpanBatch, &allocs::this_thread);
  const std::int64_t t_stop = now_ns();
  log.begin(kSpanKernelBatch, kNoBatch, allocs::this_thread(), t_stop);
  k.terminate_all(last_ts);
  log.end(allocs::this_thread());
  log.begin(kSpanDispatch, kNoBatch, allocs::this_thread());
  for (int c = 0; c < cfg.num_cores; ++c) drain(c);
  log.end(allocs::this_thread());
  const std::int64_t t_end = now_ns();
  res.wall_ns = t_end - res.batches.start.front();
  res.stats = k.stats();
  res.queue_pkts = nic.stats().per_queue;
  res.spans = log.spans();
  return res;
}

/// Drain-hook bookkeeping of one shard; only that shard's hook touches it.
struct HookState {
  SpanLog spans;
  std::uint64_t calls = 0;
  std::int64_t hook_ns = 0;
  std::uint64_t hook_allocs = 0;
  std::uint64_t thread_allocs = 0;  // the worker's own running total
  std::int64_t cpu_ns = 0;
  std::int64_t last_cpu_sample = 0;
};

ReplicaResult run_sharded(const Inputs& in, App& app, const KernelConfig& cfg,
                          int workers) {
  ReplicaResult res;
  scap::nic::Nic nic(workers);
  KernelShards::Options opts;
  opts.ring_capacity = 4096;  // Capture's default shard ring
  KernelShards shards(cfg, workers, opts);
  scap::base::SerialGuard prod(shards.producer());
  std::vector<HookState> hooks(static_cast<std::size_t>(workers));
  const std::thread::id producer_id = std::this_thread::get_id();
  shards.start([&](int shard, ScapKernel& k) {
    scap::base::SerialGuard serial(k.serial());
    HookState& h = hooks[static_cast<std::size_t>(shard)];
    const bool on_worker = std::this_thread::get_id() != producer_id;
    const std::uint64_t a0 = allocs::this_thread();
    const std::size_t span = h.spans.begin(kSpanShardDrain, kNoBatch, a0);
    auto& q = k.events(0);
    while (!q.empty()) {
      Event ev = q.pop();
      dispatch(app, k, ev);
    }
    const std::int64_t t1 = now_ns();
    const std::uint64_t a1 = allocs::this_thread();
    h.spans.end(a1, t1);
    h.calls += 1;
    if (!on_worker) return;
    h.hook_ns += t1 - h.spans.spans()[span].start;
    h.hook_allocs += a1 - a0;
    h.thread_allocs = a1;
    if (t1 - h.last_cpu_sample >= kCpuSampleNs) {
      h.cpu_ns = thread_cpu_ns();
      h.last_cpu_sample = t1;
    }
  });

  SpanLog& log = app.local().spans;
  bool ticks_started = false;
  Timestamp last_tick;
  auto advance_ticks = [&](Timestamp now) {
    // Capture::advance_ticks: tick grid anchored at the first packet.
    bool ticked = false;
    if (!ticks_started) {
      ticks_started = true;
      last_tick = now;
      shards.tick_all(now);
      ticked = true;
    }
    const auto interval = cfg.expiry_interval;
    while (interval.ns() > 0 && now.ns() - last_tick.ns() >= interval.ns()) {
      last_tick = last_tick + interval;
      shards.tick_all(last_tick);
      ticked = true;
    }
    if (ticked) shards.service_fdir(nic, last_tick);
  };
  std::vector<int> queues;
  Timestamp last_ts;
  auto inject = [&](std::span<const Packet> pkts) {
    const std::uint64_t b = res.batches.size() - 1;
    last_ts = pkts.back().timestamp();
    queues.clear();
    log.begin(kSpanNicReceive, b, allocs::this_thread());
    for (const Packet& pkt : pkts) {
      const auto rx = nic.receive(pkt);
      queues.push_back(
          rx.disposition == scap::nic::RxDisposition::kDroppedByFilter
              ? -1
              : rx.queue);
    }
    log.end(allocs::this_thread());
    log.begin(kSpanShardSubmit, b, allocs::this_thread());
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      if (queues[i] < 0) continue;
      advance_ticks(pkts[i].timestamp());
      shards.submit_to(queues[i], pkts[i]);
    }
    log.end(allocs::this_thread());
  };
  drive(in, inject, res.batches, &log, kSpanBatch, &allocs::this_thread);
  const std::int64_t t_stop = now_ns();
  log.begin(kSpanShardStop, kNoBatch, allocs::this_thread(), t_stop);
  shards.stop(last_ts);
  shards.service_fdir(nic, last_ts);
  log.end(allocs::this_thread());
  const std::int64_t t_end = now_ns();
  res.wall_ns = t_end - res.batches.start.front();
  res.stats = shards.stats();
  res.queue_pkts = nic.stats().per_queue;
  res.spans = log.spans();
  for (HookState& h : hooks) {
    res.worker_cpu_ns += h.cpu_ns;
    res.worker_hook_ns += h.hook_ns;
    res.worker_hook_allocs += h.hook_allocs;
    res.worker_allocs += h.thread_allocs;
    res.hook_calls += h.calls;
    res.worker_spans.push_back(h.spans.spans());
  }
  return res;
}

}  // namespace

const char* span_name(std::uint32_t name) {
  switch (name) {
    case kSpanInject: return "scap.inject_batch";
    case kSpanStop: return "scap.stop";
    case kSpanBatch: return "replica.batch";
    case kSpanNicReceive: return "nic.receive";
    case kSpanKernelBatch: return "kernel.handle_batch";
    case kSpanDispatch: return "replica.dispatch";
    case kSpanShardSubmit: return "shard.submit_to";
    case kSpanShardDrain: return "shard.drain_hook";
    case kSpanShardStop: return "shard.stop";
    case kSpanApp: return "app.callback";
    default: return "?";
  }
}

CaptureSetup capture_setup(const Inputs& in) {
  CaptureSetup cs;
  cs.workers = in.workers;
  // Flow export needs no payload: cutoff 0 discards it in the kernel.
  if (in.kind == WorkloadKind::kFlowstatsMc) cs.cutoff = 0;
  return cs;
}

ReplicaResult run_replica(const Inputs& in, App& app) {
  const CaptureSetup cs = capture_setup(in);
  const KernelConfig cfg = kernel_config(cs);
  if (cs.workers == 0) return run_inline(in, app, cfg);
  return run_sharded(in, app, cfg, cs.workers);
}

}  // namespace perfbench
