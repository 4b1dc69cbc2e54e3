// Wall-clock throughput harness for the fast path (open-addressing flow
// table + slab-allocated records + batched ingest).
//
// Unlike the fig* benches, which measure *simulated* cycle budgets, this
// harness measures real packets/second of the implementation itself on
// three workloads:
//
//   flow_lookup  — N established streams past their cutoff, hit round-robin
//                  with data packets: pure find/touch/discard, the
//                  flow-lookup-dominated path. Steady state must perform
//                  ZERO heap allocations per packet (asserted).
//   reassembly   — a flowgen campus-like trace (SYN/data/FIN churn, payload
//                  chunking) pushed straight into ScapKernel in batches.
//   pipeline     — the same trace through the full ScapPipeline simulation
//                  driver with ingest_batch = 32.
//
// Results go to stdout and to a machine-readable JSON file (default
// BENCH_throughput.json) consumed by bench/compare_bench.py.
//
// Compiling with -DSCAP_SEED_BASELINE builds the same harness against the
// pre-batching kernel API (per-packet handle_packet, no ingest_batch) so
// before/after numbers come from identical measurement code.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench/common/driver.hpp"
#include "flowgen/replay.hpp"
#include "flowgen/workload.hpp"
#include "kernel/module.hpp"
#include "packet/craft.hpp"
#ifndef SCAP_SEED_BASELINE
#include "base/mutex.hpp"
#include "kernel/shard.hpp"
#include "scap/capture.hpp"
#include "trace/trace.hpp"
#endif

// --- Allocation counter ------------------------------------------------------
// Counts every operator-new in the process; workloads sample it around their
// timed region. Only the delta matters, so background noise before/after the
// region is irrelevant.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The replacement operator-new family above is malloc/aligned_alloc backed,
// so free() is the correct deallocator for every pointer reaching these —
// GCC's pairing heuristic cannot see that and flags inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace scap::bench {
namespace {

constexpr std::size_t kBatch = 32;

struct WorkloadResult {
  std::string name;
  std::uint64_t packets = 0;
  double seconds = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t pool_recycled = 0;
  int workers = 0;          // 0 = single-threaded (inline) workload
  double efficiency = 0.0;  // pps / (workers * pps@1worker); 0 when n/a

  double pps() const {
    return seconds > 0 ? static_cast<double>(packets) / seconds : 0.0;
  }
  double per_worker_pps() const {
    return workers > 0 ? pps() / workers : pps();
  }
  double ns_per_pkt() const {
    return packets ? seconds * 1e9 / static_cast<double>(packets) : 0.0;
  }
  double allocs_per_pkt() const {
    return packets ? static_cast<double>(allocs) / static_cast<double>(packets)
                   : 0.0;
  }
};

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Feed a contiguous packet vector into the kernel in kBatch-sized spans.
kernel::PacketOutcome ingest(kernel::ScapKernel& k,
                             std::span<const Packet> pkts, int core) {
  kernel::PacketOutcome out;
#ifdef SCAP_SEED_BASELINE
  for (const Packet& p : pkts) out = k.handle_packet(p, p.timestamp(), core);
#else
  for (std::size_t i = 0; i < pkts.size(); i += kBatch) {
    out = k.handle_batch(pkts.subspan(i, std::min(kBatch, pkts.size() - i)),
                         pkts[i].timestamp(), core);
  }
#endif
  return out;
}

void drain(kernel::ScapKernel& k, int core) {
  auto& q = k.events(core);
  while (!q.empty()) {
    kernel::Event ev = q.pop();
    k.release_chunk(ev);
  }
}

// --- flow_lookup -------------------------------------------------------------

WorkloadResult run_flow_lookup(bool& zero_alloc_ok) {
  constexpr std::size_t kFlows = 4096;
  constexpr std::size_t kRounds = 8;    // packets per flow per replay pass
  constexpr int kReps = 128;            // timed passes over the packet vector

  kernel::KernelConfig cfg;
  cfg.max_streams = kFlows * 2;
  cfg.defaults.cutoff_bytes = 64;  // everything past 64B is kernel-discarded
  kernel::ScapKernel k(cfg);

  std::vector<std::uint8_t> payload(512, 0xab);
  const Timestamp t0(0);

  // Establish kFlows streams and push each past its cutoff.
  std::vector<FiveTuple> tuples(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    FiveTuple& tup = tuples[i];
    tup.src_ip = 0x0a000000u + static_cast<std::uint32_t>(i);
    tup.dst_ip = 0xc0a80001u;
    tup.src_port = 40000;
    tup.dst_port = 80;
    tup.protocol = kProtoTcp;
    TcpSegmentSpec syn{.tuple = tup, .seq = 0, .flags = kTcpSyn};
    k.handle_packet(make_tcp_packet(syn, t0), t0, 0);
    TcpSegmentSpec d0{.tuple = tup, .seq = 1, .payload = payload};
    k.handle_packet(make_tcp_packet(d0, t0), t0, 0);
    TcpSegmentSpec d1{.tuple = tup, .seq = 513, .payload = payload};
    k.handle_packet(make_tcp_packet(d1, t0), t0, 0);  // past cutoff now
  }
  drain(k, 0);

  // One steady-state packet template, stamped per flow without any frame
  // allocation (the frame buffer is shared).
  TcpSegmentSpec steady{.tuple = tuples[0], .seq = 4096, .payload = payload};
  const Packet tmpl = make_tcp_packet(steady, t0);
  std::vector<Packet> pkts;
  pkts.reserve(kFlows * kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kFlows; ++i) {
      pkts.push_back(tmpl.with_flow(tuples[i], 4096, t0));
    }
  }

  ingest(k, pkts, 0);  // warmup pass (grows any remaining lazy state)
  drain(k, 0);

  const std::uint64_t allocs_before = g_allocs.load();
  const double start = now_sec();
  for (int rep = 0; rep < kReps; ++rep) ingest(k, pkts, 0);
  const double elapsed = now_sec() - start;
  const std::uint64_t allocs = g_allocs.load() - allocs_before;

  WorkloadResult r;
  r.name = "flow_lookup";
  r.packets = static_cast<std::uint64_t>(pkts.size()) * kReps;
  r.seconds = elapsed;
  r.allocs = allocs;
  zero_alloc_ok = allocs == 0;
  return r;
}

// --- reassembly --------------------------------------------------------------

// With `traced`, a Tracer is attached before the first packet, so every
// instrumentation site in the batch path takes its branch+store. Comparing
// the two runs prices the observability layer (trace-on overhead);
// comparing the untraced run against the checked-in baseline via
// compare_bench.py prices the instrumentation itself (trace-off overhead,
// the <=2% acceptance gate).
WorkloadResult run_reassembly(const flowgen::Trace& trace, bool traced) {
  kernel::KernelConfig cfg;
  cfg.max_streams = 1 << 16;
  kernel::ScapKernel k(cfg);
#ifndef SCAP_SEED_BASELINE
  trace::Tracer tracer(trace::TraceConfig{.ring_capacity = 1 << 14,
                                          .cores = 1});
  if (traced) k.set_tracer(&tracer);
#else
  (void)traced;
#endif

  // Warmup: one untimed pass grows the record pool, chunk vectors, and event
  // deque to steady-state capacity.
  ingest(k, trace.packets, 0);
  drain(k, 0);

  constexpr int kLoops = 4;
  const std::uint64_t allocs_before = g_allocs.load();
  const double start = now_sec();
  for (int loop = 0; loop < kLoops; ++loop) {
    for (std::size_t i = 0; i < trace.packets.size(); i += kBatch) {
      ingest(k,
             std::span<const Packet>(trace.packets)
                 .subspan(i, std::min(kBatch, trace.packets.size() - i)),
             0);
      drain(k, 0);
    }
  }
  const double elapsed = now_sec() - start;

  WorkloadResult r;
  r.name = traced ? "reassembly_traced" : "reassembly";
  r.packets = static_cast<std::uint64_t>(trace.packets.size()) * kLoops;
  r.seconds = elapsed;
  r.allocs = g_allocs.load() - allocs_before;
#ifndef SCAP_SEED_BASELINE
  r.pool_recycled = k.stats().pool_recycled;
#endif
  return r;
}

// --- pipeline ----------------------------------------------------------------

WorkloadResult run_pipeline(const flowgen::Trace& trace) {
  ScapRunOptions opt;
  opt.softirq_cores = 4;
#ifndef SCAP_SEED_BASELINE
  opt.ingest_batch = static_cast<int>(kBatch);
#endif
  const std::uint64_t allocs_before = g_allocs.load();
  const double start = now_sec();
  const RunResult res = run_scap(trace, /*rate_gbps=*/2.0, /*loops=*/2, opt);
  const double elapsed = now_sec() - start;

  WorkloadResult r;
  r.name = "pipeline";
  r.packets = res.pkts_offered;
  r.seconds = elapsed;
  r.allocs = g_allocs.load() - allocs_before;
  return r;
}

#ifndef SCAP_SEED_BASELINE

// --- flow_lookup_mc ----------------------------------------------------------
// The flow-lookup workload through the sharded datapath: one producer
// steers pre-bucketed packets onto per-shard SPSC rings, N worker threads
// run find/touch/discard on their private kernels. The 1-worker point
// prices the ring handoff against the inline flow_lookup number; the
// 2/4/8-worker points measure scaling (meaningful only with enough
// hardware cores — compare_bench.py gates the 4-worker speedup when the
// machine has them).

WorkloadResult run_flow_lookup_mc(int workers) {
  constexpr std::size_t kFlows = 4096;
  constexpr std::size_t kRounds = 8;
  constexpr int kReps = 16;

  kernel::KernelConfig cfg;
  cfg.max_streams = kFlows * 4;  // headroom: RSS spreads flows unevenly
  cfg.defaults.cutoff_bytes = 64;
  kernel::KernelShards::Options sopts;
  sopts.ring_capacity = 4096;
  sopts.batch_size = kBatch;
  kernel::KernelShards shards(cfg, workers, sopts);

  base::SerialGuard prod(shards.producer());
  shards.start({});  // self-drain: discard verdicts emit no events anyway

  std::vector<std::uint8_t> payload(512, 0xab);
  const Timestamp t0(0);
  std::vector<FiveTuple> tuples(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    FiveTuple& tup = tuples[i];
    tup.src_ip = 0x0a000000u + static_cast<std::uint32_t>(i);
    tup.dst_ip = 0xc0a80001u;
    tup.src_port = 40000;
    tup.dst_port = 80;
    tup.protocol = kProtoTcp;
    TcpSegmentSpec syn{.tuple = tup, .seq = 0, .flags = kTcpSyn};
    shards.submit(make_tcp_packet(syn, t0));
    TcpSegmentSpec d0{.tuple = tup, .seq = 1, .payload = payload};
    shards.submit(make_tcp_packet(d0, t0));
    TcpSegmentSpec d1{.tuple = tup, .seq = 513, .payload = payload};
    shards.submit(make_tcp_packet(d1, t0));  // past cutoff now
  }
  shards.flush();

  // Steady-state packets, pre-bucketed by shard so the timed region pays
  // only the ring push (the Toeplitz steer is priced by pipeline_mc).
  TcpSegmentSpec steady{.tuple = tuples[0], .seq = 4096, .payload = payload};
  const Packet tmpl = make_tcp_packet(steady, t0);
  std::vector<std::vector<Packet>> buckets(
      static_cast<std::size_t>(workers));
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kFlows; ++i) {
      const Packet pkt = tmpl.with_flow(tuples[i], 4096, t0);
      buckets[static_cast<std::size_t>(shards.shard_for(pkt))].push_back(pkt);
    }
  }
  std::size_t per_rep = 0;
  std::size_t max_len = 0;
  for (const auto& b : buckets) {
    per_rep += b.size();
    max_len = std::max(max_len, b.size());
  }

  // Warmup pass, then timed reps. Pushes interleave round-robin over the
  // shards so every ring stays busy, with one publish per kBatch pushes —
  // the hand-off Capture::inject_batch makes. flush() inside the timed
  // region charges the drain to the measurement.
  auto pass = [&] {
    std::size_t run = 0;
    for (std::size_t pos = 0; pos < max_len; ++pos) {
      for (std::size_t s = 0; s < buckets.size(); ++s) {
        if (pos >= buckets[s].size()) continue;
        shards.push(static_cast<int>(s), buckets[s][pos]);
        if (++run == kBatch) {
          shards.publish();
          run = 0;
        }
      }
    }
    shards.publish();
  };
  pass();
  shards.flush();

  const std::uint64_t allocs_before = g_allocs.load();
  const double start = now_sec();
  for (int rep = 0; rep < kReps; ++rep) pass();
  shards.flush();
  const double elapsed = now_sec() - start;
  const std::uint64_t allocs = g_allocs.load() - allocs_before;
  shards.stop(t0);

  WorkloadResult r;
  r.name = "flow_lookup_mc_w" + std::to_string(workers);
  r.workers = workers;
  r.packets = static_cast<std::uint64_t>(per_rep) * kReps;
  r.seconds = elapsed;
  r.allocs = allocs;
  return r;
}

// --- pipeline_mc -------------------------------------------------------------
// The full capture path end to end with worker threads: NIC classification
// and RSS steering on the producer, reassembly + event dispatch on the
// shard workers. This is the configuration the paper's Figure 10 models.

WorkloadResult run_pipeline_mc(const flowgen::Trace& trace, int workers) {
  constexpr int kLoops = 2;
  Capture cap("bench-mc", 256ull << 20, kernel::ReassemblyMode::kTcpFast,
              /*need_pkts=*/false);
  cap.set_worker_threads(workers);
  std::atomic<std::uint64_t> bytes{0};
  cap.dispatch_data([&bytes](StreamView& sd) {
    bytes.fetch_add(sd.data_len(), std::memory_order_relaxed);
  });
  cap.start();

  // Warmup loop grows slabs and event deques to steady state.
  for (std::size_t i = 0; i < trace.packets.size(); i += kBatch) {
    cap.inject_batch(std::span<const Packet>(trace.packets)
                         .subspan(i, std::min(kBatch,
                                              trace.packets.size() - i)));
  }

  const std::uint64_t allocs_before = g_allocs.load();
  const double start = now_sec();
  for (int loop = 0; loop < kLoops; ++loop) {
    for (std::size_t i = 0; i < trace.packets.size(); i += kBatch) {
      cap.inject_batch(std::span<const Packet>(trace.packets)
                           .subspan(i, std::min(kBatch,
                                                trace.packets.size() - i)));
    }
  }
  cap.stop();  // flush + worker join belong to the measured interval
  const double elapsed = now_sec() - start;

  WorkloadResult r;
  r.name = "pipeline_mc_w" + std::to_string(workers);
  r.workers = workers;
  r.packets = static_cast<std::uint64_t>(trace.packets.size()) * kLoops;
  r.seconds = elapsed;
  r.allocs = g_allocs.load() - allocs_before;
  return r;
}

#endif  // !SCAP_SEED_BASELINE

// --- output ------------------------------------------------------------------

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<WorkloadResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "throughput: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"seed\": %llu,\n  \"workloads\": [\n",
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"packets\": %llu, \"seconds\": %.6f, "
        "\"pps\": %.1f, \"ns_per_pkt\": %.2f, \"allocs\": %llu, "
        "\"allocs_per_pkt\": %.6f, \"pool_recycled\": %llu, "
        "\"workers\": %d, \"pps_per_worker\": %.1f, "
        "\"efficiency\": %.4f}%s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.packets), r.seconds,
        r.pps(), r.ns_per_pkt(), static_cast<unsigned long long>(r.allocs),
        r.allocs_per_pkt(), static_cast<unsigned long long>(r.pool_recycled),
        r.workers, r.per_worker_pps(), r.efficiency,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace scap::bench

int main(int argc, char** argv) {
  using namespace scap;
  using namespace scap::bench;

  std::string out_path = "BENCH_throughput.json";
  std::uint64_t seed = 2013;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: throughput [--out=FILE.json] [--seed=N]\n");
      return 2;
    }
  }

  flowgen::WorkloadConfig cfg;
  cfg.flows = 2500;
  cfg.seed = seed;
  const flowgen::Trace trace = flowgen::build_trace(cfg);

  std::vector<WorkloadResult> results;
  bool zero_alloc_ok = false;
  results.push_back(run_flow_lookup(zero_alloc_ok));
  results.push_back(run_reassembly(trace, /*traced=*/false));
#ifndef SCAP_SEED_BASELINE
  results.push_back(run_reassembly(trace, /*traced=*/true));
#endif
  results.push_back(run_pipeline(trace));

#ifndef SCAP_SEED_BASELINE
  // Multi-core sweep: each worker count re-runs the workload on a fresh
  // sharded datapath; efficiency is pps relative to perfect scaling of the
  // family's own 1-worker point.
  static constexpr int kWorkerSweep[] = {1, 2, 4, 8};
  auto sweep = [&results](const char* family, auto&& run) {
    double base_pps = 0.0;
    for (int workers : kWorkerSweep) {
      WorkloadResult r = run(workers);
      if (workers == 1) base_pps = r.pps();
      if (base_pps > 0) r.efficiency = r.pps() / (workers * base_pps);
      results.push_back(std::move(r));
      (void)family;
    }
  };
  sweep("flow_lookup_mc", [](int w) { return run_flow_lookup_mc(w); });
  sweep("pipeline_mc",
        [&trace](int w) { return run_pipeline_mc(trace, w); });
#endif

  std::printf("workload,packets,seconds,pps,ns_per_pkt,allocs_per_pkt\n");
  for (const WorkloadResult& r : results) {
    if (r.workers > 0) continue;
    std::printf("%s,%llu,%.4f,%.0f,%.2f,%.6f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.packets), r.seconds, r.pps(),
                r.ns_per_pkt(), r.allocs_per_pkt());
  }
  std::printf(
      "\nmc_workload,workers,packets,seconds,total_pps,per_worker_pps,"
      "efficiency\n");
  for (const WorkloadResult& r : results) {
    if (r.workers == 0) continue;
    std::printf("%s,%d,%llu,%.4f,%.0f,%.0f,%.3f\n", r.name.c_str(), r.workers,
                static_cast<unsigned long long>(r.packets), r.seconds, r.pps(),
                r.per_worker_pps(), r.efficiency);
  }
  write_json(out_path, seed, results);

  // Trace-on overhead: reassembly with a live tracer vs without one.
  const WorkloadResult* plain = nullptr;
  const WorkloadResult* traced = nullptr;
  for (const WorkloadResult& r : results) {
    if (r.name == "reassembly") plain = &r;
    if (r.name == "reassembly_traced") traced = &r;
  }
  if (plain != nullptr && traced != nullptr && plain->ns_per_pkt() > 0) {
    std::printf("trace_on_overhead_pct=%.2f\n",
                (traced->ns_per_pkt() / plain->ns_per_pkt() - 1.0) * 100.0);
  }

  if (!zero_alloc_ok) {
    std::fprintf(stderr,
                 "throughput: FAIL — flow_lookup steady state performed heap "
                 "allocations (expected zero)\n");
#ifndef SCAP_SEED_BASELINE
    return 1;
#endif
  }
  return 0;
}
