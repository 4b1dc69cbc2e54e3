// perfbench: the end-to-end capture benchmark (perfbench/README.md).
//
//   perfbench --workload stream_delivery|flowstats_mc|nids_paced
//             --seed N --seconds S --trace 0|1 [--commit ID] [--spans-out F]
//
// --trace 0 measures the end-to-end metrics through the public
// scap::Capture API with nothing traced. --trace 1 runs three phases of
// S/3 seconds each: the same untraced run (the reference for the tracing
// overhead and for KernelStats), a traced Capture run (spans around
// inject_batch, stop and every application callback) and the traced layer
// replica (layers.hpp). Every phase checks its outputs. The last line of
// stdout is the JSON result; the lines before it name every metric with
// its unit, the loss share and the run's metadata.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "apps.hpp"
#include "generator.hpp"
#include "helpers.hpp"
#include "inputs.hpp"
#include "kernel/stats_determinism.hpp"
#include "layers.hpp"
#include "scap/capture.hpp"

namespace perfbench {
namespace {

using scap::kernel::KernelStats;

constexpr int kMinClosedLoopReps = 3;
constexpr int kMinSetupSamples = 9;
constexpr int kMaxSetupSamples = 61;
constexpr double kSetupTrialSeconds = 0.3;
// Open loop: a lifecycle whose generator was on average this late is
// invalid — the schedule, not the program, would set its latency. Invalid
// lifecycles are left out of the metrics; a run without a valid one is
// invalid.
constexpr double kMaxMeanLagUs = 50.0;
constexpr std::uint64_t kNoBatch = ~std::uint64_t{0};
constexpr std::uint64_t kSpansWrittenBatches = 20000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stream_delivery|flowstats_mc|nids_paced --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* endp = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &endp, 10);
      if (*endp != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &endp);
      if (*endp != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      a.trace = v == "1" ? 1 : 0;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  return a;
}

// --- process memory ----------------------------------------------------------

double status_mib(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtod(line.c_str() + klen, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// Restart the kernel's peak-RSS tracking (VmHWM) from the current RSS.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// --- one Capture lifecycle ---------------------------------------------------

struct Session {
  std::unique_ptr<App> app;  // outlives the capture whose handlers use it
  std::unique_ptr<scap::Capture> cap;
};

Session set_up(const Inputs& in, bool traced) {
  Session s;
  s.app = std::make_unique<App>(in, traced);
  const CaptureSetup cs = capture_setup(in);
  s.cap = std::make_unique<scap::Capture>(
      "perfbench", cs.memory_size, scap::kernel::ReassemblyMode::kTcpFast,
      /*need_pkts=*/false);
  if (cs.workers > 0) s.cap->set_worker_threads(cs.workers);
  s.cap->set_cutoff(cs.cutoff);
  s.app->attach(*s.cap);
  s.cap->start();
  return s;
}

struct Latency {
  std::vector<double> us;  // one per sample
  LatencyParts sum;        // ns, summed over the samples
};

struct RepStats {
  double setup_s = 0;
  double wall_s = 0;  // first inject_batch -> return of stop()
  double stop_s = 0;
  double mem_mib = 0;
  std::uint64_t offered = 0;
  std::uint64_t lost = 0;
  std::uint64_t mismatches = 0;
  std::string detail;
  KernelStats kstats;
  std::uint64_t events = 0;
  Latency latency;
  double lag_sum_ns = 0;
  double lag_max_ns = 0;
  double call_p50_us = 0;  // median inject_batch call duration
  std::uint64_t batches = 0;
  // application work
  std::int64_t callback_ns = 0;
  std::uint64_t callbacks = 0;
  std::uint64_t callback_allocs = 0;
  std::uint64_t handled_bytes = 0;
  std::uint64_t matches = 0;
  std::uint64_t exported = 0;
  std::int64_t encode_ns = 0;
  // traced runs
  std::int64_t inject_self_ns = 0;
  std::uint64_t allocs_total = 0;
  std::vector<std::vector<Span>> spans;  // per thread log
};

std::uint64_t lost_packets(const KernelStats& k) {
  return k.pkts_ppl_dropped + k.pkts_nomem_dropped + k.pkts_norec_dropped +
         k.ring_shed_pkts + k.reasm_alloc_failures;
}

/// Turn callback records into spans of their thread's log: batch = the
/// batch that carried the packet the callback is about, parent = the
/// innermost span of the same log that encloses the callback.
void add_callback_spans(std::vector<Span>& spans,
                        const std::vector<CallbackRecord>& recs,
                        const Inputs& in, const BatchLog& log) {
  std::vector<std::int64_t> starts;
  starts.reserve(spans.size());
  for (const Span& s : spans) starts.push_back(s.start);
  for (const CallbackRecord& r : recs) {
    Span s;
    s.name = kSpanApp;
    s.start = r.entry;
    s.end = r.end;
    s.allocs = r.allocs;
    const std::size_t i = index_of_stamp(in.stamps, r.last_ts);
    s.batch = i < in.stamps.size() ? batch_of(log.first, i) : kNoBatch;
    auto p = static_cast<std::int64_t>(
                 std::upper_bound(starts.begin(), starts.end(), r.entry) -
                 starts.begin()) -
             1;
    while (p >= 0 && spans[static_cast<std::size_t>(p)].end < r.end) {
      p = spans[static_cast<std::size_t>(p)].parent;
    }
    s.parent = static_cast<std::int32_t>(p);
    spans.push_back(s);
  }
}

/// Everything measured from the app's records and the batch log, shared by
/// the Capture runs and the replica.
void collect_app(const Inputs& in, const BatchLog& log, const App& app,
                 RepStats& r) {
  for (const auto& ts : app.threads()) {
    for (const CallbackRecord& c : ts->records) {
      r.callback_ns += c.end - c.entry;
      r.callbacks += 1;
      r.callback_allocs += c.allocs;
      r.handled_bytes += c.bytes;
      if (!c.sample) continue;
      const std::int64_t due = due_of(in, log, c.last_ts);
      const std::size_t i = index_of_stamp(in.stamps, c.last_ts);
      if (due < 0 || i >= in.stamps.size()) {
        r.mismatches += 1;
        r.detail = "callback for a packet that was never offered";
        continue;
      }
      const std::size_t b = batch_of(log.first, i);
      const LatencyParts p =
          split_latency(due, log.start[b], log.end[b], c.entry, c.end);
      r.latency.us.push_back(static_cast<double>(p.total()) / 1e3);
      r.latency.sum.lag += p.lag;
      r.latency.sum.inject += p.inject;
      r.latency.sum.handoff += p.handoff;
      r.latency.sum.work += p.work;
    }
    r.matches += ts->matches;
    r.exported += ts->exported;
    r.encode_ns += ts->encode_ns;
  }
  for (std::size_t b = 0; b < log.size(); ++b) {
    const auto lag = static_cast<double>(batch_lag(in, log, b));
    r.lag_sum_ns += lag;
    r.lag_max_ns = std::max(r.lag_max_ns, lag);
  }
  r.batches = log.size();
  std::vector<double> calls(log.size());
  for (std::size_t b = 0; b < log.size(); ++b) {
    calls[b] = static_cast<double>(log.end[b] - log.start[b]) / 1e3;
  }
  r.call_p50_us = median(std::move(calls));
}

RepStats capture_rep(const Inputs& in, bool traced, BatchLog& log) {
  RepStats r;
  malloc_trim(0);
  const double rss0 = status_mib("VmRSS:");
  const bool hwm_reset = reset_peak_rss();
  const std::int64_t t_setup = now_ns();
  Session s = set_up(in, traced);
  r.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;

  ThreadState& main_ts = s.app->local();
  if (traced) main_ts.spans.reserve(in.packets.size() / 4 + 64);
  const std::uint64_t a0 = allocs::total();
  drive(
      in, [&](std::span<const scap::Packet> p) { s.cap->inject_batch(p); },
      log, traced ? &main_ts.spans : nullptr, kSpanInject,
      &allocs::this_thread);
  const std::int64_t t_stop = now_ns();
  if (traced) main_ts.spans.begin(kSpanStop, kNoBatch, allocs::this_thread(), t_stop);
  s.cap->stop();
  const std::int64_t t_end = now_ns();
  if (traced) main_ts.spans.end(allocs::this_thread(), t_end);
  r.allocs_total = allocs::total() - a0;
  const double hwm = status_mib("VmHWM:");
  r.mem_mib = hwm_reset ? hwm - rss0 : status_mib("VmRSS:") - rss0;
  r.wall_s = static_cast<double>(t_end - log.start.front()) / 1e9;
  r.stop_s = static_cast<double>(t_end - t_stop) / 1e9;
  r.offered = in.packets.size();

  s.app->finish();
  const scap::CaptureStats st = s.cap->stats();
  r.kstats = st.kernel;
  r.events = st.events_dispatched;
  r.lost = lost_packets(st.kernel);
  const std::string inv = s.cap->check_invariants();
  if (!inv.empty()) {
    r.mismatches += 1;
    r.detail = "check_invariants: " + inv;
  }
  if (st.kernel.pkts_seen + st.nic_dropped_by_filter != r.offered) {
    r.mismatches += 1;
    r.detail = "kernel saw " + std::to_string(st.kernel.pkts_seen) + " of " +
               std::to_string(r.offered) + " packets";
  }
  const CheckResult chk = s.app->check(st);
  r.mismatches += chk.mismatches;
  if (!chk.detail.empty()) r.detail = chk.detail;
  collect_app(in, log, *s.app, r);

  if (traced) {
    for (const auto& ts : s.app->threads()) {
      std::vector<Span> spans = ts->spans.spans();
      add_callback_spans(spans, ts->records, in, log);
      if (ts.get() == &main_ts) {
        r.inject_self_ns = totals_by_name(spans, kNumSpanNames)[kSpanInject].self_ns;
      }
      r.spans.push_back(std::move(spans));
    }
  }
  return r;
}

/// Setup-only lifecycles: construct, configure and start, timed; stop and
/// tear down untimed.
std::vector<double> setup_trials(const Inputs& in) {
  std::vector<double> out;
  const std::int64_t t_begin = now_ns();
  while (static_cast<int>(out.size()) < kMaxSetupSamples &&
         (static_cast<int>(out.size()) < kMinSetupSamples ||
          static_cast<double>(now_ns() - t_begin) / 1e9 < kSetupTrialSeconds)) {
    const std::int64_t t0 = now_ns();
    Session s = set_up(in, false);
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    s.cap->stop();
  }
  return out;
}

/// KernelStats with the fields the determinism registry does not call
/// deterministic zeroed (shard-geometry and scheduling-dependent ones).
KernelStats normalized(KernelStats s) {
  using scap::kernel::StatDeterminism;
#define SCAP_STATS_FIELD(field, determinism)                             \
  if constexpr (StatDeterminism::determinism !=                          \
                StatDeterminism::kDeterministic) {                       \
    s.field = 0;                                                         \
  }
#define SCAP_STATS_ARRAY(field, determinism)                             \
  if constexpr (StatDeterminism::determinism !=                          \
                StatDeterminism::kDeterministic) {                       \
    std::fill(std::begin(s.field), std::end(s.field), 0);                \
  }
#include "kernel/stats_determinism.inc"
  return s;
}

struct ReplicaRep {
  RepStats app;
  ReplicaResult layers;
};

ReplicaRep replica_rep(const Inputs& in, const KernelStats& reference) {
  ReplicaRep out;
  App app(in, true);
  out.layers = run_replica(in, app);
  RepStats& r = out.app;
  r.offered = in.packets.size();
  r.kstats = out.layers.stats;
  r.lost = lost_packets(out.layers.stats);
  app.finish();
  scap::CaptureStats st;
  st.kernel = out.layers.stats;
  const CheckResult chk = app.check(st);
  r.mismatches += chk.mismatches;
  r.detail = chk.detail;
  const std::string law = out.layers.stats.check_conservation();
  if (!law.empty()) {
    r.mismatches += 1;
    r.detail = "replica conservation: " + law;
  }
  if (!(normalized(out.layers.stats) == normalized(reference))) {
    r.mismatches += 1;
    r.detail = "replica KernelStats differ from the Capture run's";
  }
  collect_app(in, out.layers.batches, app, r);
  for (const auto& ts : app.threads()) {
    if (ts.get() != &app.local()) continue;
    add_callback_spans(out.layers.spans, ts->records, in, out.layers.batches);
  }
  return out;
}

// --- aggregation ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t lost = 0;
  std::uint64_t mismatches = 0;
  std::string detail;
  double measured_s = 0;

  void add(const RepStats& r) {
    attempted += r.offered;
    lost += r.lost;
    mismatches += r.mismatches;
    if (detail.empty()) detail = r.detail;
    measured_s += r.wall_s;
  }
};

template <typename Fn>
double median_of(const std::vector<RepStats>& reps, Fn&& fn) {
  std::vector<double> v;
  for (const RepStats& r : reps) v.push_back(fn(r));
  return median(v);
}

std::vector<double> pooled_latency(const std::vector<RepStats>& reps) {
  std::vector<double> v;
  for (const RepStats& r : reps) {
    v.insert(v.end(), r.latency.us.begin(), r.latency.us.end());
  }
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<RepStats> run_phase(const Inputs& in, double seconds, bool traced,
                                BatchLog& log) {
  // A paced lifecycle lasts as long as its schedule, so the phase holds a
  // known number of them. Closed-loop lifecycles repeat until the phase is
  // over.
  const double paced_s = in.rate_pps > 0
                             ? static_cast<double>(in.packets.size()) / in.rate_pps
                             : 0.0;
  const long paced_reps =
      in.rate_pps > 0 ? std::max(1L, std::lround(seconds / paced_s)) : 0;
  std::vector<RepStats> reps;
  const std::int64_t t0 = now_ns();
  do {
    reps.push_back(capture_rep(in, traced, log));
    if (traced && reps.size() > 1) reps[reps.size() - 2].spans.clear();
  } while (in.rate_pps > 0
               ? static_cast<long>(reps.size()) < paced_reps
               : (static_cast<int>(reps.size()) < kMinClosedLoopReps ||
                  static_cast<double>(now_ns() - t0) / 1e9 < seconds));
  return reps;
}

double throughput_mpps(const RepStats& r) {
  return static_cast<double>(r.offered) / r.wall_s / 1e6;
}

/// A lifecycle's latency_p50_us. Open loop: its median latency sample.
/// Closed loop: its median inject_batch call, the latency a caller that
/// always has the next batch ready sees. Closed-loop samples measure how
/// full the shard rings happen to be (sharded lifecycles flip between
/// about 2.5 and 4 ms from one to the next), not the program.
double lifecycle_p50_us(const Inputs& in, const RepStats& r) {
  if (in.rate_pps <= 0) return r.call_p50_us;
  std::vector<double> v = r.latency.us;
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : nearest_rank(v, 2);
}

/// Median over lifecycles of lifecycle_p50_us.
double median_p50_us(const Inputs& in, const std::vector<RepStats>& reps) {
  return median_of(reps,
                   [&](const RepStats& r) { return lifecycle_p50_us(in, r); });
}

/// Write the last lifecycle's spans of the traced Capture phase and of the
/// replica, limited to those that started before the phase's
/// (kSpansWrittenBatches + 1)-th injected batch: a paced lifecycle has
/// hundreds of thousands of batches.
void write_spans(const std::string& path, const std::vector<RepStats>& traced,
                 const ReplicaRep& replica) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "phase,log,span,name,batch,parent,start_ns,end_ns,allocs\n");
  auto cutoff = [](const std::vector<Span>& main_log, std::uint32_t batch_name) {
    std::uint64_t seen = 0;
    for (const Span& s : main_log) {
      if (s.name == batch_name && ++seen > kSpansWrittenBatches) return s.start;
    }
    return std::numeric_limits<std::int64_t>::max();
  };
  auto dump = [f](const char* phase, std::size_t log_id,
                  const std::vector<Span>& spans, std::int64_t cut) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.start >= cut) continue;
      std::fprintf(f, "%s,%zu,%zu,%s,%lld,%d,%lld,%lld,%llu\n", phase, log_id,
                   i, span_name(s.name),
                   s.batch == kNoBatch ? -1LL : static_cast<long long>(s.batch),
                   s.parent, static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<unsigned long long>(s.allocs));
    }
  };
  const RepStats& last = traced.back();
  // The capture's main log is the first registered thread (the producer).
  const std::int64_t cut_capture =
      last.spans.empty() ? 0 : cutoff(last.spans.front(), kSpanInject);
  for (std::size_t t = 0; t < last.spans.size(); ++t) {
    dump("capture", t, last.spans[t], cut_capture);
  }
  const std::int64_t cut_replica = cutoff(replica.layers.spans, kSpanBatch);
  dump("replica", 0, replica.layers.spans, cut_replica);
  for (std::size_t w = 0; w < replica.layers.worker_spans.size(); ++w) {
    dump("replica", w + 1, replica.layers.worker_spans[w], cut_replica);
  }
  std::fclose(f);
}

int run(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 build_type.c_str());
    return 2;
  }
  WorkloadKind kind;
  if (args.workload == "stream_delivery") {
    kind = WorkloadKind::kStreamDelivery;
  } else if (args.workload == "flowstats_mc") {
    kind = WorkloadKind::kFlowstatsMc;
  } else if (args.workload == "nids_paced") {
    kind = WorkloadKind::kNidsPaced;
  } else {
    usage("unknown --workload");
  }
  const bool traced_run = args.trace == 1;
  const double phase_s = traced_run ? args.seconds / 3.0 : args.seconds;

  const std::int64_t t_gen = now_ns();
  const Inputs in = make_inputs(kind, args.seed, phase_s);
  const double gen_s = static_cast<double>(now_ns() - t_gen) / 1e9;
  // Benchmark-side storage, resident before any memory baseline.
  // One buffer per callback thread; a quarter of the packets covers every
  // workload's records per thread (flowstats_mc: one per flow and pass,
  // split over two workers).
  prefault_record_buffers(static_cast<std::size_t>(in.workers) + 1,
                          in.packets.size() / 4 + 4096);
  BatchLog log;
  {
    const std::size_t max_batches =
        in.rate_pps > 0 ? in.packets.size()
                        : (in.packets.size() + in.batch - 1) / in.batch;
    log.first.resize(max_batches);
    log.start.resize(max_batches);
    log.end.resize(max_batches);
  }

  std::vector<double> setups = setup_trials(in);
  const std::vector<RepStats> plain = run_phase(in, phase_s, false, log);
  for (const RepStats& r : plain) setups.push_back(r.setup_s);

  Tally tally;
  for (const RepStats& r : plain) tally.add(r);
  // Every lifecycle of one input must count the same deterministic totals.
  for (const RepStats& r : plain) {
    if (!(normalized(r.kstats) == normalized(plain.front().kstats))) {
      tally.mismatches += 1;
      if (tally.detail.empty()) tally.detail = "KernelStats differ between lifecycles";
    }
  }

  const std::vector<double> lat = pooled_latency(plain);
  const Percentile top = highest_supported_percentile(lat.size());
  const std::uint64_t p99_d = std::min<std::uint64_t>(top.tail_denominator, 100);
  const double p50 = lat.empty() ? 0.0 : nearest_rank(lat, 2);
  const double p99 = lat.empty() || p99_d == 0 ? 0.0 : nearest_rank(lat, p99_d);
  double lag_sum = 0;
  double lag_max = 0;
  std::uint64_t batches = 0;
  for (const RepStats& r : plain) {
    lag_sum += r.lag_sum_ns;
    lag_max = std::max(lag_max, r.lag_max_ns);
    batches += r.batches;
  }
  const double lag_mean_us = batches ? lag_sum / static_cast<double>(batches) / 1e3 : 0;
  std::vector<RepStats> measured;  // the valid lifecycles (all, closed loop)
  for (const RepStats& r : plain) {
    const double mean_us =
        r.batches ? r.lag_sum_ns / static_cast<double>(r.batches) / 1e3 : 0;
    if (in.rate_pps <= 0 || mean_us <= kMaxMeanLagUs) measured.push_back(r);
  }
  const bool valid = !measured.empty();
  if (!valid) measured = plain;  // still print numbers, marked invalid

  std::vector<Metric> metrics;
  const double thr = median_of(measured, throughput_mpps);
  const double p50_median = median_p50_us(in, measured);
  if (!traced_run) {
    metrics.push_back({"throughput_mpps", thr, "Mpkt/s"});
    metrics.push_back({"latency_p50_us", p50_median, "us"});
    metrics.push_back({"setup_s", median(setups), "s"});
    // The first lifecycle: later ones reuse memory the allocator kept from
    // earlier ones (thread arenas, cached thread stacks), so their RSS gain
    // understates what the capture needs and flips between two modes from
    // one run to the next.
    metrics.push_back({"mem_mb", plain.front().mem_mib, "MiB"});
  } else {
    const std::vector<RepStats> traced = run_phase(in, phase_s, true, log);
    for (const RepStats& r : traced) tally.add(r);
    std::vector<ReplicaRep> replica;
    const std::int64_t t_rep = now_ns();
    do {
      replica.push_back(replica_rep(in, plain.front().kstats));
      tally.add(replica.back().app);
      if (replica.size() > 1) {
        replica[replica.size() - 2].layers.spans.clear();
        replica[replica.size() - 2].layers.worker_spans.clear();
      }
    } while (static_cast<double>(now_ns() - t_rep) / 1e9 < phase_s);

    // scap: the traced Capture phase.
    double offered = 0;
    double inject_self = 0;
    double capture_allocs = 0;
    double events = 0;
    double callback_ns = 0;
    double wall_ns = 0;
    double handled = 0;
    double encode_ns = 0;
    double exported = 0;
    double samples = 0;
    LatencyParts parts;
    std::vector<double> stops;
    double tlag_sum = 0;
    double tlag_max = 0;
    double tbatches = 0;
    for (const RepStats& r : traced) {
      offered += static_cast<double>(r.offered);
      inject_self += static_cast<double>(r.inject_self_ns);
      capture_allocs +=
          static_cast<double>(r.allocs_total) - static_cast<double>(r.callback_allocs);
      events += static_cast<double>(r.events);
      callback_ns += static_cast<double>(r.callback_ns);
      wall_ns += r.wall_s * 1e9;
      handled += static_cast<double>(r.handled_bytes);
      encode_ns += static_cast<double>(r.encode_ns);
      exported += static_cast<double>(r.exported);
      samples += static_cast<double>(r.latency.us.size());
      parts.lag += r.latency.sum.lag;
      parts.inject += r.latency.sum.inject;
      parts.handoff += r.latency.sum.handoff;
      parts.work += r.latency.sum.work;
      stops.push_back(r.stop_s * 1e3);
      tlag_sum += r.lag_sum_ns;
      tlag_max = std::max(tlag_max, r.lag_max_ns);
      tbatches += static_cast<double>(r.batches);
    }
    const RepStats& t0 = traced.front();
    const bool sharded = in.workers > 0;
    const bool nids = kind == WorkloadKind::kNidsPaced;
    const bool flows = kind == WorkloadKind::kFlowstatsMc;
    auto per_sample = [&](std::int64_t ns) {
      return samples > 0 ? static_cast<double>(ns) / samples / 1e3 : 0.0;
    };
    metrics.push_back({"scap.inject_ns_per_pkt", inject_self / offered, "ns"});
    metrics.push_back({"scap.stop_ms", median(stops), "ms"});
    metrics.push_back({"scap.events_per_kpkt", events * 1e3 / offered, "count"});
    metrics.push_back({"scap.allocs_per_pkt", capture_allocs / offered, "count"});

    // nic, kernel, shard: the layer replica.
    double r_offered = 0;
    double nic_ns = 0;
    double kernel_ns = 0;
    double kernel_allocs = 0;
    double submit_ns = 0;
    double hook_calls = 0;
    double worker_cpu = 0;
    double r_wall = 0;
    for (const ReplicaRep& rr : replica) {
      const ReplicaResult& L = rr.layers;
      r_offered += static_cast<double>(rr.app.offered);
      r_wall += static_cast<double>(L.wall_ns);
      hook_calls += static_cast<double>(L.hook_calls);
      worker_cpu += static_cast<double>(L.worker_cpu_ns);
      const auto tot = totals_by_name(L.spans, kNumSpanNames);
      nic_ns += static_cast<double>(tot[kSpanNicReceive].total_ns);
      submit_ns += static_cast<double>(tot[kSpanShardSubmit].total_ns);
      if (sharded) {
        kernel_ns += static_cast<double>(L.worker_cpu_ns - L.worker_hook_ns);
        kernel_allocs += static_cast<double>(L.worker_allocs) -
                         static_cast<double>(L.worker_hook_allocs);
      } else {
        kernel_ns += static_cast<double>(tot[kSpanKernelBatch].total_ns);
        kernel_allocs += static_cast<double>(tot[kSpanKernelBatch].self_allocs);
      }
    }
    const ReplicaResult& L0 = replica.back().layers;
    double qmax = 0;
    double qsum = 0;
    for (std::uint64_t q : L0.queue_pkts) {
      qmax = std::max(qmax, static_cast<double>(q));
      qsum += static_cast<double>(q);
    }
    const double qmean = qsum / static_cast<double>(L0.queue_pkts.size());
    const KernelStats& k = L0.stats;
    const double seen = static_cast<double>(k.pkts_seen);
    metrics.push_back({"nic.receive_ns_per_pkt", nic_ns / r_offered, "ns"});
    metrics.push_back({"nic.queue_skew", qmean > 0 ? qmax / qmean : 0, "ratio"});
    metrics.push_back({"kernel.handle_batch_ns_per_pkt", kernel_ns / r_offered, "ns"});
    metrics.push_back({"kernel.allocs_per_pkt", kernel_allocs / r_offered, "count"});
    metrics.push_back({"kernel.stored_frac", static_cast<double>(k.pkts_stored) / seen, "ratio"});
    metrics.push_back({"kernel.cutoff_frac", static_cast<double>(k.pkts_cutoff) / seen, "ratio"});
    metrics.push_back({"kernel.chunks_per_kpkt",
                       static_cast<double>(k.chunks_delivered) * 1e3 / seen, "count"});
    metrics.push_back({"kernel.drop_frac", static_cast<double>(lost_packets(k)) / seen,
                       "ratio"});
    const double workers = static_cast<double>(std::max(in.workers, 1));
    metrics.push_back({"shard.submit_ns_per_pkt", sharded ? submit_ns / r_offered : 0, "ns"});
    metrics.push_back({"shard.batch_avg",
                       sharded && hook_calls > 0 ? seen * static_cast<double>(replica.size()) / hook_calls : 0,
                       "count"});
    metrics.push_back({"shard.worker_busy_frac",
                       sharded ? worker_cpu / (workers * r_wall) : 0, "ratio"});
    metrics.push_back({"shard.producer_busy_frac",
                       sharded ? (nic_ns + submit_ns) / r_wall : 0, "ratio"});
    metrics.push_back({"shard.ring_occupancy_peak",
                       static_cast<double>(k.ring_occupancy_peak), "count"});
    metrics.push_back({"shard.handoff_mean_us", sharded ? per_sample(parts.handoff) : 0, "us"});
    metrics.push_back({"match.scan_ns_per_byte",
                       nids && handled > 0 ? callback_ns / handled : 0, "ns"});
    metrics.push_back({"match.scan_mean_us",
                       nids && t0.callbacks > 0
                           ? callback_ns / static_cast<double>(traced.size()) /
                                 static_cast<double>(t0.callbacks) / 1e3
                           : 0,
                       "us"});
    metrics.push_back({"match.bytes", nids ? static_cast<double>(t0.handled_bytes) : 0, "bytes"});
    metrics.push_back({"match.matches", nids ? static_cast<double>(t0.matches) : 0, "count"});
    metrics.push_back({"export.encode_ns_per_record",
                       flows && exported > 0 ? encode_ns / exported : 0, "ns"});
    metrics.push_back({"export.records", flows ? static_cast<double>(t0.exported) : 0, "count"});
    metrics.push_back({"app.busy_frac", callback_ns / wall_ns, "ratio"});
    metrics.push_back({"flowgen.lag_mean_us", tbatches > 0 ? tlag_sum / tbatches / 1e3 : 0, "us"});
    metrics.push_back({"flowgen.lag_max_ms", tlag_max / 1e6, "ms"});
    double overhead = 0;
    if (in.rate_pps > 0) {
      const double traced_p50 = median_p50_us(in, traced);
      overhead = p50_median > 0 ? (traced_p50 / p50_median - 1) * 100 : 0;
    } else {
      overhead = (thr / median_of(traced, throughput_mpps) - 1) * 100;
    }
    metrics.push_back({"trace.overhead_pct", overhead, "%"});
    const std::vector<double> tl = pooled_latency(traced);
    const Percentile tp = highest_supported_percentile(tl.size());
    metrics.push_back({"latency_p99_us",
                       tl.empty() || tp.tail_denominator == 0
                           ? 0
                           : nearest_rank(tl, std::min<std::uint64_t>(tp.tail_denominator, 100)),
                       "us"});
    metrics.push_back({"latency.samples", samples, "count"});
    double mean_us = 0;
    for (const RepStats& r : traced) {
      for (double v : r.latency.us) mean_us += v;
    }
    metrics.push_back({"latency.mean_us", samples > 0 ? mean_us / samples : 0, "us"});
    metrics.push_back({"latency.lag_us", per_sample(parts.lag), "us"});
    metrics.push_back({"latency.inject_us", per_sample(parts.inject), "us"});
    metrics.push_back({"latency.handoff_us", per_sample(parts.handoff), "us"});
    metrics.push_back({"latency.work_us", per_sample(parts.work), "us"});
    if (!args.spans_out.empty()) write_spans(args.spans_out, traced, replica.back());
  }

  // --- report -----------------------------------------------------------------
  const bool correct = tally.mismatches == 0 && tally.lost == 0 && valid;
  std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace);
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("info   loss_pct %.6g %% (%llu of %llu packets lost)\n",
              tally.attempted ? 100.0 * static_cast<double>(tally.lost) /
                                    static_cast<double>(tally.attempted)
                              : 0.0,
              static_cast<unsigned long long>(tally.lost),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("info   delivery latency samples %zu (all lifecycles), p50 %.6g us, "
              "p99 %.6g us, highest supported percentile %s\n",
              lat.size(), p50, p99, top.label().c_str());
  std::printf("info   lifecycles %zu (%zu valid), throughput median %.6g "
              "Mpkt/s, generator lag mean %.6g us max %.6g ms\n",
              plain.size(), valid ? measured.size() : 0, thr, lag_mean_us,
              lag_max / 1e6);
  std::printf("info   per lifecycle:");
  for (const RepStats& r : plain) {
    std::printf(" %.4g Mpkt/s %.4g ms p50 %.4g us %.4g MiB lag %.3g us;",
                throughput_mpps(r), r.wall_s * 1e3, lifecycle_p50_us(in, r),
                r.mem_mib,
                r.batches ? r.lag_sum_ns / static_cast<double>(r.batches) / 1e3 : 0);
  }
  std::printf("\n");
  if (!valid) {
    std::printf("info   INVALID: in every lifecycle the generator ran more "
                "than %.6g us late on average\n", kMaxMeanLagUs);
  }
  if (tally.mismatches > 0) {
    std::printf("info   OUTPUT CHECK FAILED (%llu): %s\n",
                static_cast<unsigned long long>(tally.mismatches),
                tally.detail.c_str());
  }
  std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"hw_threads\": %u, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
              "\"run_seconds_requested\": %.6g, \"run_seconds_measured\": %.6g, "
              "\"input_packets\": %zu, \"input_gen_s\": %.6g, \"valid\": %s}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              std::thread::hardware_concurrency(), build_type.c_str(),
              PERFBENCH_COMPILER, args.commit.c_str(), args.seconds,
              tally.measured_s, in.packets.size(), gen_s,
              valid ? "true" : "false");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.lost + tally.mismatches);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
