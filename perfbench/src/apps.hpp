// The monitoring applications the workloads run on top of scap::Capture:
// a per-stream digest (stream_delivery), an Aho-Corasick NIDS scan
// (nids_paced) and a YAF-style IPFIX flow exporter (flowstats_mc). Each
// keeps its state per thread, so with worker threads the benchmark adds no
// lock shared across workers, and each checks its output against the
// reference in Inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "export/ipfix.hpp"
#include "helpers.hpp"
#include "inputs.hpp"
#include "match/aho_corasick.hpp"
#include "scap/capture.hpp"

namespace perfbench {

/// One application callback: when it ran, for which packet, and what it
/// cost. `sample` marks the delivered chunks (or exported flows) that count
/// as latency samples: everything except streams closed by inactivity
/// expiry or by the end-of-capture flush, whose wait is the timeout window.
struct CallbackRecord {
  std::int64_t last_ts = 0;  // StreamView::stats().last_packet, simulated ns
  std::int64_t entry = 0;    // wall ns at callback entry
  std::int64_t end = 0;      // wall ns when the application's work ended
  std::uint32_t bytes = 0;   // chunk bytes handled (0 for terminations)
  std::uint32_t allocs = 0;  // heap allocations inside the callback
  bool sample = false;
};

/// Everything one thread's callbacks touch.
struct ThreadState {
  std::vector<CallbackRecord> records;
  SpanLog spans;  // layer spans recorded on this thread

  // stream_delivery
  std::unordered_map<scap::kernel::StreamId, Digest> live_digests;
  StreamExpectMap delivered;

  // nids_paced
  std::unordered_map<scap::kernel::StreamId, std::uint32_t> ac_state;
  std::uint64_t matches = 0;
  std::uint64_t chunks = 0;

  // flowstats_mc
  std::vector<scap::exporter::FlowRecord> pending;
  scap::exporter::IpfixWriter writer;
  std::vector<std::uint8_t> ipfix;  // concatenated IPFIX messages
  std::uint64_t exported = 0;
  std::int64_t encode_ns = 0;
};

/// Pre-fault `buffers` record vectors of `capacity` entries each and keep
/// them for App::local() to hand out, so the benchmark's own sample storage
/// is resident before a run's memory baseline is taken and stays out of
/// mem_mb.
void prefault_record_buffers(std::size_t buffers, std::size_t capacity);

/// Outcome of an output check: number of mismatching items and the first
/// few described.
struct CheckResult {
  std::uint64_t mismatches = 0;
  std::string detail;

  void fail(const std::string& what, std::uint64_t count = 1);
};

class App {
 public:
  /// The application's own set-up (the automaton compile for nids_paced)
  /// happens here and belongs to setup_s.
  App(const Inputs& in, bool timed_encode);
  ~App();

  App(const App&) = delete;
  App& operator=(const App&) = delete;

  void attach(scap::Capture& cap);
  void on_created(scap::StreamView& sd);
  void on_data(scap::StreamView& sd);
  void on_terminated(scap::StreamView& sd);

  /// State of the calling thread (registered on first use).
  ThreadState& local();

  /// Quiescent-only: flush exporter buffers once every thread has stopped.
  void finish();

  /// Quiescent-only: compare outputs with the reference.
  CheckResult check(const scap::CaptureStats& stats) const;

  const std::vector<std::unique_ptr<ThreadState>>& threads() const {
    return threads_;
  }

 private:
  /// nids_paced: carried automaton state of a stream. The final drain of
  /// stop() runs on the stopping thread after the workers joined, so a
  /// stream it has never seen is looked up in the other threads' maps.
  std::uint32_t& ac_state_for(ThreadState& ts, scap::kernel::StreamId id);
  void encode_pending(ThreadState& ts);

  const Inputs& in_;
  const bool timed_encode_;
  const std::uint64_t generation_;
  const std::thread::id owner_thread_;
  std::unique_ptr<scap::match::AhoCorasick> ac_;
  std::mutex threads_mu_;  // registration only, once per thread
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

}  // namespace perfbench
