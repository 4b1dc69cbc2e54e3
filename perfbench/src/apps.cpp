#include "apps.hpp"

#include <atomic>
#include <cstdio>

#include "alloc_count.hpp"

namespace perfbench {

using scap::StreamView;
using scap::kernel::StreamStatus;

namespace {

std::atomic<std::uint64_t> g_generation{0};

std::mutex g_pool_mu;
std::vector<std::vector<CallbackRecord>> g_record_pool;

// Flow records per IPFIX message.
constexpr std::size_t kRecordsPerMessage = 32;

struct LocalCache {
  std::uint64_t generation = 0;
  ThreadState* state = nullptr;
};
thread_local LocalCache t_cache;

bool is_sample(const StreamView& sd) {
  return sd.status() != StreamStatus::kClosedTimeout;
}

}  // namespace

void CheckResult::fail(const std::string& what, std::uint64_t count) {
  if (mismatches < 3) detail += (detail.empty() ? "" : "; ") + what;
  mismatches += count;
}

App::App(const Inputs& in, bool timed_encode)
    : in_(in),
      timed_encode_(timed_encode),
      generation_(g_generation.fetch_add(1) + 1),
      owner_thread_(std::this_thread::get_id()) {
  if (in_.kind == WorkloadKind::kNidsPaced) {
    ac_ = std::make_unique<scap::match::AhoCorasick>(in_.patterns);
  }
}

App::~App() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  for (auto& ts : threads_) {
    if (ts->records.capacity() == 0) continue;
    ts->records.clear();
    g_record_pool.push_back(std::move(ts->records));
  }
}

void prefault_record_buffers(std::size_t buffers, std::size_t capacity) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  for (std::size_t i = 0; i < buffers; ++i) {
    std::vector<CallbackRecord> v(capacity);  // value-initialized: touched
    v.clear();
    g_record_pool.push_back(std::move(v));
  }
}

ThreadState& App::local() {
  if (t_cache.generation == generation_) return *t_cache.state;
  std::lock_guard<std::mutex> lock(threads_mu_);
  threads_.push_back(std::make_unique<ThreadState>());
  ThreadState* ts = threads_.back().get();
  {
    std::lock_guard<std::mutex> pool_lock(g_pool_mu);
    if (!g_record_pool.empty()) {
      ts->records = std::move(g_record_pool.back());
      g_record_pool.pop_back();
    }
  }
  t_cache = {generation_, ts};
  return *ts;
}

void App::attach(scap::Capture& cap) {
  cap.dispatch_creation([this](StreamView& sd) { on_created(sd); });
  cap.dispatch_data([this](StreamView& sd) { on_data(sd); });
  cap.dispatch_termination([this](StreamView& sd) { on_terminated(sd); });
}

void App::on_created(StreamView&) {}

std::uint32_t& App::ac_state_for(ThreadState& ts, scap::kernel::StreamId id) {
  auto it = ts.ac_state.find(id);
  if (it != ts.ac_state.end()) return it->second;
  if (std::this_thread::get_id() == owner_thread_) {
    for (const auto& other : threads_) {
      if (other.get() == &ts) continue;
      auto o = other->ac_state.find(id);
      if (o != other->ac_state.end()) {
        auto& moved = ts.ac_state[id];
        moved = o->second;
        other->ac_state.erase(o);
        return moved;
      }
    }
  }
  return ts.ac_state.emplace(id, scap::match::AhoCorasick::root_state())
      .first->second;
}

void App::on_data(StreamView& sd) {
  ThreadState& ts = local();
  CallbackRecord r;
  r.entry = now_ns();
  const std::uint64_t a0 = allocs::this_thread();
  const auto data = sd.data();
  switch (in_.kind) {
    case WorkloadKind::kStreamDelivery:
      ts.live_digests[sd.id()].update(data);
      break;
    case WorkloadKind::kNidsPaced:
      ts.matches += ac_->scan_stream(ac_state_for(ts, sd.id()), data);
      ts.chunks += 1;
      break;
    case WorkloadKind::kFlowstatsMc:
      break;  // cutoff 0: no data is delivered
  }
  r.end = now_ns();
  r.last_ts = sd.stats().last_packet.ns();
  r.bytes = static_cast<std::uint32_t>(data.size());
  r.allocs = static_cast<std::uint32_t>(allocs::this_thread() - a0);
  r.sample = is_sample(sd);
  ts.records.push_back(r);
}

void App::encode_pending(ThreadState& ts) {
  if (ts.pending.empty()) return;
  const std::int64_t t0 = timed_encode_ ? now_ns() : 0;
  const auto msg =
      ts.writer.encode(ts.pending, ts.pending.back().last_seen);
  if (timed_encode_) ts.encode_ns += now_ns() - t0;
  ts.ipfix.insert(ts.ipfix.end(), msg.begin(), msg.end());
  ts.exported += ts.pending.size();
  ts.pending.clear();
}

void App::on_terminated(StreamView& sd) {
  ThreadState& ts = local();
  switch (in_.kind) {
    case WorkloadKind::kStreamDelivery: {
      auto it = ts.live_digests.find(sd.id());
      if (it == ts.live_digests.end()) return;  // stream carried no data
      StreamExpect& e = ts.delivered[sd.tuple()];
      e.digest_sum += it->second.value();
      e.bytes += it->second.length();
      e.streams += 1;
      ts.live_digests.erase(it);
      return;
    }
    case WorkloadKind::kNidsPaced:
      ts.ac_state.erase(sd.id());
      return;
    case WorkloadKind::kFlowstatsMc: {
      CallbackRecord r;
      r.entry = now_ns();
      const std::uint64_t a0 = allocs::this_thread();
      const auto& st = sd.stats();
      ts.pending.push_back(scap::exporter::FlowRecord{
          sd.tuple(), st.bytes, st.pkts, st.first_packet, st.last_packet});
      if (ts.pending.size() >= kRecordsPerMessage) encode_pending(ts);
      r.end = now_ns();
      r.last_ts = st.last_packet.ns();
      r.allocs = static_cast<std::uint32_t>(allocs::this_thread() - a0);
      r.sample = is_sample(sd);
      ts.records.push_back(r);
      return;
    }
  }
}

void App::finish() {
  for (auto& ts : threads_) encode_pending(*ts);
}

CheckResult App::check(const scap::CaptureStats& stats) const {
  CheckResult res;
  char buf[256];
  switch (in_.kind) {
    case WorkloadKind::kStreamDelivery: {
      StreamExpectMap got;
      for (const auto& ts : threads_) {
        if (!ts->live_digests.empty()) {
          res.fail("streams never terminated", ts->live_digests.size());
        }
        for (const auto& [tuple, e] : ts->delivered) {
          StreamExpect& g = got[tuple];
          g.digest_sum += e.digest_sum;
          g.bytes += e.bytes;
          g.streams += e.streams;
        }
      }
      for (const auto& [tuple, want] : in_.expect_streams) {
        auto it = got.find(tuple);
        if (it == got.end()) {
          res.fail("stream " + scap::to_string(tuple) + " not delivered");
        } else if (!(it->second == want)) {
          std::snprintf(buf, sizeof buf,
                        "stream %s: %llu bytes digest %016llx, want %llu "
                        "bytes digest %016llx",
                        scap::to_string(tuple).c_str(),
                        static_cast<unsigned long long>(it->second.bytes),
                        static_cast<unsigned long long>(it->second.digest_sum),
                        static_cast<unsigned long long>(want.bytes),
                        static_cast<unsigned long long>(want.digest_sum));
          res.fail(buf);
        }
      }
      for (const auto& [tuple, g] : got) {
        if (!in_.expect_streams.contains(tuple)) {
          res.fail("unexpected stream " + scap::to_string(tuple));
        }
      }
      break;
    }
    case WorkloadKind::kNidsPaced: {
      std::uint64_t matches = 0;
      std::uint64_t chunks = 0;
      for (const auto& ts : threads_) {
        matches += ts->matches;
        chunks += ts->chunks;
      }
      if (matches != in_.expect_matches) {
        std::snprintf(buf, sizeof buf, "%llu matches, reference scan %llu",
                      static_cast<unsigned long long>(matches),
                      static_cast<unsigned long long>(in_.expect_matches));
        res.fail(buf);
      }
      if (chunks != stats.kernel.chunks_delivered) {
        std::snprintf(buf, sizeof buf, "%llu chunks scanned, %llu delivered",
                      static_cast<unsigned long long>(chunks),
                      static_cast<unsigned long long>(
                          stats.kernel.chunks_delivered));
        res.fail(buf);
      }
      break;
    }
    case WorkloadKind::kFlowstatsMc: {
      std::vector<std::uint32_t> seen(in_.flows, 0);
      std::uint64_t records = 0;
      for (const auto& ts : threads_) {
        if (!ts->pending.empty()) res.fail("unflushed flow records");
        scap::exporter::IpfixReader reader;
        std::span<const std::uint8_t> rest(ts->ipfix);
        while (!rest.empty()) {
          const std::size_t len =
              rest.size() >= 4 ? (std::size_t{rest[2]} << 8 | rest[3]) : 0;
          const auto msg = len >= 16 && len <= rest.size()
                               ? reader.decode(rest.first(len))
                               : std::nullopt;
          if (!msg) {
            res.fail("undecodable IPFIX message");
            break;
          }
          rest = rest.subspan(len);
          for (const auto& rec : msg->records) {
            ++records;
            const std::uint32_t i = rec.tuple.src_ip - in_.src_base;
            if (i >= in_.flows) {
              res.fail("record for unknown flow " + scap::to_string(rec.tuple));
              continue;
            }
            ++seen[i];
            if (rec.packets != in_.expect_flow_pkts ||
                rec.bytes != in_.expect_flow_bytes) {
              std::snprintf(buf, sizeof buf,
                            "flow %s: %llu pkts %llu bytes, generated %llu/%llu",
                            scap::to_string(rec.tuple).c_str(),
                            static_cast<unsigned long long>(rec.packets),
                            static_cast<unsigned long long>(rec.bytes),
                            static_cast<unsigned long long>(in_.expect_flow_pkts),
                            static_cast<unsigned long long>(in_.expect_flow_bytes));
              res.fail(buf);
            }
          }
        }
      }
      const auto passes = static_cast<std::uint32_t>(in_.loops);
      std::uint64_t wrong = 0;
      for (std::uint32_t n : seen) wrong += n != passes ? 1 : 0;
      if (wrong > 0) {
        std::snprintf(buf, sizeof buf,
                      "%llu flows without exactly %u records (%llu records, "
                      "want %llu)",
                      static_cast<unsigned long long>(wrong), passes,
                      static_cast<unsigned long long>(records),
                      static_cast<unsigned long long>(in_.flows * passes));
        res.fail(buf, wrong);
      }
      break;
    }
  }
  return res;
}

}  // namespace perfbench
