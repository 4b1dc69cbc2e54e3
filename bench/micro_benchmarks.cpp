// Microbenchmarks of the datapath hot paths (google-benchmark).
//
// These measure the REAL implementation cost on the build machine —
// complementary to the cycle model in src/sim/costs.hpp, and the place to
// check that a change didn't regress the per-packet path.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "base/hash.hpp"
#include "kernel/module.hpp"
#include "kernel/reassembly.hpp"
#include "match/aho_corasick.hpp"
#include "match/corpus.hpp"
#include "nic/rss.hpp"
#include "packet/craft.hpp"

namespace {

using namespace scap;

void BM_PacketDecode(benchmark::State& state) {
  TcpSegmentSpec spec;
  spec.tuple = {0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)),
                                    0x61);
  spec.payload = payload;
  auto frame = std::make_shared<const std::vector<std::uint8_t>>(
      build_tcp_frame(spec));
  for (auto _ : state) {
    Packet p = Packet::decode(frame, Timestamp(0));
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * frame->size());
}
BENCHMARK(BM_PacketDecode)->Arg(64)->Arg(1460);

void BM_ToeplitzHash(benchmark::State& state) {
  const RssKey key = symmetric_rss_key();
  std::uint8_t input[12] = {10, 0, 0, 1, 10, 0, 0, 2, 0x9c, 0x40, 0, 80};
  for (auto _ : state) {
    benchmark::DoNotOptimize(toeplitz_hash(key, input));
    input[3]++;
  }
}
BENCHMARK(BM_ToeplitzHash);

// The per-packet RSS steer as the NIC and the shard producer run it:
// endpoint canonicalization plus the table-driven Toeplitz hash. The tuple
// mix is client/server traffic: clients in 10.0/16 on ephemeral ports,
// 64 servers on a few service ports, both directions of every flow.
void BM_RssQueueFor(benchmark::State& state) {
  const nic::RssEngine rss(symmetric_rss_key(), 8);
  constexpr std::uint16_t kServicePorts[] = {80, 443, 53, 22, 25, 8080};
  std::vector<FiveTuple> tuples;
  std::uint64_t z = 0x5ca9;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t r = mix64(++z);
    FiveTuple t{0x0a000000u | static_cast<std::uint32_t>(r & 0xffff),
                0xc0a80000u | static_cast<std::uint32_t>((r >> 16) & 0x3f),
                static_cast<std::uint16_t>(32768 + (r >> 24) % 28232),
                kServicePorts[(r >> 40) % 6],
                (r >> 48) % 8 == 0 ? kProtoUdp : kProtoTcp};
    tuples.push_back((r >> 56) & 1 ? t.reversed() : t);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rss.queue_for(tuples[i]));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_RssQueueFor);

// The per-key table build an RssEngine pays once, at construction.
void BM_ToeplitzTableBuild(benchmark::State& state) {
  RssKey key = symmetric_rss_key();
  for (auto _ : state) {
    ToeplitzTable table(key);
    benchmark::DoNotOptimize(table);
    key[0]++;
  }
}
BENCHMARK(BM_ToeplitzTableBuild);

void BM_TcpReassemblyInOrder(benchmark::State& state) {
  const std::size_t seg = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> payload(seg, 0x62);
  kernel::StreamParams params;
  params.chunk_size = 16 * 1024;
  std::vector<kernel::Chunk> completed;
  for (auto _ : state) {
    state.PauseTiming();
    kernel::TcpReassembler r(params, false);
    r.on_syn(0);
    completed.clear();
    state.ResumeTiming();
    std::uint32_t s = 1;
    for (int i = 0; i < 64; ++i) {
      kernel::SegmentMeta meta;
      auto res = r.on_data(s, payload, meta, completed);
      benchmark::DoNotOptimize(res.accepted_bytes);
      s += static_cast<std::uint32_t>(seg);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(seg));
}
BENCHMARK(BM_TcpReassemblyInOrder)->Arg(512)->Arg(1460);

void BM_AhoCorasickScan(benchmark::State& state) {
  static const match::AhoCorasick ac(
      match::make_corpus({.pattern_count = 2120}));
  std::vector<std::uint8_t> data(16 * 1024);
  Rng rng(5);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>('a' + rng.bounded(26));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ac.scan(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_AhoCorasickScan);

void BM_KernelHandlePacket(benchmark::State& state) {
  kernel::KernelConfig cfg;
  cfg.memory_size = 1ull << 30;
  cfg.creation_events = false;
  kernel::ScapKernel k(cfg);

  TcpSegmentSpec syn;
  syn.tuple = {0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  syn.seq = 1000;
  syn.flags = kTcpSyn;
  k.handle_packet(make_tcp_packet(syn, Timestamp(0)), Timestamp(0));

  std::vector<std::uint8_t> payload(1460, 0x63);
  TcpSegmentSpec data;
  data.tuple = syn.tuple;
  data.flags = kTcpAck | kTcpPsh;
  data.payload = payload;
  Packet tmpl = make_tcp_packet(data, Timestamp(0));

  std::uint32_t seq = 1001;
  std::int64_t t = 0;
  for (auto _ : state) {
    Packet p = tmpl.with_flow(syn.tuple, seq, Timestamp(t));
    auto out = k.handle_packet(p, Timestamp(t));
    benchmark::DoNotOptimize(out);
    seq += 1460;
    t += 1000;
    // Periodically drain events so memory does not fill.
    if (!k.events(0).empty()) {
      auto ev = k.events(0).pop();
      k.release_chunk(ev);
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 1460);
}
BENCHMARK(BM_KernelHandlePacket);

void BM_FlowTableLookup(benchmark::State& state) {
  kernel::FlowTable table;
  std::vector<FiveTuple> tuples;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    FiveTuple t{0x0a000000 + i, 0xc0a80001,
                static_cast<std::uint16_t>(1024 + (i % 50000)), 80,
                kProtoTcp};
    table.create(t, Timestamp(0), nullptr);
    tuples.push_back(t);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(tuples[i % tuples.size()]));
    ++i;
  }
}
BENCHMARK(BM_FlowTableLookup);

}  // namespace

BENCHMARK_MAIN();
