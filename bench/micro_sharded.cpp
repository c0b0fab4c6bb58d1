// Microbenchmarks of the sharded driver's coordination machinery: how often
// the coordinator wakes shards under the global conservative window, and
// what a barrier merge costs per staged message. The fleet is bare kernels
// shaped like the SUB=2/EDGE=2 testbed (10 shards), so the
// `events_per_window` counters line up with the barrier_rounds /
// shard_windows figures scenario_throughput records into BENCH_core.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "net/shard_stage.hpp"
#include "net/sim_transport.hpp"
#include "net/topology.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

using namespace focus;

namespace {

/// The SUB=2/EDGE=2 layout: every data region and the app edge split in two.
net::Topology split_topology() {
  net::Topology topology;
  for (std::size_t r = 0; r < kNumDataRegions; ++r) {
    topology.set_sub_shards(static_cast<Region>(r), 2);
  }
  topology.set_sub_shards(Region::AppEdge, 2);
  return topology;
}

/// Coordination-round frequency of a 10-kernel fleet with 1 ms periodic
/// timers per shard. The interesting output is the counters:
/// `events_per_window` is the parallel-window width, `rounds_per_sim_sec`
/// the coordinator wake rate.
void BM_ShardBarrierOverhead_GlobalWindow(benchmark::State& state) {
  const net::Topology topology = split_topology();
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::Simulator*> ptrs;
  for (std::size_t s = 0; s < topology.num_shards(); ++s) {
    sims.push_back(std::make_unique<sim::Simulator>());
    ptrs.push_back(sims.back().get());
    sims.back()->every(1 * kMillisecond, [] {});
  }
  sim::ShardedSimulator driver(ptrs, topology.sharded_lookahead_floor(),
                               /*threads=*/1);
  for (auto _ : state) {
    driver.run_for(100 * kMillisecond);
  }
  std::uint64_t windows = 0;
  for (std::size_t s = 0; s < driver.num_shards(); ++s) {
    windows += driver.shard_windows(s);
  }
  const double sim_secs =
      static_cast<double>(driver.now()) / static_cast<double>(kSecond);
  state.counters["rounds_per_sim_sec"] =
      static_cast<double>(driver.rounds()) / sim_secs;
  state.counters["shard_windows_per_sim_sec"] =
      static_cast<double>(windows) / sim_secs;
  state.counters["events_per_window"] =
      static_cast<double>(driver.executed()) / static_cast<double>(windows);
  state.SetItemsProcessed(static_cast<std::int64_t>(driver.executed()));
}
BENCHMARK(BM_ShardBarrierOverhead_GlobalWindow);

struct BenchPayload final : net::Payload {
  std::size_t wire_size() const override { return 64; }
};

/// Cost of draining staged cross-shard traffic at a barrier: stage 1024
/// deliveries spread over a 10-shard mesh, merge, and drain the destination
/// kernels. Dominated by the stable sort + per-message schedule insert.
void BM_ShardStagerMerge(benchmark::State& state) {
  net::Topology topology = split_topology();
  const std::size_t n = topology.num_shards();
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<net::SimTransport>> transports;
  net::ShardStager stager(n);
  std::vector<net::SimTransport*> targets;
  for (std::size_t s = 0; s < n; ++s) {
    sims.push_back(std::make_unique<sim::Simulator>());
    transports.push_back(std::make_unique<net::SimTransport>(
        *sims.back(), topology, Rng(100 + s)));
    transports.back()->enable_sharding(s, &stager);
    targets.push_back(transports.back().get());
  }
  const net::MsgKind kind = net::MsgKind::intern("bench.merge");
  for (std::size_t s = 0; s < n; ++s) {
    transports[s]->bind({NodeId{static_cast<std::uint32_t>(s)}, 1},
                        [](const net::Message&) {});
  }
  std::uint64_t staged_total = 0;
  for (auto _ : state) {
    // The kernels drift apart across iterations (each advances to its own
    // last delivery), so the barrier must be the committed floor — the
    // minimum kernel time — or a message staged off a lagging kernel would
    // land below a faster kernel's now() and trip the lookahead-floor check.
    SimTime barrier = std::numeric_limits<SimTime>::max();
    for (const auto& sim : sims) barrier = std::min(barrier, sim->now());
    for (int i = 0; i < 1024; ++i) {
      const auto src = static_cast<std::size_t>(i) % n;
      const auto dst = (src + 1 + static_cast<std::size_t>(i) / n) % n;
      if (src == dst) continue;
      auto payload = std::make_shared<const BenchPayload>();
      net::StagedMessage staged;
      staged.deliver_at = sims[dst]->now() + 1000 + i % 97;
      staged.sent_at = sims[src]->now();
      staged.rx_bytes = 124;
      staged.msg = net::Message{
          {NodeId{static_cast<std::uint32_t>(src)}, 1},
          {NodeId{static_cast<std::uint32_t>(dst)}, 1},
          kind,
          std::move(payload)};
      staged.sent_bytes = staged.msg.wire_bytes();
      stager.stage(src, dst, std::move(staged));
      ++staged_total;
    }
    stager.merge_at_barrier(barrier, targets);
    for (auto& sim : sims) sim->run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(staged_total));
}
BENCHMARK(BM_ShardStagerMerge);

}  // namespace

BENCHMARK_MAIN();
