// Region-sharded parallel simulation: determinism across worker-thread
// counts, conservative-window safety, the barrier merge order, and the
// per-thread Logger time-source contract. These are the acceptance tests for
// the sharded driver: digests at --shards N must be byte-identical to
// --shards 1 for every N.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "harness/testbed.hpp"
#include "net/shard_stage.hpp"
#include "net/sim_transport.hpp"
#include "sim/sharded.hpp"

namespace focus {
namespace {

// ---------------------------------------------------------------------------
// Driver-level determinism on bare kernels: seeded self-rescheduling event
// cascades, no network. The digest fold must not depend on the worker count.

std::uint64_t run_bare_cascade(unsigned threads) {
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  for (int s = 0; s < 3; ++s) sims.push_back(std::make_unique<sim::Simulator>());
  std::vector<sim::Simulator*> ptrs;
  for (auto& sim : sims) {
    ptrs.push_back(sim.get());
    // A periodic chain plus a self-forking cascade per shard.
    sim->every(700, [] {});
    struct Cascade {
      static void arm(sim::Simulator& s, int depth) {
        if (depth == 0) return;
        s.schedule_after(300, [&s, depth] { arm(s, depth - 1); });
        s.schedule_after(500, [&s, depth] { arm(s, depth - 1); });
      }
    };
    Cascade::arm(*sim, 6);
  }
  sim::ShardedSimulator driver(std::move(ptrs), /*window=*/2500, threads);
  driver.run_until(50 * kMillisecond);
  EXPECT_EQ(driver.now(), 50 * kMillisecond);
  return driver.digest();
}

TEST(ShardedDriver, BareKernelDigestIndependentOfWorkerCount) {
  const std::uint64_t one = run_bare_cascade(1);
  EXPECT_EQ(one, run_bare_cascade(2));
  EXPECT_EQ(one, run_bare_cascade(3));
}

TEST(ShardedDriver, BarrierHookSeesCommittedTime) {
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::Simulator*> ptrs;
  for (int s = 0; s < 2; ++s) {
    sims.push_back(std::make_unique<sim::Simulator>());
    ptrs.push_back(sims.back().get());
  }
  sim::ShardedSimulator driver(std::move(ptrs), /*window=*/1000, 2);
  std::vector<SimTime> barriers;
  driver.set_barrier_hook([&](SimTime t) {
    barriers.push_back(t);
    // Every shard has committed exactly to the barrier.
    for (std::size_t i = 0; i < driver.num_shards(); ++i) {
      EXPECT_EQ(driver.shard(i).now(), t);
    }
  });
  driver.run_until(3500);
  ASSERT_EQ(barriers.size(), 4u);  // 1000, 2000, 3000, 3500
  EXPECT_EQ(barriers.back(), 3500);
  EXPECT_EQ(driver.now(), 3500);
}

// ---------------------------------------------------------------------------
// ShardStager: merge order and window-safety check.

struct Tagged final : net::Payload {
  int tag = 0;
  std::size_t wire_size() const override { return 10; }
};

net::StagedMessage staged(SimTime deliver_at, NodeId from, NodeId to, int tag) {
  auto payload = std::make_shared<Tagged>();
  payload->tag = tag;
  net::StagedMessage out;
  out.deliver_at = deliver_at;
  out.sent_at = 0;
  out.rx_bytes = 10;
#ifndef NDEBUG
  out.sent_bytes = net::Message{{from, 1}, {to, 1},
                                net::MsgKind::intern("shard.test"),
                                payload}.wire_bytes();
#endif
  out.msg = net::Message{{from, 1}, {to, 1}, net::MsgKind::intern("shard.test"),
                         std::move(payload)};
  return out;
}

TEST(ShardStager, MergesByDeliverAtThenSourceShardThenSendOrder) {
  sim::Simulator sims[3];
  net::Topology topology;
  std::vector<std::unique_ptr<net::SimTransport>> transports;
  net::ShardStager stager(3);
  std::vector<net::SimTransport*> targets;
  for (int s = 0; s < 3; ++s) {
    transports.push_back(std::make_unique<net::SimTransport>(
        sims[s], topology, Rng(100 + s)));
    transports[s]->enable_sharding(static_cast<std::size_t>(s), &stager);
    targets.push_back(transports[s].get());
  }
  std::vector<int> order;
  transports[2]->bind({NodeId{9}, 1}, [&](const net::Message& m) {
    order.push_back(m.as<Tagged>().tag);
  });

  // Shard 1 stages two messages for the same instant (FIFO within source),
  // shard 0 stages one for that instant (lower source wins the tie) and one
  // earlier, staged last (deliver_at dominates staging order).
  stager.stage(1, 2, staged(5000, NodeId{5}, NodeId{9}, /*tag=*/3));
  stager.stage(1, 2, staged(5000, NodeId{5}, NodeId{9}, /*tag=*/4));
  stager.stage(0, 2, staged(5000, NodeId{4}, NodeId{9}, /*tag=*/2));
  stager.stage(0, 2, staged(4000, NodeId{4}, NodeId{9}, /*tag=*/1));
  EXPECT_FALSE(stager.drained());

  stager.merge_at_barrier(/*barrier=*/4000, targets);
  EXPECT_TRUE(stager.drained());
  EXPECT_EQ(stager.merged_total(), 4u);

  sims[2].run_until(10000);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);  // earliest deliver_at
  EXPECT_EQ(order[1], 2);  // tie: source shard 0 before shard 1
  EXPECT_EQ(order[2], 3);  // tie within source: send order
  EXPECT_EQ(order[3], 4);
}

TEST(ShardStagerDeath, DeliveryInsideCommittedWindowFails) {
  sim::Simulator sims[2];
  net::Topology topology;
  net::ShardStager stager(2);
  std::vector<net::SimTransport*> targets;
  std::vector<std::unique_ptr<net::SimTransport>> transports;
  for (int s = 0; s < 2; ++s) {
    transports.push_back(std::make_unique<net::SimTransport>(
        sims[s], topology, Rng(7 + s)));
    targets.push_back(transports[s].get());
  }
  stager.stage(0, 1, staged(999, NodeId{4}, NodeId{9}, 1));
  EXPECT_DEATH(stager.merge_at_barrier(/*barrier=*/1000, targets),
               "lookahead floor");
}

// ---------------------------------------------------------------------------
// Cross-shard transport path: a send to another region is staged, not
// delivered, until the coordinator merges it.

TEST(ShardedTransport, CrossRegionSendWaitsForBarrierMerge) {
  sim::Simulator sims[2];
  net::Topology topology;
  topology.place(NodeId{1}, Region::Ohio);
  topology.place(NodeId{2}, Region::Canada);
  net::ShardStager stager(2);
  net::SimTransport ohio(sims[0], topology, Rng(1));
  net::SimTransport canada(sims[1], topology, Rng(2));
  // Shard indices are Topology::shard_of values: with no sub-shard splits
  // they coincide with the Region enum values.
  ohio.enable_sharding(topology.shard_base(Region::Ohio), &stager);
  canada.enable_sharding(topology.shard_base(Region::Canada), &stager);

  int received = 0;
  canada.bind({NodeId{2}, 1}, [&](const net::Message&) { ++received; });

  auto payload = std::make_shared<Tagged>();
  ohio.send(net::Message{{NodeId{1}, 1}, {NodeId{2}, 1},
                         net::MsgKind::intern("shard.test"), std::move(payload)});
  // Nothing entered the Canada kernel yet: the delivery is staged.
  sims[1].run_until(1 * kSecond);
  EXPECT_EQ(received, 0);
  EXPECT_FALSE(stager.drained());

  std::vector<net::SimTransport*> targets{&ohio, &canada};
  stager.merge_at_barrier(0, targets);
  sims[1].run_until(1 * kSecond);
  EXPECT_EQ(received, 1);
  // Sender charged tx in Ohio's books, receiver rx in Canada's.
  EXPECT_EQ(ohio.stats().of(NodeId{1}).msgs_tx, 1u);
  EXPECT_EQ(canada.stats().of(NodeId{2}).msgs_rx, 1u);
}

// ---------------------------------------------------------------------------
// Conservative window: the testbed's window equals the topology's lookahead
// floor, which is the min cross-region latency after worst-case jitter.

TEST(ShardedWindow, MatchesTopologyLookaheadFloor) {
  net::Topology topology;
  // Min cross-region base latency is Ohio<->AppEdge at 3 ms; jitter 0.1.
  EXPECT_EQ(topology.lookahead_floor(),
            static_cast<Duration>(3 * kMillisecond * 0.9));
  topology.set_jitter(0.5);
  EXPECT_EQ(topology.lookahead_floor(),
            static_cast<Duration>(3 * kMillisecond * 0.5));
}

TEST(ShardedWindow, IntraRegionFloorClampsShardedFloor) {
  net::Topology topology;
  // Unsplit: the sharded floor is the cross-region floor.
  EXPECT_EQ(topology.sharded_lookahead_floor(), topology.lookahead_floor());
  // Diagonal latencies: data regions 0.5 ms, AppEdge 0.2 ms; jitter 0.1.
  EXPECT_EQ(topology.intra_lookahead_floor(Region::Ohio),
            static_cast<Duration>(0.5 * kMillisecond * 0.9));
  EXPECT_EQ(topology.intra_lookahead_floor(Region::AppEdge),
            static_cast<Duration>(0.2 * kMillisecond * 0.9));
  // Splitting a region clamps the window to its intra-region floor.
  topology.set_sub_shards(Region::Ohio, 2);
  EXPECT_EQ(topology.sharded_lookahead_floor(),
            topology.intra_lookahead_floor(Region::Ohio));
  topology.set_sub_shards(Region::AppEdge, 4);
  EXPECT_EQ(topology.sharded_lookahead_floor(),
            topology.intra_lookahead_floor(Region::AppEdge));
}

// ---------------------------------------------------------------------------
// Sub-region shard layout: region-major contiguous bases, a consistent
// NodeId partition independent of worker count, and exact agreement with the
// Region enum when nothing is split.

TEST(SubShardLayout, UnsplitLayoutIsTheRegionEnum) {
  net::Topology topology;
  EXPECT_EQ(topology.num_shards(), 5u);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(topology.shard_base(static_cast<Region>(r)),
              static_cast<std::size_t>(r));
    EXPECT_EQ(topology.sub_shards(static_cast<Region>(r)), 1u);
  }
  topology.place(NodeId{7}, Region::Oregon);
  EXPECT_EQ(topology.shard_of(NodeId{7}),
            static_cast<std::size_t>(Region::Oregon));
  // Unplaced nodes default to AppEdge, dense-vector path included.
  EXPECT_EQ(topology.region_of(NodeId{123456}), Region::AppEdge);
  EXPECT_EQ(topology.shard_of(NodeId{123456}),
            static_cast<std::size_t>(Region::AppEdge));
}

TEST(SubShardLayout, SplitRegionsGetContiguousRegionMajorBases) {
  net::Topology topology;
  topology.set_sub_shards(Region::Ohio, 3);
  topology.set_sub_shards(Region::AppEdge, 2);
  EXPECT_EQ(topology.num_shards(), 3u + 1 + 1 + 1 + 2);
  EXPECT_EQ(topology.shard_base(Region::Ohio), 0u);
  EXPECT_EQ(topology.shard_base(Region::Canada), 3u);
  EXPECT_EQ(topology.shard_base(Region::Oregon), 4u);
  EXPECT_EQ(topology.shard_base(Region::California), 5u);
  EXPECT_EQ(topology.shard_base(Region::AppEdge), 6u);
  // Every Ohio node lands inside Ohio's sub-shard range, and the assignment
  // is a pure function of NodeId (stable across calls and worker counts).
  for (std::uint32_t i = 0; i < 64; ++i) {
    const NodeId id{100 + i * 4};  // testbed-style strided ids
    topology.place(id, Region::Ohio);
    const std::size_t shard = topology.shard_of(id);
    EXPECT_GE(shard, 0u);
    EXPECT_LT(shard, 3u);
    EXPECT_EQ(shard, topology.shard_of(id));
  }
}

TEST(SubShardLayout, StridedIdsSpreadAcrossSubShards) {
  // Testbed data-region ids stride by 4 (region = i % 4), which a plain
  // `id % k` partition would collapse onto one sub-shard for k in {2, 4}.
  // The mixed assignment must touch every sub-shard.
  net::Topology topology;
  topology.set_sub_shards(Region::Ohio, 4);
  std::vector<int> hits(4, 0);
  for (std::uint32_t i = 0; i < 256; i += 4) {
    const NodeId id{100 + i};
    topology.place(id, Region::Ohio);
    ++hits[topology.shard_of(id) - topology.shard_base(Region::Ohio)];
  }
  for (int h : hits) EXPECT_GT(h, 0);
}

// ---------------------------------------------------------------------------
// Full-testbed determinism: the same seeded scenario (settle, query, node
// failure, churn) must produce identical digests for every worker count.

struct ShardedRun {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::size_t groups = 0;
  std::size_t results = 0;
};

ShardedRun run_sharded_scenario(std::uint64_t seed, unsigned shards,
                                unsigned data_sub_shards = 1,
                                unsigned edge_sub_shards = 1,
                                Duration record_interval = 0) {
  harness::TestbedConfig config;
  config.num_nodes = 25;
  config.seed = seed;
  config.shards = shards;
  config.data_sub_shards = data_sub_shards;
  config.edge_sub_shards = edge_sub_shards;
  // Telemetry is observation-only, so recording runs reuse the
  // recording-off goldens; wall profiling rides along to get its
  // cross-thread hand-off under TSan.
  config.record_interval = record_interval;
  config.wall_profiling = record_interval > 0;
  config.agent.dynamics.volatility = 0.02;
  harness::Testbed bed(config);
  bed.start();
  EXPECT_TRUE(bed.settle());

  core::Query query;
  query.terms.push_back(core::QueryTerm{"ram_mb", 0, 1e9});
  query.limit = 10;
  const auto result = bed.query_and_wait(query);
  EXPECT_TRUE(result.ok());

  // Churn: kill one agent mid-run, let failure detection propagate.
  bed.set_node_down(bed.agent(3).node(), true);
  bed.run_for(10 * kSecond);
  bed.set_node_down(bed.agent(3).node(), false);
  bed.run_for(10 * kSecond);

  ShardedRun out;
  out.digest = bed.digest();
  out.executed = bed.executed();
  out.groups = bed.service().dgm().group_count();
  out.results = result.ok() ? result.value().entries.size() : 0;
  return out;
}

TEST(ShardedDeterminism, DigestIdenticalAcrossWorkerCounts) {
  const ShardedRun one = run_sharded_scenario(42, 1);
  const ShardedRun two = run_sharded_scenario(42, 2);
  const ShardedRun four = run_sharded_scenario(42, 4);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.executed, two.executed);
  EXPECT_EQ(one.executed, four.executed);
  EXPECT_EQ(one.groups, two.groups);
  EXPECT_EQ(one.groups, four.groups);
  EXPECT_EQ(one.results, two.results);
  EXPECT_EQ(one.results, four.results);
}

TEST(ShardedDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(run_sharded_scenario(42, 2).digest,
            run_sharded_scenario(43, 2).digest);
}

// Golden replay for the sharded world, the analogue of
// Determinism.ChurnScenarioMatchesGoldenDigest in test_audit.cpp: the
// sharded event schedule is part of observable behavior. Digests here differ
// from the legacy golden by design (five kernels, a different rng fork
// layout) but must be stable across commits and worker counts. Regenerate
// with run_sharded_scenario(42, 1) when an intentional kernel or protocol
// change moves them; like the legacy golden, the values are pinned for the
// CI toolchain (libstdc++).
TEST(ShardedDeterminism, ChurnScenarioMatchesGoldenDigest) {
  const ShardedRun run = run_sharded_scenario(42, 1);
  EXPECT_EQ(run.digest, 1276291866252644938ull);
  EXPECT_EQ(run.results, 10u);
}

// ---------------------------------------------------------------------------
// Sub-region sharding determinism: splitting every data region and the app
// edge into two sub-shards (10 kernels total) must still produce digests
// byte-identical for every worker count — the partition is fixed by config
// and NodeId, never by `shards`. Run under TSan by the sharded CI job.

TEST(ShardedDeterminism, SubShardDigestIdenticalAcrossWorkerCounts) {
  const ShardedRun one = run_sharded_scenario(42, 1, /*data=*/2, /*edge=*/2);
  const ShardedRun two = run_sharded_scenario(42, 2, /*data=*/2, /*edge=*/2);
  const ShardedRun four = run_sharded_scenario(42, 4, /*data=*/2, /*edge=*/2);
  const ShardedRun eight = run_sharded_scenario(42, 8, /*data=*/2, /*edge=*/2);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.executed, two.executed);
  EXPECT_EQ(one.executed, four.executed);
  EXPECT_EQ(one.executed, eight.executed);
  EXPECT_EQ(one.results, two.results);
  EXPECT_EQ(one.results, eight.results);
}

// The sub-sharded world is a different workload config (10 kernels, a
// narrower 0.18 ms window, a different rng fork layout), so its digest
// legitimately differs from the 5-shard golden — but it must be stable
// across commits. Regenerate with run_sharded_scenario(42, 1, 2, 2) on an
// intentional kernel or protocol change; pinned for the CI toolchain
// (libstdc++), like the other goldens.
constexpr std::uint64_t kSubShardGolden = 10951893430333504723ull;

TEST(ShardedDeterminism, SubShardChurnScenarioMatchesGoldenDigest) {
  const ShardedRun run = run_sharded_scenario(42, 1, /*data=*/2, /*edge=*/2);
  EXPECT_EQ(run.digest, kSubShardGolden);
  EXPECT_EQ(run.results, 10u);
}

// Telemetry recording (100 ms cadence) plus wall profiling must reproduce
// the recording-off golden digest above byte for byte, at every worker
// count: sampling happens at barriers with workers parked and reads state
// without mutating it, and the profiling clock never feeds a scheduling
// decision. Runs under TSan in CI (the 'Sharded' pre-step), which also
// pins the recorder's coordinator-only confinement.
TEST(ShardedTelemetry, RecordingOnMatchesRecordingOffGoldenDigest) {
  const ShardedRun one = run_sharded_scenario(42, 1, 2, 2, 100 * kMillisecond);
  const ShardedRun two = run_sharded_scenario(42, 2, 2, 2, 100 * kMillisecond);
  const ShardedRun four = run_sharded_scenario(42, 4, 2, 2, 100 * kMillisecond);
  EXPECT_EQ(one.digest, kSubShardGolden);
  EXPECT_EQ(two.digest, one.digest);
  EXPECT_EQ(four.digest, one.digest);
  EXPECT_EQ(one.results, 10u);
  EXPECT_EQ(one.executed, four.executed);
}

// ---------------------------------------------------------------------------
// Logger time-source ownership: the slot is per-thread, so a simulator on
// one thread never stamps another thread's lines (the old process-global
// slot followed "last constructed wins" across threads — a data race under
// sharding and wrong timestamps even when benign).

TEST(LoggerTimeSource, SlotIsPerThread) {
  sim::Simulator sim;  // installs itself on THIS thread
  sim.run_until(1234);
  EXPECT_TRUE(Logger::has_time_source());
  EXPECT_EQ(Logger::sim_time_or(-1), 1234);

  std::int64_t other_thread_stamp = 0;
  bool other_thread_has_source = true;
  std::thread observer([&] {
    other_thread_has_source = Logger::has_time_source();
    other_thread_stamp = Logger::sim_time_or(-1);
  });
  observer.join();
  EXPECT_FALSE(other_thread_has_source);
  EXPECT_EQ(other_thread_stamp, -1);
  // This thread's slot is untouched by the other thread's lifetime.
  EXPECT_EQ(Logger::sim_time_or(-1), 1234);
}

TEST(LoggerTimeSource, ShardedDriverStampsCommittedTime) {
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::Simulator*> ptrs;
  for (int s = 0; s < 2; ++s) {
    sims.push_back(std::make_unique<sim::Simulator>());
    ptrs.push_back(sims.back().get());
  }
  // The driver owns the coordinator slot: even though the shard kernels were
  // constructed later than nothing else on this thread, the committed window
  // time wins — not "whichever simulator was constructed last".
  sim::ShardedSimulator driver(std::move(ptrs), /*window=*/1000, 1);
  EXPECT_EQ(Logger::sim_time_or(-1), 0);
  driver.run_until(2500);
  EXPECT_EQ(Logger::sim_time_or(-1), 2500);
}

TEST(LoggerTimeSource, ClearOnlyByInstallingContext) {
  sim::Simulator outer;
  {
    sim::Simulator inner;  // last-created wins on this thread
    inner.run_until(77);
    EXPECT_EQ(Logger::sim_time_or(-1), 77);
  }
  // inner's destructor cleared its own install; outer did not get silently
  // re-stamped (per-ctx clear), so the slot is now empty.
  EXPECT_FALSE(Logger::has_time_source());
}

}  // namespace
}  // namespace focus
