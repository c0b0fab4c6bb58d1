// Tests for the baseline node-finding systems (Fig. 2 architectures and the
// MQ configurations) and their comparative traffic behaviour.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/hierarchy_finder.hpp"
#include "baselines/mq_finder.hpp"
#include "baselines/pull_finder.hpp"
#include "baselines/push_finder.hpp"
#include "harness/scenario.hpp"

namespace focus::baselines {
namespace {

harness::WorldConfig world_config(std::size_t nodes) {
  harness::WorldConfig config;
  config.num_nodes = nodes;
  config.seed = 23;
  config.dynamics.frozen = true;
  return config;
}

core::Query everyone() {
  core::Query q;
  q.where_at_least("ram_mb", 0);
  return q;
}

core::Query big_ram() {
  core::Query q;
  q.where_at_least("ram_mb", 8192);
  return q;
}

/// Run a query to completion on the world's driver.
Result<core::QueryResult> find_sync(harness::World& world, NodeFinder& finder,
                                    const core::Query& q,
                                    Duration max_wait = 10 * kSecond) {
  Result<core::QueryResult> out = make_error(Errc::Timeout, "no result");
  bool done = false;
  finder.find(q, [&](Result<core::QueryResult> r) {
    out = std::move(r);
    done = true;
  });
  const SimTime deadline = world.now() + max_wait;
  while (!done && world.now() < deadline) {
    world.run_for(10 * kMillisecond);
  }
  return out;
}

std::size_t expected_matches(harness::World& world, const core::Query& q) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < world.num_nodes(); ++i) {
    if (q.matches(world.model(i).state())) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// PushFinder

TEST(PushFinder, ServesFromPushedTable) {
  harness::World world(world_config(20));
  PushFinder finder(world.simulator(), world.transport(), world.server_node(),
                    world.sim_nodes(), BaselineConfig{}, Rng(1));
  world.run_for(3 * kSecond);  // let pushes arrive

  auto result = find_sync(world, finder, big_ram());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries.size(), expected_matches(world, big_ram()));
  EXPECT_GE(finder.updates_received(), 20u);
}

TEST(PushFinder, ResultsAreStaleBetweenPushes) {
  harness::World world(world_config(4));
  PushFinder finder(world.simulator(), world.transport(), world.server_node(),
                    world.sim_nodes(), BaselineConfig{}, Rng(1));
  world.run_for(3 * kSecond);

  // Flip a node's value; until its next push the server's answer is wrong —
  // the fundamental push-model staleness (§III-A).
  world.model(0).set_value("ram_mb", 16384);
  core::Query q;
  q.where("ram_mb", 16384, 16384);
  auto stale = find_sync(world, finder, q);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value().entries.empty());

  world.run_for(2 * kSecond);  // next push lands
  auto fresh = find_sync(world, finder, q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().entries.size(), 1u);
  EXPECT_GE(finder.staleness_of(world.sim_nodes()[0].id), 0);
}

TEST(PushFinder, ServerBandwidthScalesWithNodeCount) {
  auto bandwidth = [](std::size_t n) {
    harness::World world(world_config(n));
    PushFinder finder(world.simulator(), world.transport(), world.server_node(),
                      world.sim_nodes(), BaselineConfig{}, Rng(1));
    world.run_for(2 * kSecond);
    const auto before = world.transport().stats().of(world.server_node());
    world.run_for(10 * kSecond);
    return static_cast<double>(
        (world.transport().stats().of(world.server_node()) - before).bytes_total());
  };
  const double b40 = bandwidth(40);
  const double b160 = bandwidth(160);
  EXPECT_GT(b160, b40 * 3.2);
  EXPECT_LT(b160, b40 * 4.8);
}

// ---------------------------------------------------------------------------
// PullFinder

TEST(PullFinder, PullsFreshStateOnDemand) {
  harness::World world(world_config(20));
  PullFinder finder(world.simulator(), world.transport(), world.server_node(),
                    world.sim_nodes(), BaselineConfig{});

  // No warm-up needed: pull is always fresh. Pin a distinctive value and
  // query an interval no other node can occupy by chance.
  world.model(0).set_value("ram_mb", 16384);
  core::Query q;
  q.where("ram_mb", 16384, 16384);
  auto result = find_sync(world, finder, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().entries.size(), 1u);
  EXPECT_EQ(result.value().entries[0].node, world.sim_nodes()[0].id);
  EXPECT_EQ(finder.timeouts(), 0u);
}

TEST(PullFinder, TimesOutWhenNodesDead) {
  harness::World world(world_config(6));
  PullFinder finder(world.simulator(), world.transport(), world.server_node(),
                    world.sim_nodes(), BaselineConfig{});
  world.transport().set_node_down(world.sim_nodes()[0].id, true);

  auto result = find_sync(world, finder, everyone());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().timed_out);
  EXPECT_EQ(result.value().entries.size(), 5u);  // the live ones still answer
  EXPECT_EQ(finder.timeouts(), 1u);
}

TEST(PullFinder, EveryQueryTouchesAllNodes) {
  harness::World world(world_config(30));
  PullFinder finder(world.simulator(), world.transport(), world.server_node(),
                    world.sim_nodes(), BaselineConfig{});
  const auto before = world.transport().stats().of(world.server_node());
  ASSERT_TRUE(find_sync(world, finder, big_ram()).ok());
  const auto delta = world.transport().stats().of(world.server_node()) - before;
  EXPECT_EQ(delta.msgs_tx, 30u);  // one request per node
  EXPECT_EQ(delta.msgs_rx, 30u);  // one (padded) response per node
}

// ---------------------------------------------------------------------------
// Hierarchies

TEST(AggregatingFinder, ReducesEventRateNotBandwidth) {
  harness::World world(world_config(32));
  auto managers = world.managers(4);
  AggregatingFinder finder(world.simulator(), world.transport(),
                           world.server_node(), world.sim_nodes(), managers,
                           BaselineConfig{}, Rng(2));
  world.run_for(2 * kSecond);
  const auto before = world.transport().stats().of(world.server_node());
  world.run_for(10 * kSecond);
  const auto delta = world.transport().stats().of(world.server_node()) - before;

  // ~10 flushes x 4 managers = ~40 messages instead of ~320 pushes...
  EXPECT_LE(delta.msgs_rx, 60u);
  // ...but the bytes still carry every node's state every second (§III-B).
  EXPECT_GT(delta.bytes_rx, 32u * 1024u * 9u);

  auto result = find_sync(world, finder, big_ram());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries.size(), expected_matches(world, big_ram()));
  EXPECT_GT(finder.batches_received(), 0u);
  EXPECT_GE(finder.states_received(), 32u);
}

TEST(SubsettingFinder, QueriesAllManagersAndAggregates) {
  harness::World world(world_config(32));
  auto managers = world.managers(4);
  SubsettingFinder finder(world.simulator(), world.transport(),
                          world.server_node(), world.sim_nodes(), managers,
                          BaselineConfig{}, Rng(2));
  world.run_for(3 * kSecond);  // managers learn their subsets

  auto result = find_sync(world, finder, big_ram());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries.size(), expected_matches(world, big_ram()));
}

TEST(SubsettingFinder, SurvivesManagerFailureWithPartialResults) {
  harness::World world(world_config(32));
  auto managers = world.managers(4);
  SubsettingFinder finder(world.simulator(), world.transport(),
                          world.server_node(), world.sim_nodes(), managers,
                          BaselineConfig{}, Rng(2));
  world.run_for(3 * kSecond);
  world.transport().set_node_down(managers[0].id, true);

  auto result = find_sync(world, finder, everyone());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().timed_out);
  EXPECT_LT(result.value().entries.size(), 32u);
  EXPECT_GT(result.value().entries.size(), 0u);
}

// ---------------------------------------------------------------------------
// MQ finders

TEST(MqPubFinder, StateFlowsThroughBroker) {
  harness::World world(world_config(16));
  MqPubFinder finder(world.simulator(), world.transport(), world.server_node(),
                     world.broker_node(), world.sim_nodes(), BaselineConfig{},
                     Rng(3));
  world.run_for(3 * kSecond);

  auto result = find_sync(world, finder, big_ram());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries.size(), expected_matches(world, big_ram()));
  EXPECT_GT(finder.broker().stats().published, 16u);
  EXPECT_GT(finder.broker().stats().delivered, 16u);
}

TEST(MqSubFinder, QueryBroadcastCollectsAllResponses) {
  harness::World world(world_config(16));
  MqSubFinder finder(world.simulator(), world.transport(), world.server_node(),
                     world.broker_node(), world.sim_nodes(), BaselineConfig{},
                     Rng(3));
  world.run_for(1 * kSecond);  // subscriptions land

  auto result = find_sync(world, finder, big_ram());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().timed_out);
  EXPECT_EQ(result.value().entries.size(), expected_matches(world, big_ram()));
  EXPECT_EQ(finder.timeouts(), 0u);
}

TEST(MqSubFinder, FreshDespiteValueChanges) {
  harness::World world(world_config(8));
  MqSubFinder finder(world.simulator(), world.transport(), world.server_node(),
                     world.broker_node(), world.sim_nodes(), BaselineConfig{},
                     Rng(3));
  world.run_for(1 * kSecond);
  world.model(3).set_value("ram_mb", 16384);

  core::Query q;
  q.where("ram_mb", 16384, 16384);
  auto result = find_sync(world, finder, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().entries.size(), 1u);
  EXPECT_EQ(result.value().entries[0].node, world.sim_nodes()[3].id);
}

TEST(Baselines, ServerBandwidthOrderingMatchesFig7a) {
  // At a fixed fleet size, the per-system server bandwidth under the Fig. 7a
  // workload (1 update/s, 1 query/s) must order:
  // sub > push ~ pull > pub > subsetting-hierarchy.
  constexpr std::size_t kNodes = 64;
  const auto gen = [](Rng& rng) { return harness::make_placement_query(rng, 50); };

  auto measure = [&](auto make_finder) {
    harness::World world(world_config(kNodes));
    auto finder = make_finder(world);
    return harness::run_query_load(world, *finder, gen, /*qps=*/1.0,
                                   /*warmup=*/3 * kSecond, /*window=*/20 * kSecond,
                                   /*seed=*/77)
        .server_kbps();
  };

  const double push = measure([](harness::World& w) {
    return std::make_unique<PushFinder>(w.simulator(), w.transport(),
                                        w.server_node(), w.sim_nodes(),
                                        BaselineConfig{}, Rng(1));
  });
  const double pull = measure([](harness::World& w) {
    return std::make_unique<PullFinder>(w.simulator(), w.transport(),
                                        w.server_node(), w.sim_nodes(),
                                        BaselineConfig{});
  });
  // OpenStack-style deployment: the broker is colocated with the controller
  // (query server), so broker fan-in/fan-out counts as server traffic.
  const double pub = measure([](harness::World& w) {
    return std::make_unique<MqPubFinder>(w.simulator(), w.transport(),
                                         w.server_node(), w.server_node(),
                                         w.sim_nodes(), BaselineConfig{}, Rng(1));
  });
  const double sub = measure([](harness::World& w) {
    return std::make_unique<MqSubFinder>(w.simulator(), w.transport(),
                                         w.server_node(), w.server_node(),
                                         w.sim_nodes(), BaselineConfig{}, Rng(1));
  });
  const double subset = measure([](harness::World& w) {
    return std::make_unique<SubsettingFinder>(w.simulator(), w.transport(),
                                              w.server_node(), w.sim_nodes(),
                                              w.managers(16), BaselineConfig{},
                                              Rng(1));
  });

  EXPECT_GT(sub, push);
  EXPECT_NEAR(push / pull, 1.0, 0.35);  // paper: "identical results"
  EXPECT_GT(push, pub);
  EXPECT_GT(pub, subset);
}

}  // namespace
}  // namespace focus::baselines
