// Tests for the scenario harness itself (tests, benches and examples all
// depend on it): world construction, testbed lifecycle, the query-load
// runner, and the placement workload generator.

#include <gtest/gtest.h>

#include "baselines/push_finder.hpp"
#include "harness/scenario.hpp"

namespace focus::harness {
namespace {

TEST(RegionAssignment, RoundRobinAcrossFourRegions) {
  EXPECT_EQ(region_of_index(0), Region::Ohio);
  EXPECT_EQ(region_of_index(1), Region::Canada);
  EXPECT_EQ(region_of_index(2), Region::Oregon);
  EXPECT_EQ(region_of_index(3), Region::California);
  EXPECT_EQ(region_of_index(4), Region::Ohio);
  std::map<Region, int> counts;
  for (std::size_t i = 0; i < 40; ++i) ++counts[region_of_index(i)];
  for (const auto& [region, count] : counts) EXPECT_EQ(count, 10);
}

TEST(World, BuildsModelsWithLiveDynamics) {
  WorldConfig config;
  config.num_nodes = 10;
  config.seed = 3;
  config.dynamics.volatility = 0.05;
  World world(config);
  EXPECT_EQ(world.num_nodes(), 10u);

  const auto before = world.model(0).state().dynamic_values;
  world.run_for(10 * kSecond);
  EXPECT_NE(world.model(0).state().dynamic_values, before);
  EXPECT_GT(world.model(0).state().timestamp, 0);
}

TEST(World, SimNodesViewMatchesModels) {
  World world({.num_nodes = 8, .seed = 3});
  const auto nodes = world.sim_nodes();
  ASSERT_EQ(nodes.size(), 8u);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i].id.value, kAgentBase + i);
    EXPECT_EQ(nodes[i].region, region_of_index(i));
    EXPECT_EQ(nodes[i].model, &world.model(i));
  }
}

TEST(World, ManagersGetDistinctIdsAndRegions) {
  World world({.num_nodes = 4, .seed = 3});
  const auto managers = world.managers(8);
  ASSERT_EQ(managers.size(), 8u);
  std::set<std::uint32_t> ids;
  for (const auto& m : managers) ids.insert(m.id.value);
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ(managers[0].region, Region::Ohio);
  EXPECT_EQ(managers[1].region, Region::Canada);
}

TEST(Testbed, SyncAgentConfigPropagatesServiceSettings) {
  TestbedConfig config;
  config.service.report_interval = 7 * kSecond;
  config.service.delta_reports = true;
  config.service.gossip.fanout = 9;
  config.sync_agent_config();
  EXPECT_EQ(config.agent.report_interval, 7 * kSecond);
  EXPECT_TRUE(config.agent.delta_reports);
  EXPECT_EQ(config.agent.gossip.fanout, 9);
}

TEST(Testbed, SettleFailsWhenServiceUnreachable) {
  TestbedConfig config;
  config.num_nodes = 4;
  config.seed = 4;
  Testbed bed(config);
  bed.transport().set_node_down(kServerNode, true);
  bed.start();
  EXPECT_FALSE(bed.settle(5 * kSecond));
}

TEST(Testbed, QueryAndWaitHonorsDeadline) {
  TestbedConfig config;
  config.num_nodes = 4;
  config.seed = 4;
  Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  bed.transport().set_node_down(kServerNode, true);
  core::Query q;
  q.where_at_least("ram_mb", 0);
  const SimTime before = bed.now();
  auto result = bed.query_and_wait(q, 2 * kSecond);
  EXPECT_FALSE(result.ok());
  EXPECT_LE(bed.now() - before, 3 * kSecond);
}

TEST(PlacementWorkload, GeneratesBoundedSensibleQueries) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const core::Query q = make_placement_query(rng, 50);
    EXPECT_GE(q.terms.size(), 1u);
    EXPECT_LE(q.terms.size(), 3u);
    EXPECT_EQ(q.limit, 50);
    for (const auto& term : q.terms) {
      EXPECT_TRUE(term.attr == "ram_mb" || term.attr == "disk_gb" ||
                  term.attr == "vcpus" || term.attr == "cpu_usage")
          << term.attr;
    }
  }
}

TEST(PlacementWorkload, QueriesMatchARealisticFraction) {
  // The Fig. 7a workload should neither match nobody nor everybody.
  const core::Schema schema = core::Schema::openstack_default();
  Rng value_rng(5);
  std::vector<core::NodeState> fleet;
  for (int i = 0; i < 300; ++i) {
    core::NodeState s;
    for (const auto& attr : schema.dynamic_attrs()) {
      s.dynamic_values[attr.name] =
          value_rng.uniform(attr.min_value, attr.max_value);
    }
    fleet.push_back(std::move(s));
  }
  Rng query_rng(6);
  double total_fraction = 0;
  constexpr int kQueries = 100;
  for (int i = 0; i < kQueries; ++i) {
    const core::Query q = make_placement_query(query_rng, 0);
    int matches = 0;
    for (const auto& s : fleet) {
      if (q.matches(s)) ++matches;
    }
    total_fraction += static_cast<double>(matches) / 300.0;
  }
  const double mean_fraction = total_fraction / kQueries;
  EXPECT_GT(mean_fraction, 0.10);
  EXPECT_LT(mean_fraction, 0.75);
}

TEST(QueryLoad, DrivesFinderAtRequestedRate) {
  World world({.num_nodes = 16, .seed = 9});
  baselines::PushFinder finder(world.simulator(), world.transport(),
                               world.server_node(), world.sim_nodes(),
                               baselines::BaselineConfig{}, Rng(1));
  const auto gen = [](Rng& rng) { return make_placement_query(rng, 10); };
  const auto load = run_query_load(world, finder, gen, /*qps=*/5.0,
                                   /*warmup=*/2 * kSecond,
                                   /*window=*/10 * kSecond, /*seed=*/3);
  EXPECT_EQ(load.issued, 50u);
  EXPECT_EQ(load.completed, 50u);
  EXPECT_EQ(load.failed, 0u);
  EXPECT_EQ(load.window, 10 * kSecond);
  EXPECT_GT(load.server_kbps(), 0.0);
  EXPECT_EQ(load.latency_ms.count(), 50u);
}

TEST(QueryLoad, BandwidthWindowExcludesWarmup) {
  // The push traffic during warmup must not be charged to the window.
  World world({.num_nodes = 16, .seed = 9});
  baselines::PushFinder finder(world.simulator(), world.transport(),
                               world.server_node(), world.sim_nodes(),
                               baselines::BaselineConfig{}, Rng(1));
  const auto gen = [](Rng& rng) { return make_placement_query(rng, 10); };
  const auto short_run =
      run_query_load(world, finder, gen, 1.0, 30 * kSecond, 10 * kSecond, 3);
  // 16 nodes pushing ~1.1 KB/s lands ~17-20 KB/s regardless of the long warmup.
  EXPECT_LT(short_run.server_kbps(), 40.0);
  EXPECT_GT(short_run.server_kbps(), 8.0);
}

TEST(QueryLoad, AdvancesTheTestbedClockWithAuditsAndSampling) {
  // A load window runs through the testbed's driver, not behind its back:
  // the testbed clock covers warmup + window + drain, barrier audits and
  // telemetry samples keep their cadence, and the driver resumes afterwards.
  TestbedConfig config;
  config.num_nodes = 16;
  config.seed = 19;
  config.audit_interval = 500 * kMillisecond;
  config.record_interval = 100 * kMillisecond;
  Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  ASSERT_NE(bed.recorder(), nullptr);
  const SimTime t0 = bed.now();
  const std::uint64_t audits0 = bed.audits_run();
  const std::size_t samples0 = bed.recorder()->num_intervals();

  FocusFinder finder(bed);
  EXPECT_EQ(finder.home_node(), kAppNode);
  const auto gen = [](Rng& rng) { return make_placement_query(rng, 10); };
  const auto load = run_query_load(bed, finder, gen, /*qps=*/5.0, /*warmup=*/1 * kSecond,
                                   /*window=*/10 * kSecond, /*seed=*/5);
  EXPECT_EQ(load.issued, 50u);
  EXPECT_EQ(load.completed, load.issued);
  EXPECT_EQ(bed.now() - t0, 16 * kSecond);  // warmup + window + 5 s drain
  EXPECT_GE(bed.audits_run() - audits0, 30u);
  EXPECT_GE(bed.recorder()->num_intervals() - samples0, 150u);

  bed.run_for(1 * kSecond);
  EXPECT_EQ(bed.now() - t0, 17 * kSecond);
}

TEST(FocusFinderAdapter, RoutesThroughTestbedClient) {
  TestbedConfig config;
  config.num_nodes = 12;
  config.seed = 12;
  config.agent.dynamics.frozen = true;
  Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  FocusFinder finder(bed);
  EXPECT_EQ(finder.server_node(), kServerNode);
  EXPECT_EQ(finder.name(), "focus");

  core::Query q;
  q.where_at_least("ram_mb", 0);
  bool done = false;
  finder.find(q, [&](Result<core::QueryResult> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().entries.size(), 12u);
    done = true;
  });
  bed.run_for(5 * kSecond);
  EXPECT_TRUE(done);
}

TEST(Testbed, AgentsPlacedInDeclaredRegions) {
  TestbedConfig config;
  config.num_nodes = 8;
  config.seed = 21;
  Testbed bed(config);
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    EXPECT_EQ(bed.topology().region_of(bed.agent(i).node()), region_of_index(i));
    EXPECT_EQ(bed.agent(i).resources().state().region, region_of_index(i));
  }
  EXPECT_EQ(bed.topology().region_of(kServerNode), Region::AppEdge);
}

}  // namespace
}  // namespace focus::harness
