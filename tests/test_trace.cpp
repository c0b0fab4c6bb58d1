// Tests for the synthetic Chameleon trace generator and trace replay
// (harness::replay_trace).

#include <gtest/gtest.h>

#include "baselines/pull_finder.hpp"
#include "harness/scenario.hpp"

namespace focus::trace {
namespace {

TraceConfig small_trace(std::size_t events = 2000) {
  TraceConfig config;
  config.events = events;
  config.span = 10LL * 24 * kHour;
  config.seed = 4;
  return config;
}

TEST(Chameleon, GeneratesRequestedEventCount) {
  const auto trace = generate_chameleon_trace(small_trace(5000));
  EXPECT_EQ(trace.size(), 5000u);
}

TEST(Chameleon, EventsSortedWithinSpan) {
  const auto config = small_trace();
  const auto trace = generate_chameleon_trace(config);
  SimTime prev = 0;
  for (const auto& event : trace) {
    EXPECT_GE(event.at, prev);
    EXPECT_LE(event.at, config.span);
    prev = event.at;
  }
}

TEST(Chameleon, DeterministicForSeed) {
  const auto a = generate_chameleon_trace(small_trace());
  const auto b = generate_chameleon_trace(small_trace());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].request.resources, b[i].request.resources);
  }
  auto different = small_trace();
  different.seed = 5;
  const auto c = generate_chameleon_trace(different);
  bool same = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != c[i].at) same = false;
  }
  EXPECT_FALSE(same);
}

TEST(Chameleon, FlavorMixRoughlyRespected) {
  const auto mix = chameleon_flavor_mix();
  double total_weight = 0;
  for (const auto& fw : mix) total_weight += fw.weight;

  const auto trace = generate_chameleon_trace(small_trace(20000));
  std::map<double, std::size_t> by_ram;
  for (const auto& event : trace) ++by_ram[event.request.resources.at("ram_mb")];

  for (const auto& fw : mix) {
    const double expected = fw.weight / total_weight;
    const double actual =
        static_cast<double>(by_ram[fw.flavor.ram_mb]) / 20000.0;
    EXPECT_NEAR(actual, expected, 0.03) << fw.flavor.name;
  }
}

TEST(Chameleon, DiurnalModulationVisible) {
  // Hour-of-day arrival counts must peak in the day and dip at night.
  auto config = small_trace(50000);
  config.span = 30LL * 24 * kHour;
  const auto trace = generate_chameleon_trace(config);
  std::array<std::size_t, 24> by_hour{};
  for (const auto& event : trace) {
    by_hour[static_cast<std::size_t>((event.at / kHour) % 24)]++;
  }
  const auto day = by_hour[12];   // mid-day
  const auto night = by_hour[0];  // midnight
  EXPECT_GT(static_cast<double>(day), 1.3 * static_cast<double>(night));
}

TEST(Chameleon, EveryEventHasPlacementResources) {
  for (const auto& event : generate_chameleon_trace(small_trace(500))) {
    EXPECT_GT(event.request.limit, 0);
    EXPECT_GT(event.request.resources.at("ram_mb"), 0);
    EXPECT_GT(event.request.resources.at("vcpus"), 0);
  }
}

TEST(Replayer, AccelerationCompressesTime) {
  harness::World world({.num_nodes = 8, .seed = 9});
  baselines::PullFinder finder(world.simulator(), world.transport(),
                               world.server_node(), world.sim_nodes(),
                               baselines::BaselineConfig{});
  auto config = small_trace(200);
  const auto trace = generate_chameleon_trace(config);

  harness::ReplayConfig replay;
  replay.acceleration = 100000.0;
  const auto result = harness::replay_trace(world, trace, finder, replay);
  EXPECT_EQ(result.issued, 200u);
  EXPECT_EQ(result.completed, 200u);
  EXPECT_EQ(result.failed, 0u);
  // 10 days / 100000 ~= 8.6 s of simulated replay (plus drain).
  EXPECT_LT(result.window, 30 * kSecond);
  EXPECT_GT(result.latency_ms.count(), 0u);
}

TEST(Replayer, MaxEventsLimitsReplay) {
  harness::World world({.num_nodes = 4, .seed = 9});
  baselines::PullFinder finder(world.simulator(), world.transport(),
                               world.server_node(), world.sim_nodes(),
                               baselines::BaselineConfig{});
  const auto trace = generate_chameleon_trace(small_trace(500));
  harness::ReplayConfig replay;
  replay.acceleration = 100000.0;
  replay.max_events = 50;
  const auto result = harness::replay_trace(world, trace, finder, replay);
  EXPECT_EQ(result.issued, 50u);
}

TEST(Replayer, RecordsEmptyResults) {
  // A fleet with no capacity for the largest flavors produces some empty
  // placement answers, which the replayer counts.
  harness::WorldConfig wc{.num_nodes = 4, .seed = 9};
  wc.schema = core::Schema::openstack_default();
  harness::World world(wc);
  for (std::size_t i = 0; i < world.num_nodes(); ++i) {
    world.model(i).set_value("ram_mb", 100);  // nobody can host anything
    world.model(i).dynamics().frozen = true;
  }
  baselines::PullFinder finder(world.simulator(), world.transport(),
                               world.server_node(), world.sim_nodes(),
                               baselines::BaselineConfig{});
  const auto trace = generate_chameleon_trace(small_trace(50));
  harness::ReplayConfig replay;
  replay.acceleration = 100000.0;
  const auto result = harness::replay_trace(world, trace, finder, replay);
  EXPECT_EQ(result.empty_results, 50u);
}

}  // namespace
}  // namespace focus::trace
