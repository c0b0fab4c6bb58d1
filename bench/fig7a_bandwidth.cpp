// Fig. 7a — bandwidth consumption at the query server vs system size (§X-B).
//
// Workload (paper): 1 state update per second per node (~1 KB full-state
// messages for the push-style systems), 1 query per second, four regions.
// Systems: FOCUS, naive push, naive pull, static sub-setting hierarchy with
// 16 managers, RabbitMQ publish mode and RabbitMQ subscribe mode (broker
// colocated with the controller, the stock OpenStack deployment).
//
// Paper result at 1600 nodes: FOCUS eliminates 86% / 92% / 93% / 95% of the
// server communication vs hierarchy / MQ-pub / naive push-pull / MQ-sub
// (a 5-15x reduction overall).

#include <memory>

#include "baselines/hierarchy_finder.hpp"
#include "baselines/mq_finder.hpp"
#include "baselines/pull_finder.hpp"
#include "baselines/push_finder.hpp"
#include "bench_util.hpp"
#include "harness/scenario.hpp"

using namespace focus;

namespace {

constexpr double kQps = 1.0;
constexpr Duration kWarmup = 5 * kSecond;
constexpr Duration kWindow = 30 * kSecond;

/// Server bandwidth of `finder` under the 1 qps placement load on `world`.
double measure(harness::SimWorld& world, baselines::NodeFinder& finder) {
  const auto gen = [](Rng& rng) { return harness::make_placement_query(rng, 50); };
  return harness::run_query_load(world, finder, gen, kQps, kWarmup, kWindow, /*seed=*/7)
      .server_kbps();
}

double measure_focus(std::size_t nodes) {
  harness::TestbedConfig config;
  config.num_nodes = nodes;
  config.seed = 70 + nodes;
  harness::Testbed bed(config);
  bed.start();
  bed.settle(30 * kSecond);
  harness::FocusFinder finder(bed);
  return measure(bed, finder);
}

template <typename MakeFinder>
double measure_baseline(std::size_t nodes, MakeFinder make_finder) {
  harness::World world({.num_nodes = nodes, .seed = 70 + nodes});
  auto finder = make_finder(world);
  return measure(world, *finder);
}

}  // namespace

int main() {
  bench::banner(
      "Figure 7a — query-server bandwidth (KB/s) vs number of nodes",
      "FOCUS cuts 86/92/93/95% of server bytes vs hierarchy/MQ-pub/naive/"
      "MQ-sub at 1600 nodes (5-15x)");

  bench::row("%7s %10s %10s %10s %12s %10s %10s | %s", "nodes", "focus",
             "push", "pull", "hier-16", "mq-pub", "mq-sub", "reduction vs each");

  for (std::size_t nodes : {100u, 200u, 400u, 800u, 1600u}) {
    const double focus_kbps = measure_focus(nodes);
    const double push = measure_baseline(nodes, [](harness::World& w) {
      return std::make_unique<baselines::PushFinder>(
          w.simulator(), w.transport(), w.server_node(), w.sim_nodes(),
          baselines::BaselineConfig{}, Rng(1));
    });
    const double pull = measure_baseline(nodes, [](harness::World& w) {
      return std::make_unique<baselines::PullFinder>(
          w.simulator(), w.transport(), w.server_node(), w.sim_nodes(),
          baselines::BaselineConfig{});
    });
    const double hier = measure_baseline(nodes, [](harness::World& w) {
      return std::make_unique<baselines::SubsettingFinder>(
          w.simulator(), w.transport(), w.server_node(), w.sim_nodes(),
          w.managers(16), baselines::BaselineConfig{}, Rng(1));
    });
    const double pub = measure_baseline(nodes, [](harness::World& w) {
      return std::make_unique<baselines::MqPubFinder>(
          w.simulator(), w.transport(), w.server_node(), w.server_node(),
          w.sim_nodes(), baselines::BaselineConfig{}, Rng(1));
    });
    const double sub = measure_baseline(nodes, [](harness::World& w) {
      return std::make_unique<baselines::MqSubFinder>(
          w.simulator(), w.transport(), w.server_node(), w.server_node(),
          w.sim_nodes(), baselines::BaselineConfig{}, Rng(1));
    });

    bench::row(
        "%7zu %10.1f %10.1f %10.1f %12.1f %10.1f %10.1f | "
        "hier %.0f%% pub %.0f%% push %.0f%% sub %.0f%%",
        nodes, focus_kbps, push, pull, hier, pub, sub,
        100.0 * (1.0 - focus_kbps / hier), 100.0 * (1.0 - focus_kbps / pub),
        100.0 * (1.0 - focus_kbps / push), 100.0 * (1.0 - focus_kbps / sub));
  }
  bench::note("expected shape: every baseline grows linearly with N; FOCUS");
  bench::note("grows sub-linearly (directed pulls + representative reports),");
  bench::note("with the gap widening to a 5-15x reduction at 1600 nodes and");
  bench::note("ordering sub > push ~ pull > pub > hierarchy > FOCUS.");
  return 0;
}
