// Fig. 7c — query latency percentiles while replaying a real-world cloud
// trace at 15,000x acceleration (§X-C).
//
// Paper: replaying the Chameleon OpenStack trace (75k VM placement events /
// 10 months) against FOCUS with the cache disabled. Latency percentiles
// (p50/p75/p99) rise until ~600 nodes, then plateau: beyond that the mean
// group size stops growing (~150 members) and only the number of groups
// increases — the payoff of attribute-based grouping with forking.

#include "bench_util.hpp"
#include "harness/scenario.hpp"

using namespace focus;

namespace {

struct Point {
  double p50, p75, p99;
  std::size_t groups;
  double mean_group;
  std::uint64_t completed;
};

Point run_point(std::size_t nodes, const std::vector<trace::PlacementEvent>& tr) {
  harness::TestbedConfig config;
  config.num_nodes = nodes;
  config.seed = 7700 + nodes;
  config.service.cache_max_entries = 0;  // cache disabled (paper setup)
  harness::Testbed bed(config);
  bed.start();
  bed.settle(30 * kSecond);

  harness::FocusFinder finder(bed);
  harness::ReplayConfig replay;
  replay.acceleration = 15000.0;
  replay.max_events = 1000;  // a contiguous slice of the 75k-event trace
  replay.drain = 10 * kSecond;
  const auto result = harness::replay_trace(bed, tr, finder, replay);

  Point point;
  point.p50 = result.latency_ms.percentile(50);
  point.p75 = result.latency_ms.percentile(75);
  point.p99 = result.latency_ms.percentile(99);
  std::size_t populated = 0;
  bed.service().dgm().for_each_group([&](const core::Dgm::GroupInfo& group) {
    if (!group.members.empty()) ++populated;
  });
  point.groups = populated;
  point.mean_group = bed.service().dgm().mean_group_size();
  point.completed = result.completed;
  return point;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 7c — latency percentiles replaying the cloud trace at 15000x",
      "p50/p75/p99 rise until ~600 nodes then plateau; mean group size "
      "plateaus ~150 while group count keeps growing");

  // The full 75k-event / 10-month synthetic trace; each point replays a
  // 2000-event slice (the full replay is available by raising max_events).
  trace::TraceConfig tc;
  tc.events = 75'000;
  tc.seed = 99;
  const auto full_trace = trace::generate_chameleon_trace(tc);

  bench::row("%7s %10s %10s %10s %9s %12s %11s", "nodes", "p50(ms)", "p75(ms)",
             "p99(ms)", "groups", "mean-group", "completed");
  for (std::size_t nodes : {100u, 200u, 400u, 600u, 800u, 1200u, 1600u}) {
    const Point p = run_point(nodes, full_trace);
    bench::row("%7zu %10.1f %10.1f %10.1f %9zu %12.1f %11llu", nodes, p.p50,
               p.p75, p.p99, p.groups, p.mean_group,
               static_cast<unsigned long long>(p.completed));
  }
  bench::note("expected shape: latency climbs with group size up to the fork");
  bench::note("threshold (150), then flattens: added nodes create new groups");
  bench::note("instead of bigger ones, so per-query work stops growing.");
  return 0;
}
