// Ablation — the group fork threshold (§VII "to keep groups from growing
// indefinitely, ... FOCUS will fork groups"). Fig. 7c attributes the latency
// plateau to the ~150-member cap. This bench sweeps the threshold on a fixed
// 600-node fleet and reports mean group size, query latency, and the
// coordinator's per-query collection cost.

#include "bench_util.hpp"
#include "harness/scenario.hpp"

using namespace focus;

namespace {

struct Outcome {
  double mean_group;
  std::size_t groups;
  double mean_ms;
  double p99_ms;
};

Outcome run(int threshold) {
  harness::TestbedConfig config;
  config.num_nodes = 600;
  config.seed = 600;
  config.service.fork_threshold = threshold;
  harness::Testbed bed(config);
  bed.start();
  bed.settle(40 * kSecond);

  harness::FocusFinder finder(bed);
  const auto gen = [](Rng& rng) { return harness::make_placement_query(rng, 50); };
  const auto load = harness::run_query_load(bed, finder, gen, /*qps=*/2.0,
                                            /*warmup=*/3 * kSecond,
                                            /*window=*/20 * kSecond, /*seed=*/4);
  Outcome out;
  out.mean_group = bed.service().dgm().mean_group_size();
  std::size_t populated = 0;
  bed.service().dgm().for_each_group([&](const core::Dgm::GroupInfo& group) {
    if (!group.members.empty()) ++populated;
  });
  out.groups = populated;
  out.mean_ms = load.latency_ms.mean();
  out.p99_ms = load.latency_ms.percentile(99);
  return out;
}

}  // namespace

int main() {
  bench::banner(
      "Ablation — group fork threshold at 600 nodes (§VII)",
      "small groups converge faster but multiply; unbounded groups grow with "
      "the fleet and slow every query");

  bench::row("%11s %9s %12s %10s %10s", "threshold", "groups", "mean-group",
             "mean ms", "p99 ms");
  for (int threshold : {25, 75, 150, 300, 100000}) {
    const Outcome out = run(threshold);
    bench::row("%11d %9zu %12.1f %10.1f %10.1f", threshold, out.groups,
               out.mean_group, out.mean_ms, out.p99_ms);
  }
  bench::note("expected: latency grows with the threshold (bigger groups =");
  bench::note("longer gossip convergence + more member states per query);");
  bench::note("very small thresholds trade it for many more groups to track.");
  return 0;
}
