// Ablation — smallest-group routing (§VI "Query Conjunctions through Sorted
// Pulls"). The paper argues that sending a multi-constraint query to the
// candidate groups of EVERY constrained attribute "can quickly degenerate to
// the case where the query is sent to every single node in the system";
// FOCUS instead routes to the smallest term's groups only.
//
// This bench runs the same 3-term placement workload with both policies and
// reports groups contacted, member states collected fleet-wide, server
// bandwidth, and latency.

#include "bench_util.hpp"
#include "harness/scenario.hpp"

using namespace focus;

namespace {

struct Outcome {
  double groups_per_query;
  double member_states_per_query;
  double server_kbps;
  double mean_ms;
};

Outcome run(bool route_all_terms, std::size_t nodes) {
  harness::TestbedConfig config;
  config.num_nodes = nodes;
  config.seed = 500;
  config.service.route_all_terms = route_all_terms;
  harness::Testbed bed(config);
  bed.start();
  bed.settle(30 * kSecond);

  harness::FocusFinder finder(bed);
  const auto gen = [](Rng& rng) {
    // Always three conjunctive terms: the case the optimization targets.
    core::Query q;
    q.where_at_least("ram_mb", 1024.0 * static_cast<double>(rng.uniform_int(1, 6)));
    q.where_at_least("disk_gb", 5.0 * static_cast<double>(rng.uniform_int(1, 4)));
    q.where_at_least("vcpus", static_cast<double>(rng.uniform_int(1, 4)));
    q.limit = 20;
    return q;
  };
  const auto load = harness::run_query_load(bed, finder, gen, /*qps=*/1.0,
                                            /*warmup=*/3 * kSecond,
                                            /*window=*/30 * kSecond, /*seed=*/3);

  std::uint64_t states = 0;
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    states += bed.agent(i).stats().member_responses;
  }
  Outcome out;
  out.groups_per_query =
      static_cast<double>(bed.service().router().stats().group_queries_sent) /
      static_cast<double>(bed.service().router().stats().queries);
  out.member_states_per_query =
      static_cast<double>(states) / static_cast<double>(load.issued);
  out.server_kbps = load.server_kbps();
  out.mean_ms = load.latency_ms.mean();
  return out;
}

}  // namespace

int main() {
  bench::banner(
      "Ablation — smallest-group routing vs all-terms routing (§VI)",
      "routing to every term's groups degenerates toward querying the whole "
      "system; smallest-group keeps the pull directed");

  bench::row("%7s %-12s %14s %18s %12s %10s", "nodes", "policy",
             "groups/query", "states/query", "srv KB/s", "mean ms");
  for (std::size_t nodes : {200u, 400u, 800u}) {
    const Outcome smallest = run(false, nodes);
    const Outcome all = run(true, nodes);
    bench::row("%7zu %-12s %14.1f %18.1f %12.1f %10.1f", nodes, "smallest",
               smallest.groups_per_query, smallest.member_states_per_query,
               smallest.server_kbps, smallest.mean_ms);
    bench::row("%7zu %-12s %14.1f %18.1f %12.1f %10.1f", nodes, "all-terms",
               all.groups_per_query, all.member_states_per_query,
               all.server_kbps, all.mean_ms);
  }
  bench::note("expected: all-terms touches several times more groups and");
  bench::note("collects several times more member states per query, for no");
  bench::note("additional recall (results are identical conjunctions).");
  return 0;
}
