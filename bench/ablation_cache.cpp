// Ablation — the response cache and the freshness parameter (§VI), plus the
// delta-report extension (DESIGN.md). A realistic query mix repeats popular
// queries; the freshness knob trades staleness for latency and server load.

#include "bench_util.hpp"
#include "harness/scenario.hpp"

using namespace focus;

namespace {

struct Outcome {
  double hit_rate;
  double mean_ms;
  double server_kbps;
};

Outcome run(Duration freshness) {
  harness::TestbedConfig config;
  config.num_nodes = 300;
  config.seed = 300;
  harness::Testbed bed(config);
  bed.start();
  bed.settle(30 * kSecond);

  harness::FocusFinder finder(bed);
  // Zipf-ish mix: 8 distinct popular queries issued repeatedly.
  const auto gen = [freshness](Rng& rng) {
    core::Query q;
    q.where_at_least("ram_mb", 2048.0 * static_cast<double>(rng.uniform_int(1, 4)));
    q.where_at_least("vcpus", rng.chance(0.5) ? 2.0 : 4.0);
    q.limit = 20;
    q.freshness = freshness;
    return q;
  };
  const auto load = harness::run_query_load(bed, finder, gen, /*qps=*/4.0,
                                            /*warmup=*/3 * kSecond,
                                            /*window=*/30 * kSecond, /*seed=*/8);
  Outcome out;
  const auto& cache = bed.service().router().cache();
  out.hit_rate = cache.hits() + cache.misses() == 0
                     ? 0
                     : static_cast<double>(cache.hits()) /
                           static_cast<double>(cache.hits() + cache.misses());
  out.mean_ms = load.latency_ms.mean();
  out.server_kbps = load.server_kbps();
  return out;
}

double southbound_kbps(bool delta_reports) {
  harness::TestbedConfig config;
  config.num_nodes = 300;
  config.seed = 301;
  config.service.delta_reports = delta_reports;
  config.sync_agent_config();
  harness::Testbed bed(config);
  bed.start();
  bed.settle(30 * kSecond);
  bed.run_for(5 * kSecond);
  const auto before = bed.server_stats();
  bed.run_for(30 * kSecond);
  return static_cast<double>((bed.server_stats() - before).bytes_total()) /
         1024.0 / 30.0;
}

}  // namespace

int main() {
  bench::banner(
      "Ablation — cache freshness (§VI) and delta group reports (extension)",
      "freshness trades staleness for latency and load; delta reports cut "
      "steady-state southbound traffic");

  bench::row("%16s %10s %10s %12s", "freshness", "hit-rate", "mean ms",
             "srv KB/s");
  for (Duration freshness : {Duration{0}, 500 * kMillisecond, 2 * kSecond,
                             10 * kSecond, 60 * kSecond}) {
    const Outcome out = run(freshness);
    const std::string label =
        freshness == 0 ? "realtime" : std::to_string(freshness / kMillisecond) + "ms";
    bench::row("%16s %9.0f%% %10.1f %12.1f", label.c_str(), 100 * out.hit_rate,
               out.mean_ms, out.server_kbps);
  }

  const double full = southbound_kbps(false);
  const double delta = southbound_kbps(true);
  bench::row("");
  bench::row("  report mode: full=%.1f KB/s  delta=%.1f KB/s  (%.0f%% saved)",
             full, delta, 100.0 * (1.0 - delta / full));
  bench::note("expected: hit rate and latency improve monotonically with the");
  bench::note("freshness budget; realtime (0) always pulls the groups. Delta");
  bench::note("reports cut most representative-upload bytes under low churn.");
  return 0;
}
