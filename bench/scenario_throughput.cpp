// Macro benchmark: end-to-end kernel/transport throughput of a fixed-seed
// churning FOCUS testbed, reported as simulator events per CPU-second. This
// is the scenario-level companion to the micro_core kernel benchmarks;
// scripts/run-benches.sh runs both and folds the results into the tracked
// BENCH_core.json perf trajectory.
//
// Unlike the figure benches this binary measures the *repository's* speed,
// not the paper's metrics: the workload (agents gossiping, value churn,
// group reports, periodic queries) is pinned by --seed, so events executed
// is identical across machines and kernel rewrites, and only the wall time
// varies.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "harness/scenario.hpp"
#include "harness/testbed.hpp"
#include "obs/trace.hpp"

namespace {

using namespace focus;

struct Options {
  std::size_t nodes = 400;
  std::uint64_t seed = 7;
  Duration sim_seconds = 60;
  std::string out;         // path for BENCH_core.json ("" = stdout only)
  std::string micro;       // optional google-benchmark JSON to fold in
  std::string append_to;   // optional existing BENCH_core.json to extend
  std::string label = "local";
  std::string trace;       // Chrome-trace output path ("" = tracing off)
  std::string metrics;     // metrics-snapshot output path ("" = none)
  double qps = 0;          // client query rate; 0 keeps the stock workload
  unsigned shards = 0;     // 0 = legacy kernel; N >= 1 = region-sharded mode
  unsigned sub_shards = 1;       // sharded mode: kernels per data region
  unsigned edge_sub_shards = 1;  // sharded mode: kernels at the app edge
  long record_ms = 0;      // telemetry sampling cadence (0 = recording off)
  std::string timeseries;  // recorded-series output path ("" = none)
  std::string slo;         // SLO spec path; violations fail the bench
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Peak resident set size of this process in kilobytes (Linux semantics).
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Current resident set size in bytes (/proc/self/statm; 0 off-Linux). Used
/// as a before/after delta around the Testbed build, so the per-node figure
/// excludes the binary, gtest-free runtime and the bench's own buffers.
long current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return pages_resident * sysconf(_SC_PAGESIZE);
}

/// Reduce a google-benchmark JSON document to {name: {real_time_ns,
/// items_per_second}} for the kernel-facing benchmarks.
Json summarize_micro(const std::string& path) {
  Json micro = Json::object();
  const auto parsed = Json::parse(read_file(path));
  if (!parsed.ok()) {
    std::fprintf(stderr, "warning: could not parse %s; omitting micro results\n",
                 path.c_str());
    return micro;
  }
  for (const Json& bench : parsed.value()["benchmarks"].as_array()) {
    const std::string& name = bench["name"].as_string();
    Json entry = Json::object();
    entry["real_time_ns"] = bench["real_time"].number_or(0);
    if (bench.contains("items_per_second")) {
      entry["items_per_second"] = bench["items_per_second"].as_number();
    }
    micro[name] = std::move(entry);
  }
  return micro;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--nodes") {
      opt.nodes = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--sim-seconds") {
      opt.sim_seconds = static_cast<Duration>(std::stoll(next()));
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--micro") {
      opt.micro = next();
    } else if (arg == "--append") {
      opt.append_to = next();
    } else if (arg == "--label") {
      opt.label = next();
    } else if (arg == "--trace") {
      opt.trace = next();
    } else if (arg == "--metrics") {
      opt.metrics = next();
    } else if (arg == "--qps") {
      opt.qps = std::stod(next());
    } else if (arg == "--shards") {
      opt.shards = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--sub-shards") {
      opt.sub_shards = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--edge-sub-shards") {
      opt.edge_sub_shards = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--record-ms") {
      opt.record_ms = std::stol(next());
    } else if (arg == "--timeseries") {
      opt.timeseries = next();
    } else if (arg == "--slo") {
      opt.slo = next();
    } else {
      std::fprintf(stderr,
                   "usage: scenario_throughput [--nodes N] [--seed S]\n"
                   "  [--sim-seconds T] [--out bench.json] [--micro gb.json]\n"
                   "  [--append existing.json] [--label name]\n"
                   "  [--trace trace.json] [--metrics metrics.json] [--qps Q]\n"
                   "  [--shards N]  (0 = legacy single kernel; N >= 1 =\n"
                   "   region-sharded mode with N worker threads)\n"
                   "  [--sub-shards K] [--edge-sub-shards K]  (sharded mode:\n"
                   "   kernels per data region / at the app edge; default 1)\n"
                   "  [--record-ms N]  (sample metric time-series every N ms of\n"
                   "   sim time; sharded mode also turns on wall profiling)\n"
                   "  [--timeseries ts.json]  (write the recorded series)\n"
                   "  [--slo spec.json]  (evaluate SLO assertions; any\n"
                   "   violation or spec error exits non-zero)\n");
      return 2;
    }
  }

  // Span recording must be on before the Testbed resets the observability
  // buffers (the reset keeps the enabled flag, mirroring the FOCUS_TRACE
  // environment hook).
  if (!opt.trace.empty()) obs::tracer().set_enabled(true);

  harness::TestbedConfig config;
  config.num_nodes = opt.nodes;
  config.seed = opt.seed;
  config.shards = opt.shards;
  config.data_sub_shards = opt.sub_shards;
  config.edge_sub_shards = opt.edge_sub_shards;
  config.record_interval = opt.record_ms * kMillisecond;
  config.slo_path = opt.slo;
  // Wall profiling rides the recording switch: both are observation-only,
  // and the per-shard busy/stall/idle counters are only useful when the
  // recorder is there to turn them into series.
  config.wall_profiling = opt.shards > 0 && opt.record_ms > 0;
  config.agent.dynamics.volatility = 0.02;  // steady bucket-crossing churn
  const long rss_before_build = current_rss_bytes();
  harness::Testbed bed(config);
  const long rss_after_build = current_rss_bytes();
  const double bytes_per_node =
      opt.nodes > 0 ? static_cast<double>(rss_after_build - rss_before_build) /
                          static_cast<double>(opt.nodes)
                    : 0;
  bed.start();
  if (!bed.settle()) {
    std::fprintf(stderr, "testbed failed to settle\n");
    return 1;
  }

  // Optional client query load (--qps): placement queries on a dedicated
  // stream seeded off the scenario seed, so the stock workload (--qps 0)
  // executes the exact event sequence of earlier entries and the digest
  // stays comparable across the BENCH_core.json trajectory.
  sim::TimerId query_timer = 0;
  std::uint64_t queries_issued = 0;
  std::uint64_t queries_answered = 0;
  Rng qrng(opt.seed ^ 0x51e57);
  // The query timer ticks on the client's own kernel: with the app edge
  // split into sub-shards the client may live on a different shard than the
  // service, and a timer on a foreign kernel would touch client state from
  // another worker thread.
  sim::Simulator& client_sim = bed.simulator_for(harness::kAppNode);
  if (opt.qps > 0) {
    const auto interval = static_cast<Duration>(1e6 / opt.qps);
    query_timer = client_sim.every(interval, [&] {
      ++queries_issued;
      bed.client().query(
          harness::make_placement_query(qrng, 5),
          [&queries_answered](Result<core::QueryResult>) { ++queries_answered; });
    });
  }

  const std::uint64_t events_before = bed.executed();
  const auto wall_start = std::chrono::steady_clock::now();
  bed.run_for(opt.sim_seconds * kSecond);
  const auto wall_end = std::chrono::steady_clock::now();
  if (query_timer != 0) client_sim.cancel(query_timer);

  const std::uint64_t events = bed.executed() - events_before;
  const double wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  const double events_per_sec =
      wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;

  Json run = Json::object();
  run["label"] = opt.label;
  run["nodes"] = opt.nodes;
  run["seed"] = opt.seed;
  run["sim_seconds"] = static_cast<std::int64_t>(opt.sim_seconds);
  run["events"] = static_cast<std::int64_t>(events);
  run["wall_seconds"] = wall_seconds;
  run["events_per_sec"] = events_per_sec;
  run["peak_rss_kb"] = static_cast<std::int64_t>(peak_rss_kb());
  run["bytes_per_node"] = bytes_per_node;
  run["digest"] = std::to_string(bed.digest());
  // Recorded only in sharded mode so stock legacy entries keep their schema
  // (absent == 0; --compare matches baseline entries on this key).
  if (opt.shards > 0) run["shards"] = static_cast<std::int64_t>(opt.shards);
  // Sub-shard split recorded only when non-default (absent == 1), so the
  // PR7-era 25k entries keep their schema and --compare shape-matching never
  // gates a split run against an unsplit baseline.
  if (opt.sub_shards != 1) {
    run["sub_shards"] = static_cast<std::int64_t>(opt.sub_shards);
  }
  if (opt.edge_sub_shards != 1) {
    run["edge_sub_shards"] = static_cast<std::int64_t>(opt.edge_sub_shards);
  }
  if (const sim::ShardedSimulator* driver = bed.sharded(); driver != nullptr) {
    // Deterministic coordination counts (sim-time quantities): how many
    // rounds the coordinator ran and how many windows each shard executed
    // over the whole bench (settle + measured run).
    run["barrier_rounds"] = static_cast<std::int64_t>(driver->rounds());
    Json windows = Json::array();
    Json widths = Json::array();
    for (std::size_t s = 0; s < driver->num_shards(); ++s) {
      windows.push_back(static_cast<std::int64_t>(driver->shard_windows(s)));
      const std::uint64_t count = driver->shard_windows(s);
      widths.push_back(
          count == 0 ? 0
                     : static_cast<std::int64_t>(driver->shard_window_width(s) /
                                                 count));
    }
    run["shard_windows"] = std::move(windows);
    run["avg_window_us"] = std::move(widths);
    if (driver->wall_profiling()) {
      // Wall-clock stall breakdown (scheduler profile): per shard,
      // busy + stall + idle == wall exactly. Stall share and busy skew
      // across shards are what the speedup protocol reads
      // (EXPERIMENTS.md §speedup).
      Json busy = Json::array(), stall = Json::array(), idle = Json::array();
      for (std::size_t s = 0; s < driver->num_shards(); ++s) {
        const sim::ShardedSimulator::ShardProfile& p =
            driver->shard_profiles()[s];
        busy.push_back(static_cast<double>(p.busy_ns) / 1e6);
        stall.push_back(static_cast<double>(p.stall_ns) / 1e6);
        idle.push_back(static_cast<double>(p.idle_ns) / 1e6);
      }
      run["shard_busy_ms"] = std::move(busy);
      run["shard_stall_ms"] = std::move(stall);
      run["shard_idle_ms"] = std::move(idle);
    }
  }
  if (!opt.micro.empty()) run["micro"] = summarize_micro(opt.micro);
  // Non-default observability knobs are recorded only when used, so stock
  // entries keep their schema and --compare sees like-for-like runs.
  if (opt.qps > 0) {
    run["qps"] = opt.qps;
    run["queries_issued"] = static_cast<std::int64_t>(queries_issued);
    run["queries_answered"] = static_cast<std::int64_t>(queries_answered);
  }
  if (!opt.trace.empty()) {
    run["trace_spans"] =
        static_cast<std::int64_t>(obs::tracer().spans().size());
  }
  if (opt.record_ms > 0) {
    run["record_ms"] = static_cast<std::int64_t>(opt.record_ms);
    run["intervals"] = static_cast<std::int64_t>(
        bed.recorder() != nullptr ? bed.recorder()->num_intervals() : 0);
  }
  // The SLO gate: evaluate before writing outputs so a violating run still
  // leaves its artifacts behind for diagnosis, then exit non-zero.
  bool slo_pass = true;
  if (!opt.slo.empty()) {
    const obs::slo::Report report = bed.check_slos();
    std::fputs(report.to_string().c_str(), stderr);
    slo_pass = report.ok();
    run["slo_pass"] = slo_pass;
    run["slo"] = report.to_json();
  }

  if (!opt.trace.empty()) bed.write_trace(opt.trace);
  if (!opt.metrics.empty()) bed.write_metrics(opt.metrics);
  if (!opt.timeseries.empty()) bed.write_timeseries(opt.timeseries);

  Json doc = Json::object();
  doc["schema"] = "focus-bench-core-v1";
  doc["trajectory"] = Json::array();
  if (!opt.append_to.empty()) {
    const auto existing = Json::parse(read_file(opt.append_to));
    if (existing.ok() && existing.value()["trajectory"].is_array()) {
      doc["trajectory"] = existing.value()["trajectory"];
    }
  }
  doc["trajectory"].push_back(std::move(run));

  const std::string text = doc.pretty() + "\n";
  if (opt.out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(opt.out);
    out << text;
    std::printf("wrote %s (%llu events, %.2fs wall, %.0f events/sec)\n",
                opt.out.c_str(), static_cast<unsigned long long>(events),
                wall_seconds, events_per_sec);
  }
  return slo_pass ? 0 : 1;
}
