// Repository benchmark driver: runs one workload against a simulated FOCUS
// deployment (harness::Testbed) and prints its metrics as the last line of
// standard output, one JSON object:
//
//   focusbench --workload query-400 [--seed 7] [--seconds 10] [--trace 0|1]
//              [--smoke]
//
//   {"correct": true, "attempted": 1000, "failed": 0,
//    "metrics": {"setup_s": {"value": 0.081, "unit": "s"}, ...}}
//
// Host metrics (setup_s, run_cal_s, heap) measure what the simulator costs
// on this machine. Simulated-time metrics (query latency, bandwidth, answer
// quality) measure what the simulated FOCUS delivers; for one seed they
// repeat exactly, which the driver checks.
//
// Host times are calibrated: the machine may run everything up to twice as
// slow for minutes at a time, so each pass's times are scaled by how fast a
// fixed probe ran between the slices of that pass's window (HostProbe).
//
// A run is a sequence of passes, each building a fresh world and executing
// the same timeline:
//
//   build + start + settle | 2 s warm-up | measured window | drain (<= 6 s)
//   (setup_s)               (load on)     (run_cal_s)       (load off)
//
//  - The reference pass comes first. It drains until every query due in
//    the window is answered or has failed, and scores every answer against
//    the agents' true state (answer_precision, answer_fill).
//  - Timed passes follow, until --seconds of wall time have gone by and
//    there are at least three passes. They stop at the window's end.
//    setup_s and run_cal_s are medians over all passes.
//  - With --trace 1 a last pass records spans (and, in a sharded world, the
//    scheduler's wall-clock profile), drains the full 6 s, runs the
//    structural audit, and the driver prints per-layer metrics instead of
//    end-to-end ones.
//  - --smoke runs the reference pass alone, with a tenth of the window.
//
// Every pass must reproduce the reference pass's event digest bit for bit
// (the traced pass also its query outcome); any difference, an unsettled
// world or a malformed answer makes the run incorrect (exit code 1).
//
// The driver only calls public Testbed, Client and counter APIs and reads
// obs::tracer() spans after a pass; it adds no instrumentation to the system.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "harness/scenario.hpp"
#include "harness/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace focus;
using Clock = std::chrono::steady_clock;

/// One benchmark workload. Only these fields of the testbed are set; every
/// execution-mode field keeps its default, so the benchmark measures the
/// system as shipped.
struct Workload {
  std::string_view name;
  std::size_t nodes = 0;
  double volatility = 0;
  unsigned shards = 0;        ///< worker threads; 0 = one kernel
  double qps = 0;             ///< open-loop query rate
  int query_pool = 0;         ///< > 0: draw queries in rounds from a pool
  Duration freshness = 0;     ///< query freshness (0 = realtime)
  Duration window = 0;        ///< measured window
  Duration churn_period = 0;  ///< > 0: take a batch of agents down this often
  double churn_share = 0;     ///< share of agents per churn batch
};

// Why each workload exists is recorded in benchmark/README.md.
constexpr Workload kWorkloads[] = {
    {.name = "query-400", .nodes = 400, .volatility = 0.02, .qps = 40,
     .window = 25 * kSecond},
    {.name = "cached-2k", .nodes = 2000, .volatility = 0.02, .qps = 400,
     .query_pool = 32, .freshness = 2 * kSecond, .window = 2500 * kMillisecond},
    {.name = "churn-500", .nodes = 500, .volatility = 0.1, .qps = 100,
     .window = 10 * kSecond, .churn_period = 2 * kSecond, .churn_share = 0.02},
    {.name = "fleet-4k", .nodes = 4000, .volatility = 0.02, .shards = 3,
     .qps = 400, .query_pool = 32, .freshness = 2 * kSecond,
     .window = 2500 * kMillisecond},
};

/// The deployment and the query pool are part of a workload's definition;
/// --seed varies only its traffic (the query stream and which agents churn).
/// A world or a 32-query pool drawn per seed would make bandwidth and wall
/// time swing with the seed by more than the bounds a regression gate needs.
constexpr std::uint64_t kWorldSeed = 7;
constexpr std::uint64_t kPoolSeed = 0x0f0c05;

constexpr Duration kWarmup = 2 * kSecond;
constexpr Duration kDrain = 6 * kSecond;  // > client timeout (5 s)
/// The world advances in slices; answers are scored against the agents'
/// true state at the end of the slice they arrive in (all shards are parked
/// there, so a sharded world can be read safely).
constexpr Duration kSlice = 100 * kMillisecond;
constexpr int kLimit = 50;
constexpr std::size_t kMinPasses = 3;

enum class PassKind { Reference, Timed, Traced };

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 7;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Bytes the process holds on the heap (glibc: in-use chunks of every malloc
/// arena plus mmapped blocks). Used instead of RSS because it depends only
/// on what the program allocates: RSS also counts allocator slack, which in
/// a sharded run changes with how worker threads' arenas interleave.
double heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double mean(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return ratio(total, static_cast<double>(v.size()));
}

/// How fast the host runs simulator-shaped work right now. A fixed event
/// loop: a binary-heap queue of 4096 pending events over 64 Ki node records
/// of 256 B (16 MB), one small payload allocated per event and kept in a
/// hash map of the last 2048. Timed after every slice of a pass's window,
/// its mean time gives the pass's host scale, kReference / mean, by
/// which the pass's host times are multiplied. The probe uses nothing from
/// src/, so a change to the system cannot speed it up; its input is fixed,
/// so it does the same work on every call.
class HostProbe {
 public:
  /// The probe's time on the reference host: calibrated times are the times
  /// the pass would have taken on a host where one probe takes this long.
  static constexpr double kReference = 1.5e-3;

  HostProbe() : nodes_(std::size_t{1} << 16) {
    for (Node& n : nodes_) {
      for (std::uint64_t& word : n.state) word = next();
    }
    for (std::uint32_t i = 0; i < 4096; ++i) {
      heap_.push_back({next() % 100000, pick_node()});
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    run();  // fills the payload map to its steady size
  }

  /// Processes 3000 events; returns the wall time taken, in seconds.
  double run() {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 3000; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const Event e = heap_.back();
      heap_.pop_back();
      Node& node = nodes_[e.node];
      std::uint64_t h = e.time;
      for (std::size_t k = 0; k < std::size(node.state); k += 4) {
        node.state[k] ^= h;
        h = h * 0x9e3779b97f4a7c15ull + node.state[k + 1];
      }
      payloads_[++sent_].assign(4 + (h & 31), h);
      if (sent_ > 2048) payloads_.erase(sent_ - 2048);
      heap_.push_back({e.time + 1 + (h & 1023), pick_node()});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return seconds_since(start);
  }

 private:
  struct Node {
    std::uint64_t state[32];
  };
  struct Event {
    std::uint64_t time;
    std::uint32_t node;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : node > o.node;
    }
  };

  std::uint64_t next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  std::uint32_t pick_node() {
    return static_cast<std::uint32_t>(next() % nodes_.size());
  }

  std::vector<Node> nodes_;
  std::vector<Event> heap_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> payloads_;
  std::uint64_t sent_ = 0;
  std::uint64_t x_ = 0x243f6a8885a308d3ull;
};

/// Failed correctness checks: each check's first failure, for the report.
struct Checks {
  std::set<std::string> failed;
  std::vector<std::string> details;

  void fail(const std::string& check, const std::string& detail) {
    if (failed.insert(check).second) details.push_back(check + ": " + detail);
  }
  bool ok() const { return failed.empty(); }
};

/// What the simulated world did up to the end of the measured window.
/// Deterministic for a seed: every pass of a run must reproduce it.
struct WindowOutcome {
  std::uint64_t digest = 0;        ///< event digest at the window's end
  std::uint64_t events = 0;        ///< executed in the measured window
  std::uint64_t server_bytes = 0;  ///< server node, both directions, window
  std::uint64_t agent_bytes = 0;   ///< all agents, both directions, window

  bool operator==(const WindowOutcome&) const = default;
};

/// What the queries due in the measured window got, known after the drain
/// (reference and traced passes). Deterministic for a seed.
struct QueryOutcome {
  std::uint64_t digest = 0;   ///< event digest after the drain
  std::uint64_t issued = 0;   ///< queries due in the measured window
  std::uint64_t failed = 0;   ///< of those: error or no answer after the drain
  std::uint64_t partial = 0;  ///< of those: answers with timed_out set
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;

  bool operator==(const QueryOutcome&) const = default;
};

/// Cumulative counters of one world at one instant.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t server_bytes = 0;
  std::uint64_t agent_bytes = 0;
  std::uint64_t net_msgs = 0, net_bytes = 0, net_builds = 0, net_dropped = 0;
  std::map<std::string, std::uint64_t> kind_msgs;
  core::RouterStats router;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_expired = 0;
  core::DgmStats dgm;
  std::uint64_t reports_sent = 0, direct_pulls = 0;
  std::uint64_t client_timeouts = 0;
  double service_busy_us = 0;
  double suspect_to_dead = 0;
  FixedHistogram probe_rtt_us;
  std::uint64_t rounds = 0, shard_windows = 0;
  std::vector<sim::ShardedSimulator::ShardProfile> profiles;
};

/// Every distinct transport of the world (one per shard).
std::vector<const net::SimTransport*> transports_of(harness::Testbed& bed) {
  std::vector<const net::SimTransport*> out{&bed.transport()};
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    const net::SimTransport* t = &bed.transport_for(bed.agent(i).node());
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  return out;
}

Snapshot take_snapshot(harness::Testbed& bed,
                       const std::vector<const net::SimTransport*>& transports) {
  Snapshot s;
  s.events = bed.executed();
  s.server_bytes = bed.server_stats().bytes_total();
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    agent::NodeManager& a = bed.agent(i);
    s.agent_bytes += bed.transport_for(a.node()).stats().of(a.node()).bytes_total();
    s.reports_sent += a.stats().reports_sent;
    s.direct_pulls += a.stats().direct_pulls_answered;
  }
  for (const net::SimTransport* t : transports) {
    s.net_dropped += t->stats().dropped();
    t->stats().for_each_kind(
        [&s](std::string_view kind, const net::MsgKindStats& k) {
          s.net_msgs += k.msgs;
          s.net_bytes += k.bytes;
          s.net_builds += k.payload_builds;
          s.kind_msgs[std::string(kind)] += k.msgs;
        });
  }
  const core::Service& service = bed.service();
  s.router = service.router().stats();
  s.cache_hits = service.router().cache().hits();
  s.cache_misses = service.router().cache().misses();
  s.cache_expired = service.router().cache().expired();
  s.dgm = service.dgm().stats();
  s.client_timeouts = bed.client().stats().timeouts;
  s.service_busy_us = service.busy_cpu_us();
  const obs::MetricSet metrics = obs::aggregated_metrics();
  obs::MetricId id;
  if (obs::find_metric("gossip.suspect_to_dead", &id)) {
    s.suspect_to_dead = metrics.value(id);
  }
  if (obs::find_metric("gossip.probe_rtt_us", &id)) {
    s.probe_rtt_us = metrics.histogram(id);
  }
  if (const sim::ShardedSimulator* driver = bed.sharded(); driver != nullptr) {
    s.rounds = driver->rounds();
    for (std::size_t i = 0; i < driver->num_shards(); ++i) {
      s.shard_windows += driver->shard_windows(i);
    }
    s.profiles = driver->shard_profiles();
  }
  return s;
}

/// One issued query and what came back.
struct QueryRecord {
  core::Query query;
  SimTime due = 0;
  bool measured = false;  ///< due inside the measured window
  bool answered = false;
  bool error = false;
  bool timed_out = false;
  Duration latency = 0;  ///< from the due time
  std::vector<NodeId> nodes;  ///< answer entries, kept until scored
};

/// The traced pass's per-query span figures, in simulated milliseconds.
/// Percentiles of these sit on model constants (the 40 ms API latency, the
/// 800 ms collect window) and would never move, so the driver reports means.
/// The client span has no self time (it sends at once and closes when the
/// response hop does), so it is not reported.
struct SpanFigures {
  std::vector<double> router_self_ms, collect_ms, wan_ms;
};

/// Duration of span `root` minus the union of its descendants' intervals,
/// clipped to the span: the time this layer alone accounts for.
double self_time(const std::vector<obs::SpanRecord>& spans,
                 const std::vector<std::vector<std::uint32_t>>& children,
                 std::uint32_t root) {
  const obs::SpanRecord& r = spans[root];
  std::vector<std::pair<SimTime, SimTime>> covered;
  std::vector<std::uint32_t> stack = children[root];
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    const SimTime lo = std::max(spans[i].start, r.start);
    const SimTime hi = std::min(spans[i].end, r.end);
    if (hi > lo) covered.emplace_back(lo, hi);
    stack.insert(stack.end(), children[i].begin(), children[i].end());
  }
  std::sort(covered.begin(), covered.end());
  SimTime busy = 0, reach = r.start;
  for (const auto& [lo, hi] : covered) {
    const SimTime from = std::max(lo, reach);
    if (hi > from) busy += hi - from;
    reach = std::max(reach, hi);
  }
  return static_cast<double>(r.end - r.start - busy);
}

SpanFigures analyse_spans(const std::vector<QueryRecord>& records,
                          Checks& checks) {
  static const obs::Name kClientQuery = obs::Name::intern("client.query");
  static const obs::Name kRouterQuery = obs::Name::intern("router.query");
  static const obs::Name kGroupCollect = obs::Name::intern("group.collect");
  static const obs::Name kQueryHop = obs::Name::intern("focus.query");
  static const obs::Name kResponseHop =
      obs::Name::intern("focus.query_response");
  const std::vector<obs::SpanRecord>& spans = obs::tracer().spans();

  // The benchmark is the client's only caller, so record i carries client
  // query id i + 1 and hence this trace id.
  std::unordered_set<std::uint64_t> measured;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].measured) {
      measured.insert(obs::make_trace_id(harness::kAppNode, i + 1));
    }
  }
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end < spans[i].start) {
      checks.fail("spans closed after the drain", "span " + std::to_string(i));
    }
    if (spans[i].parent_id != 0) {
      children[spans[i].parent_id - 1].push_back(i);
    }
  }
  SpanFigures out;
  std::map<std::uint64_t, double> wan_us;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    if (measured.count(s.trace_id) == 0 || s.end < s.start) continue;
    const double duration = static_cast<double>(s.end - s.start);
    if (s.name == kClientQuery) {
      const std::size_t index = (s.trace_id & 0xffffffffull) - 1;
      if (s.start != records[index].due) {
        checks.fail("trace ids follow issue order",
                    "client.query span of query " + std::to_string(index));
      }
    } else if (s.name == kRouterQuery) {
      out.router_self_ms.push_back(self_time(spans, children, i) / 1e3);
    } else if (s.name == kGroupCollect) {
      out.collect_ms.push_back(duration / 1e3);
    } else if (s.name == kQueryHop || s.name == kResponseHop) {
      wan_us[s.trace_id] += duration;
    }
  }
  for (const auto& [trace, us] : wan_us) out.wan_ms.push_back(us / 1e3);
  return out;
}

/// Everything one pass measured.
struct PassResult {
  double build_s = 0, settle_s = 0, run_wall_s = 0;
  std::vector<double> slice_walls;  ///< the window's slices, in order
  std::vector<double> probe_s;      ///< HostProbe after each window slice
  double host_scale = 1;  ///< HostProbe::kReference / mean of probe_s
  double build_heap_bytes = 0;  ///< heap growth across the Testbed build
  double peak_heap_bytes = 0;   ///< highest heap use seen at a slice end
  WindowOutcome window;
  QueryOutcome queries;  ///< reference and traced passes
  Snapshot begin, end;   ///< counters at the window's start and end
  double window_s = 0;
  std::size_t num_agents = 0;
  // Reference pass only.
  std::uint64_t entries_scored = 0, entries_precise = 0;
  std::uint64_t answers_scored = 0, answers_filled = 0;
  // Traced pass only.
  std::map<std::string, std::size_t> audit;  ///< violations by invariant
  SpanFigures spans;
  std::size_t groups = 0, transitions_open = 0;
  double mean_group_size = 0, cpu_util = 0;
  std::uint64_t replica_bytes = 0;
};

/// Checks an answer's shape: at most `limit` entries, no node twice, and
/// every entry's reported values satisfy the query's terms.
void check_answer(const core::Query& query, const core::QueryResult& result,
                  Checks& checks) {
  if (query.limit > 0 &&
      result.entries.size() > static_cast<std::size_t>(query.limit)) {
    checks.fail("answer holds at most limit entries",
                std::to_string(result.entries.size()) + " entries");
  }
  std::set<NodeId> seen;
  for (const core::ResultEntry& entry : result.entries) {
    if (!seen.insert(entry.node).second) {
      checks.fail("answer names each node once", to_string(entry.node));
    }
    for (const core::QueryTerm& term : query.terms) {
      const double* value = entry.values.find(term.attr);
      if (value == nullptr || !term.matches(*value)) {
        checks.fail("entry values satisfy the query",
                    to_string(entry.node) + " on " +
                        std::string(term.attr.name()));
      }
    }
  }
}

PassResult run_pass(const Workload& w, const Options& opt, PassKind kind,
                    HostProbe& probe, Checks& checks) {
  const bool reference = kind == PassKind::Reference;
  const bool traced = kind == PassKind::Traced;
  const Duration window = opt.smoke ? w.window / 10 : w.window;
  PassResult out;

  harness::TestbedConfig config;
  config.num_nodes = w.nodes;
  config.seed = kWorldSeed;
  config.agent.dynamics.volatility = w.volatility;
  config.shards = w.shards;
  config.wall_profiling = traced && w.shards > 0;
  // Set before construction: the Testbed clears the span buffer but keeps
  // the enabled flag.
  obs::tracer().set_enabled(traced);

  // The seed drives the traffic: queries and churn each get their own stream.
  Rng query_rng(opt.seed ^ 0x9e3779b97f4a7c15ull);
  Rng churn_rng(opt.seed ^ 0xc2b2ae3d27d4eb4full);
  Rng pool_rng(kPoolSeed);
  std::vector<core::Query> pool;
  for (int i = 0; i < w.query_pool; ++i) {
    pool.push_back(harness::make_placement_query(pool_rng, kLimit));
    pool.back().freshness = w.freshness;
  }
  // Pooled queries are drawn in rounds: each pool query once per round, in a
  // new seeded order every round. Every window then carries the same mix and
  // the seed decides only the order; drawn independently, the per-seed mix
  // made bandwidth and run time on the cached workloads spread up to 11%.
  std::vector<std::size_t> round(pool.size());
  std::size_t round_next = round.size();
  auto next_pooled = [&]() -> const core::Query& {
    if (round_next == round.size()) {
      for (std::size_t i = 0; i < round.size(); ++i) round[i] = i;
      query_rng.shuffle(round);
      round_next = 0;
    }
    return pool[round[round_next++]];
  };
  // Declared before the world: its timers and pending callbacks refer to them.
  std::vector<QueryRecord> records;
  std::vector<std::size_t> to_score;  // answered, not yet scored
  std::size_t outstanding = 0;        // measured, not yet answered

  const double heap_before = heap_bytes();
  const Clock::time_point build_start = Clock::now();
  harness::Testbed bed(config);
  out.build_s = seconds_since(build_start);
  out.build_heap_bytes = heap_bytes() - heap_before;
  const Clock::time_point settle_start = Clock::now();
  bed.start();
  if (!bed.settle()) checks.fail("settle() returned true", "world did not settle");
  out.settle_s = seconds_since(settle_start);
  out.num_agents = bed.num_agents();

  const SimTime window_start = bed.now() + kWarmup;
  const SimTime window_end = window_start + window;
  sim::Simulator& client_sim = bed.simulator_for(harness::kAppNode);
  sim::TimerId load_timer = 0;
  if (w.qps > 0) {
    // Open loop on the client's own kernel: a query is due every interval,
    // answered or not, and simulated time never runs late.
    const auto interval = static_cast<Duration>(1e6 / w.qps);
    load_timer = client_sim.every(interval, [&] {
      const std::size_t index = records.size();
      QueryRecord& record = records.emplace_back();
      record.query = pool.empty()
                         ? harness::make_placement_query(query_rng, kLimit)
                         : next_pooled();
      record.due = client_sim.now();
      record.measured = record.due >= window_start && record.due < window_end;
      if (record.measured) ++outstanding;
      bed.client().query(record.query, [&, index](Result<core::QueryResult> r) {
        QueryRecord& rec = records[index];
        rec.answered = true;
        if (rec.measured) --outstanding;
        rec.latency = client_sim.now() - rec.due;
        if (!r.ok()) {
          rec.error = true;
          return;
        }
        rec.timed_out = r.value().timed_out;
        check_answer(rec.query, r.value(), checks);
        if (reference) {
          for (const auto& e : r.value().entries) rec.nodes.push_back(e.node);
          to_score.push_back(index);
        }
      });
    });
  }

  auto is_down = [&bed](NodeId node) {
    return bed.transport_for(node).is_node_down(node);
  };
  // Score answers against the agents' true state: precision over entries,
  // fill over answers (>= min(limit, live matches) entries).
  auto score = [&] {
    for (const std::size_t index : to_score) {
      QueryRecord& rec = records[index];
      if (!rec.measured) continue;
      std::size_t live_matches = 0;
      for (std::size_t i = 0; i < bed.num_agents(); ++i) {
        agent::NodeManager& a = bed.agent(i);
        if (!is_down(a.node()) && rec.query.matches(a.resources().state())) {
          ++live_matches;
        }
      }
      for (const NodeId node : rec.nodes) {
        const std::size_t i = node.value - harness::kAgentBase;
        ++out.entries_scored;
        if (node.value < harness::kAgentBase || i >= bed.num_agents()) {
          checks.fail("entries name agents", to_string(node));
          continue;
        }
        if (!is_down(node) &&
            rec.query.matches(bed.agent(i).resources().state())) {
          ++out.entries_precise;
        }
      }
      ++out.answers_scored;
      const auto limit = static_cast<std::size_t>(rec.query.limit);
      if (rec.nodes.size() >= std::min(limit, live_matches)) {
        ++out.answers_filled;
      }
      rec.nodes = {};
    }
    to_score.clear();
  };
  // Advance `d` of simulated time slice by slice. When `walls` is given,
  // append each slice's wall time (scoring excluded) to it and time the
  // host probe after the slice.
  auto advance = [&](Duration d, std::vector<double>* walls) {
    for (Duration done = 0; done < d; done += kSlice) {
      const Clock::time_point start = Clock::now();
      bed.run_for(std::min(kSlice, d - done));
      if (walls != nullptr) {
        walls->push_back(seconds_since(start));
        out.probe_s.push_back(probe.run());
      }
      out.peak_heap_bytes = std::max(out.peak_heap_bytes, heap_bytes());
      score();
    }
  };

  advance(kWarmup, nullptr);
  const auto transports = transports_of(bed);
  out.begin = take_snapshot(bed, transports);
  if (w.churn_period > 0) {
    // Every period one batch of agents goes down and the previous batch
    // comes back; the set_node_down calls count as window time.
    std::vector<std::size_t> indices(bed.num_agents());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    const auto batch = static_cast<std::size_t>(
        w.churn_share * static_cast<double>(bed.num_agents()));
    std::vector<std::size_t> down;
    for (Duration t = 0; t < window; t += w.churn_period) {
      const Clock::time_point start = Clock::now();
      for (const std::size_t i : down) bed.set_node_down(bed.agent(i).node(), false);
      down = churn_rng.sample(indices, batch);
      for (const std::size_t i : down) bed.set_node_down(bed.agent(i).node(), true);
      out.slice_walls.push_back(seconds_since(start));
      advance(std::min(w.churn_period, window - t), &out.slice_walls);
    }
  } else {
    advance(window, &out.slice_walls);
  }
  for (const double s : out.slice_walls) out.run_wall_s += s;
  out.host_scale = HostProbe::kReference / mean(out.probe_s);
  out.end = take_snapshot(bed, transports);
  out.window_s = to_seconds(window);
  out.window = {bed.digest(), out.end.events - out.begin.events,
                out.end.server_bytes - out.begin.server_bytes,
                out.end.agent_bytes - out.begin.agent_bytes};
  // Timed passes stop here: the drain only completes queries, and the
  // window digest already proves they simulated the reference world.
  if (kind == PassKind::Timed) return out;
  if (load_timer != 0) client_sim.cancel(load_timer);
  // The query outcome is known once every counted query is answered or has
  // failed; the client gives up after 5 s, so kDrain bounds the wait.
  Duration drained = 0;
  for (; outstanding > 0 && drained < kDrain; drained += kSlice) {
    advance(kSlice, nullptr);
  }

  std::vector<double> latencies_ms;
  QueryOutcome& q = out.queries;
  for (const QueryRecord& rec : records) {
    if (!rec.measured) continue;
    ++q.issued;
    if (!rec.answered || rec.error) {
      ++q.failed;
      continue;
    }
    if (rec.timed_out) ++q.partial;
    latencies_ms.push_back(to_millis(rec.latency));
  }
  q.digest = bed.digest();
  q.latency_p50_ms = quantile(latencies_ms, 0.50);
  q.latency_p99_ms = quantile(latencies_ms, 0.99);

  if (traced) {
    // The rest of the drain lets collects, hops and gossip retransmissions
    // finish, so the audit and the span analysis see a quiet world.
    advance(kDrain - drained, nullptr);
    for (const core::AuditViolation& v : bed.audit().violations) {
      ++out.audit[v.invariant];
    }
    out.spans = analyse_spans(records, checks);
    const core::Dgm& dgm = bed.service().dgm();
    out.groups = dgm.group_count();
    out.transitions_open = dgm.transition_count();
    out.mean_group_size = dgm.mean_group_size();
    out.cpu_util = (out.end.service_busy_us - out.begin.service_busy_us) /
                   (out.window_s * 1e6);
    for (int r = 0; r < bed.store().config().replicas; ++r) {
      out.replica_bytes += bed.store().replica(r).approx_bytes();
    }
    obs::tracer().set_enabled(false);
  }
  return out;
}

/// Metric name -> (value, unit), in print order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Time of the measured window: every pass simulates the same events slice
/// for slice, so each slice's median across passes filters out host noise
/// that hit one pass; the window's time is their sum. Calibrated (each pass's
/// slices scaled by its host scale) or plain wall time.
double window_time(const std::vector<PassResult>& passes, bool calibrated) {
  double total = 0;
  for (std::size_t s = 0; s < passes.front().slice_walls.size(); ++s) {
    std::vector<double> samples;
    for (const PassResult& p : passes) {
      samples.push_back(p.slice_walls[s] * (calibrated ? p.host_scale : 1.0));
    }
    total += median(std::move(samples));
  }
  return total;
}

/// Median over passes of a calibrated host time.
template <typename Field>
double calibrated_median(const std::vector<PassResult>& passes, Field field) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(field(p) * p.host_scale);
  return median(std::move(v));
}

/// End-to-end metrics: host costs over all passes, simulated outcomes of the
/// reference pass. `probe_heap` is the host probe's share of the heap.
Metrics end_to_end(const std::vector<PassResult>& passes, double run_cal,
                   double probe_heap) {
  const PassResult& ref = passes.front();
  const QueryOutcome& q = ref.queries;
  double peak_heap = 0;
  for (const PassResult& p : passes) {
    peak_heap = std::max(peak_heap, p.peak_heap_bytes - probe_heap);
  }
  const double answered = static_cast<double>(q.issued - q.failed);
  return {
      {"setup_s",
       {calibrated_median(passes,
                          [](const PassResult& p) { return p.build_s + p.settle_s; }),
        "s"}},
      {"run_cal_s", {run_cal, "s"}},
      {"peak_heap_mb", {peak_heap / (1024.0 * 1024.0), "MB"}},
      {"bytes_per_node",
       {ref.build_heap_bytes / static_cast<double>(ref.num_agents), "B"}},
      {"query_p50_ms", {q.latency_p50_ms, "ms"}},
      {"query_p99_ms", {q.latency_p99_ms, "ms"}},
      {"answer_complete_ratio",
       {ratio(answered - static_cast<double>(q.partial), answered), "ratio"}},
      {"server_kbps",
       {static_cast<double>(ref.window.server_bytes) / 1024.0 / ref.window_s,
        "KB/s"}},
      {"agent_kbps",
       {static_cast<double>(ref.window.agent_bytes) / 1024.0 / ref.window_s /
            static_cast<double>(ref.num_agents),
        "KB/s"}},
      {"answer_precision",
       {ratio(static_cast<double>(ref.entries_precise),
              static_cast<double>(ref.entries_scored)),
        "ratio"}},
      {"answer_fill",
       {ratio(static_cast<double>(ref.answers_filled),
              static_cast<double>(ref.answers_scored)),
        "ratio"}},
  };
}

// Message kinds a FOCUS testbed sends after set-up; each gets a
// net.kind.<kind>.msgs metric (0 when a workload never sends it).
// Registration (focus.register, focus.register_ack) ends before the window.
constexpr std::string_view kKinds[] = {
    "focus.suggest",        "focus.suggest_ack",   "focus.joined",
    "focus.left_group",     "focus.rep_assign",    "focus.group_report",
    "focus.query",          "focus.query_response", "focus.group_query",
    "focus.member_state",   "focus.group_response", "focus.node_query",
    "focus.node_state",     "swim.ping",           "swim.ack",
    "swim.ping_req",        "swim.join",           "swim.member_list",
    "swim.event",
};

/// Per-layer metrics: counters over the traced pass's window, span figures
/// of its measured queries, and host times of the untraced passes.
Metrics per_layer(const std::vector<PassResult>& passes, double run_cal,
                  const PassResult& t) {
  const Snapshot& a = t.begin;
  const Snapshot& b = t.end;
  auto d = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  std::vector<double> probe_ms;
  for (const PassResult& p : passes) probe_ms.push_back(mean(p.probe_s) * 1e3);
  const double queries = static_cast<double>(t.queries.issued);
  const double routed = d(b.router.queries, a.router.queries);

  // Scheduler profile over the window (sharded worlds; zeros otherwise).
  double busy = 0, stall = 0, idle = 0, edge_busy = 0, data_busy_max = 0;
  for (std::size_t i = 0; i < b.profiles.size(); ++i) {
    const auto& pb = b.profiles[i];
    const auto& pa = a.profiles[i];
    const double shard_busy = static_cast<double>(pb.busy_ns - pa.busy_ns) / 1e9;
    busy += shard_busy;
    stall += static_cast<double>(pb.stall_ns - pa.stall_ns) / 1e9;
    idle += static_cast<double>(pb.idle_ns - pa.idle_ns) / 1e9;
    // Shard order: the four data regions first, the app edge last.
    if (i + 1 == b.profiles.size()) {
      edge_busy = shard_busy;
    } else {
      data_busy_max = std::max(data_busy_max, shard_busy);
    }
  }
  const FixedHistogram rtt = b.probe_rtt_us.delta_since(a.probe_rtt_us);
  double audit_total = 0;
  for (const auto& [invariant, count] : t.audit) audit_total += static_cast<double>(count);

  Metrics m = {
      {"host.run_wall_s", {window_time(passes, false), "s"}},
      {"host.probe_ms", {median(probe_ms), "ms"}},
      {"setup.build_s",
       {calibrated_median(passes, [](const PassResult& p) { return p.build_s; }),
        "s"}},
      {"setup.settle_s",
       {calibrated_median(passes, [](const PassResult& p) { return p.settle_s; }),
        "s"}},
      {"sim.events", {static_cast<double>(t.window.events), "count"}},
      {"sim.events_per_s",
       {ratio(static_cast<double>(t.window.events), run_cal), "1/s"}},
      {"sim.barrier_rounds", {d(b.rounds, a.rounds), "count"}},
      {"sim.shard_windows", {d(b.shard_windows, a.shard_windows), "count"}},
      {"sim.parallelism", {ratio(busy, t.run_wall_s), "ratio"}},
      {"sim.stall_share", {ratio(stall, busy + stall + idle), "ratio"}},
      {"sim.edge_busy_share", {ratio(edge_busy, t.run_wall_s), "ratio"}},
      {"sim.data_busy_share_max", {ratio(data_busy_max, t.run_wall_s), "ratio"}},
      {"net.msgs", {d(b.net_msgs, a.net_msgs), "count"}},
      {"net.bytes", {d(b.net_bytes, a.net_bytes), "B"}},
      {"net.payload_builds_per_msg",
       {ratio(d(b.net_builds, a.net_builds), d(b.net_msgs, a.net_msgs)),
        "ratio"}},
      {"net.dropped", {d(b.net_dropped, a.net_dropped), "count"}},
  };
  // Messages of one kind sent during the window.
  const auto kind_msgs = [&](std::string_view kind) {
    const auto at = [kind](const Snapshot& s) {
      const auto it = s.kind_msgs.find(std::string(kind));
      return it == s.kind_msgs.end() ? std::uint64_t{0} : it->second;
    };
    return d(at(b), at(a));
  };
  for (const std::string_view kind : kKinds) {
    m.push_back({"net.kind." + std::string(kind) + ".msgs", {kind_msgs(kind), "count"}});
  }
  const SpanFigures& sp = t.spans;
  const Metrics rest = {
      {"gossip.event_msgs_per_query",
       {ratio(kind_msgs("swim.event"), queries), "ratio"}},
      {"gossip.suspect_to_dead", {b.suspect_to_dead - a.suspect_to_dead, "count"}},
      {"gossip.probe_rtt_ms_p50", {rtt.quantile(0.5) / 1e3, "ms"}},
      {"agent.collect_ms_mean", {mean(sp.collect_ms), "ms"}},
      {"agent.reports_sent", {d(b.reports_sent, a.reports_sent), "count"}},
      {"agent.direct_pulls_answered", {d(b.direct_pulls, a.direct_pulls), "count"}},
      {"router.self_ms_mean", {mean(sp.router_self_ms), "ms"}},
      {"router.group_queries_per_query",
       {ratio(d(b.router.group_queries_sent, a.router.group_queries_sent),
              routed),
        "ratio"}},
      {"router.node_pulls_per_query",
       {ratio(d(b.router.node_pulls_sent, a.router.node_pulls_sent), routed),
        "ratio"}},
      {"router.timeouts", {d(b.router.timeouts, a.router.timeouts), "count"}},
      {"router.empty_routes",
       {d(b.router.empty_routes, a.router.empty_routes), "count"}},
      {"cache.hit_ratio",
       {ratio(d(b.cache_hits, a.cache_hits),
              d(b.cache_hits, a.cache_hits) + d(b.cache_misses, a.cache_misses)),
        "ratio"}},
      {"cache.expired", {d(b.cache_expired, a.cache_expired), "count"}},
      {"dgm.groups", {static_cast<double>(t.groups), "count"}},
      {"dgm.forks_created", {static_cast<double>(b.dgm.forks_created), "count"}},
      {"dgm.suggestions", {d(b.dgm.suggestions, a.dgm.suggestions), "count"}},
      {"dgm.reports_processed",
       {d(b.dgm.reports_processed, a.dgm.reports_processed), "count"}},
      {"dgm.transitions_open", {static_cast<double>(t.transitions_open), "count"}},
      {"dgm.mean_group_size", {t.mean_group_size, "count"}},
      {"dgm.audit_violations", {audit_total, "count"}},
      {"client.wan_ms_mean", {mean(sp.wan_ms), "ms"}},
      {"client.timeouts", {d(b.client_timeouts, a.client_timeouts), "count"}},
      {"service.cpu_util", {t.cpu_util, "ratio"}},
      {"store.replica_bytes", {static_cast<double>(t.replica_bytes), "B"}},
      {"obs.trace_overhead",
       {ratio(t.run_wall_s * t.host_scale, run_cal), "ratio"}},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "focusbench: %s\n"
               "usage: focusbench --workload NAME [--seed N] [--seconds S]\n"
               "                  [--trace 0|1] [--smoke]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (w.name == value) opt.workload = &w;
        }
        if (opt.workload == nullptr) usage(("unknown workload " + value).c_str());
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload == nullptr) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload& w = *opt.workload;
  Checks checks;

  const Clock::time_point start = Clock::now();
  const double heap_before_probe = heap_bytes();
  HostProbe probe;
  const double probe_heap = heap_bytes() - heap_before_probe;
  std::vector<PassResult> passes;
  passes.push_back(run_pass(w, opt, PassKind::Reference, probe, checks));
  while (!opt.smoke && (passes.size() < kMinPasses ||
                        seconds_since(start) < opt.seconds)) {
    passes.push_back(run_pass(w, opt, PassKind::Timed, probe, checks));
  }
  const double run_cal = window_time(passes, true);
  std::optional<PassResult> traced;
  if (opt.trace) traced = run_pass(w, opt, PassKind::Traced, probe, checks);

  const PassResult& ref = passes.front();
  for (std::size_t i = 1; i < passes.size(); ++i) {
    if (!(passes[i].window == ref.window)) {
      checks.fail("timed passes repeat the reference window",
                  "pass " + std::to_string(i) + " digest " +
                      std::to_string(passes[i].window.digest));
    }
  }
  if (traced && !(traced->window == ref.window && traced->queries == ref.queries)) {
    checks.fail("traced pass repeats the reference outcome",
                "digest " + std::to_string(traced->queries.digest) + " vs " +
                    std::to_string(ref.queries.digest));
  }

  const Metrics metrics = opt.trace ? per_layer(passes, run_cal, *traced)
                                    : end_to_end(passes, run_cal, probe_heap);
  for (const std::string& detail : checks.details) {
    std::fprintf(stderr, "check failed: %s\n", detail.c_str());
  }
  std::string audit;
  if (traced) {
    for (const auto& [invariant, count] : traced->audit) {
      audit += " " + invariant + "=" + std::to_string(count);
    }
    audit = " audit:" + (audit.empty() ? std::string(" none") : audit);
  }
  std::fprintf(stderr, "%.*s seed=%llu passes=%zu digest=%llu queries=%llu%s\n",
               static_cast<int>(w.name.size()), w.name.data(),
               static_cast<unsigned long long>(opt.seed), passes.size(),
               static_cast<unsigned long long>(ref.queries.digest),
               static_cast<unsigned long long>(ref.queries.issued),
               audit.c_str());

  Json doc = Json::object();
  doc["correct"] = checks.ok();
  doc["attempted"] = static_cast<std::int64_t>(ref.queries.issued);
  doc["failed"] = static_cast<std::int64_t>(ref.queries.failed);
  Json values = Json::object();
  for (const auto& [name, metric] : metrics) {
    Json entry = Json::object();
    entry["value"] = metric.first;
    entry["unit"] = metric.second;
    values[name] = std::move(entry);
  }
  doc["metrics"] = std::move(values);
  std::printf("%s\n", doc.dump().c_str());
  return checks.ok() ? 0 : 1;
}
