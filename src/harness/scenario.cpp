#include "harness/scenario.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "openstack/placement.hpp"

namespace focus::harness {

namespace {
// Load-harness view of the query stream, alongside the per-component metrics
// the client/router record themselves.
const obs::MetricId kLoadIssued = obs::MetricId::counter("load.queries_issued");
const obs::MetricId kLoadCompleted =
    obs::MetricId::counter("load.queries_completed");
const obs::MetricId kLoadFailed = obs::MetricId::counter("load.queries_failed");
const obs::MetricId kLoadLatency =
    obs::MetricId::histogram("load.query_latency_us");

/// Issue `query` through `finder` on `kernel` (the finder's home kernel) and
/// record its outcome in `result` when the callback fires.
void issue_query(baselines::NodeFinder& finder, const sim::Simulator& kernel,
                 const core::Query& query, const std::shared_ptr<LoadResult>& result) {
  ++result->issued;
  obs::metrics().add(kLoadIssued, 1);
  const SimTime issued_at = kernel.now();
  finder.find(query, [result, issued_at, &kernel](Result<core::QueryResult> r) {
    ++result->completed;
    obs::metrics().add(kLoadCompleted, 1);
    if (!r.ok()) {
      ++result->failed;
      obs::metrics().add(kLoadFailed, 1);
      return;
    }
    if (r.value().entries.empty()) ++result->empty_results;
    const SimTime latency = kernel.now() - issued_at;
    result->latency_ms.add(to_millis(latency));
    obs::metrics().observe(kLoadLatency, static_cast<double>(latency));
  });
}
}  // namespace

World::World(WorldConfig config)
    : SimWorld(config.seed, Layout{}, /*loss_rate=*/0), config_(std::move(config)) {
  models_.reserve(config_.num_nodes);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    const NodeId id{kAgentBase + static_cast<std::uint32_t>(i)};
    const Region region = region_of_index(i);
    topology().place(id, region);
    models_.push_back(std::make_unique<agent::ResourceModel>(
        config_.schema, id, region, rng().fork(), config_.dynamics));
  }
  sim::Simulator& kernel = simulator();
  kernel.every(config_.model_step, [this, &kernel] {
    const SimTime now = kernel.now();
    for (auto& model : models_) model->step(now);
  });
}

std::vector<baselines::SimNode> World::sim_nodes() {
  std::vector<baselines::SimNode> out;
  out.reserve(models_.size());
  for (std::size_t i = 0; i < models_.size(); ++i) {
    out.push_back(baselines::SimNode{
        NodeId{kAgentBase + static_cast<std::uint32_t>(i)}, region_of_index(i),
        models_[i].get()});
  }
  return out;
}

std::vector<baselines::ManagerNode> World::managers(int count) {
  std::vector<baselines::ManagerNode> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const NodeId id{kManagerBase + static_cast<std::uint32_t>(i)};
    const Region region = region_of_index(static_cast<std::size_t>(i));
    topology().place(id, region);
    out.push_back(baselines::ManagerNode{id, region});
  }
  return out;
}

core::Query make_placement_query(Rng& rng, int limit) {
  core::Query query;
  // Resource thresholds roughly matching the flavor menu; each draws a
  // random requirement so candidate groups vary query to query.
  const int num_terms = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<std::string> attrs = {"ram_mb", "disk_gb", "vcpus", "cpu_usage"};
  rng.shuffle(attrs);
  for (int i = 0; i < num_terms; ++i) {
    const std::string& attr = attrs[static_cast<std::size_t>(i)];
    if (attr == "ram_mb") {
      const double need = 1024.0 * static_cast<double>(rng.uniform_int(1, 8));
      query.where_at_least("ram_mb", need);
    } else if (attr == "disk_gb") {
      query.where_at_least("disk_gb", 5.0 * static_cast<double>(rng.uniform_int(1, 4)));
    } else if (attr == "vcpus") {
      query.where_at_least("vcpus", static_cast<double>(rng.uniform_int(1, 4)));
    } else {
      // Hot-spot style constraint: hosts that are not overloaded.
      query.where_at_most("cpu_usage", 25.0 * static_cast<double>(rng.uniform_int(1, 3)));
    }
  }
  query.limit = limit;
  return query;
}

LoadResult run_query_load(SimWorld& world, baselines::NodeFinder& finder,
                          const QueryGen& gen, double qps, Duration warmup,
                          Duration window, std::uint64_t seed) {
  auto result = std::make_shared<LoadResult>();
  auto rng = std::make_shared<Rng>(seed);
  const auto interval = static_cast<Duration>(1e6 / qps);
  sim::Simulator& kernel = world.simulator_for(finder.home_node());
  const NodeId server = finder.server_node();
  net::SimTransport& server_transport = world.transport_for(server);

  world.run_for(warmup);
  const net::EndpointStats start_stats = server_transport.stats().of(server);
  const SimTime window_end = world.now() + window;
  const sim::TimerId timer = kernel.every(interval, [&finder, &kernel, gen, result, rng] {
    issue_query(finder, kernel, gen(*rng), result);
  });
  world.run_until(window_end);
  kernel.cancel(timer);
  result->server_delta = server_transport.stats().of(server) - start_stats;
  result->window = window;
  // Drain in-flight queries so latency tails are captured (drain traffic is
  // excluded from the bandwidth window, matching a fixed measurement port).
  world.run_for(5 * kSecond);
  return *result;
}

LoadResult replay_trace(SimWorld& world, const std::vector<trace::PlacementEvent>& trace,
                        baselines::NodeFinder& finder, const ReplayConfig& config) {
  auto result = std::make_shared<LoadResult>();
  const std::size_t count = config.max_events == 0
                                ? trace.size()
                                : std::min(config.max_events, trace.size());
  if (count == 0) return *result;

  sim::Simulator& kernel = world.simulator_for(finder.home_node());
  const SimTime base = world.now();
  SimTime last_at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const trace::PlacementEvent& event = trace[i];
    const auto offset =
        static_cast<SimTime>(static_cast<double>(event.at) / config.acceleration);
    last_at = base + offset;
    kernel.schedule_at(last_at, [&finder, &kernel, &event, result] {
      issue_query(finder, kernel, openstack::to_query(event.request), result);
    });
  }
  world.run_until(last_at + config.drain);
  result->window = world.now() - base;
  return *result;
}

}  // namespace focus::harness
