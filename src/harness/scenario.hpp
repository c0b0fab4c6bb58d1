#pragma once
// Scenario helpers shared by benches and tests. Both worlds are
// harness::SimWorlds (harness/sim_world.hpp), so they share one clock:
//  * World        — the baseline fleet: live resource models, no finding
//                   system attached.
//  * Testbed      — the FOCUS deployment (harness/testbed.hpp), presented
//                   by FocusFinder through the common NodeFinder interface.
//  * run_query_load / replay_trace — drive a NodeFinder on either world at
//                   a fixed rate (Fig. 7a/7b) or along a trace (Fig. 7c/8a).
//  * make_placement_query — the placement-style query mix used across the
//                   evaluation.

#include <functional>
#include <memory>
#include <vector>

#include "baselines/hierarchy_finder.hpp"
#include "baselines/node_finder.hpp"
#include "common/histogram.hpp"
#include "harness/testbed.hpp"
#include "trace/chameleon.hpp"

namespace focus::harness {

/// World parameters.
struct WorldConfig {
  std::size_t num_nodes = 100;
  std::uint64_t seed = 1;
  core::Schema schema = core::Schema::openstack_default();
  agent::ResourceDynamics dynamics = {};
  Duration model_step = 1 * kSecond;  ///< resource random-walk cadence
};

/// A geo-distributed fleet of simulated nodes with live resource values and
/// no node-finding system attached, on the one-shard layout. Baselines are
/// constructed on top.
class World : public SimWorld {
 public:
  explicit World(WorldConfig config);

  /// The fleet view baselines consume.
  std::vector<baselines::SimNode> sim_nodes();

  /// Hierarchy middle-layer nodes (ids kManagerBase..), spread over regions.
  std::vector<baselines::ManagerNode> managers(int count);

  NodeId server_node() const { return kServerNode; }
  NodeId broker_node() const { return kBrokerNode; }
  std::size_t num_nodes() const noexcept { return models_.size(); }
  agent::ResourceModel& model(std::size_t i) { return *models_.at(i); }

 private:
  WorldConfig config_;  ///< models hold references into its schema
  std::vector<std::unique_ptr<agent::ResourceModel>> models_;
};

/// Adapter: a FOCUS deployment as a NodeFinder.
class FocusFinder final : public baselines::NodeFinder {
 public:
  explicit FocusFinder(Testbed& testbed) : testbed_(testbed) {}

  void find(const core::Query& query, Callback cb) override {
    testbed_.client().query(query, std::move(cb));
  }
  NodeId server_node() const override { return kServerNode; }
  /// The app client issues queries from kAppNode's kernel.
  NodeId home_node() const override { return kAppNode; }
  std::string name() const override { return "focus"; }

 private:
  Testbed& testbed_;
};

/// Outcome of a query load or a trace replay.
struct LoadResult {
  Histogram latency_ms;  ///< successful queries only
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;  ///< callbacks fired, failures included
  std::uint64_t failed = 0;
  std::uint64_t empty_results = 0;  ///< successful answers with no entry
  net::EndpointStats server_delta;  ///< server traffic during the window
  Duration window = 0;

  /// Server bandwidth (both directions) in KB/s over the window.
  double server_kbps() const {
    if (window <= 0) return 0;
    return static_cast<double>(server_delta.bytes_total()) / 1024.0 /
           to_seconds(window);
  }
};

/// Trace-replay parameters (§X-C).
struct ReplayConfig {
  double acceleration = 15'000.0;  ///< trace time compression factor
  std::size_t max_events = 0;      ///< 0 = all events
  Duration drain = 5 * kSecond;    ///< extra simulated time to let responses land
};

/// A query generator draws the next query (seeded, deterministic).
using QueryGen = std::function<core::Query(Rng&)>;

/// Placement-style query mix over the OpenStack schema: a lower-bounded
/// resource requirement on 1-3 attributes with a limit, matching the shape
/// of Table I / §IX queries.
core::Query make_placement_query(Rng& rng, int limit = 50);

/// Drive `finder` at `qps` for `window` (after `warmup`), measuring latency
/// and the traffic delta at `finder.server_node()`, then drain 5 s so
/// latency tails land. Queries are issued on the kernel of
/// `finder.home_node()`; time advances through `world`'s driver.
LoadResult run_query_load(SimWorld& world, baselines::NodeFinder& finder,
                          const QueryGen& gen, double qps, Duration warmup,
                          Duration window, std::uint64_t seed);

/// Replay every event of `trace` (up to config.max_events) against `finder`,
/// issuing each at trace-time / acceleration on the kernel of
/// `finder.home_node()`, and run `world` until the last issue plus
/// config.drain; the result's window is the whole replay span.
LoadResult replay_trace(SimWorld& world, const std::vector<trace::PlacementEvent>& trace,
                        baselines::NodeFinder& finder, const ReplayConfig& config);

}  // namespace focus::harness
