#pragma once
// Testbed: builds a complete FOCUS deployment on the simulator — the service
// (with its data store), N node agents spread over the paper's four regions,
// and an application client at the app edge. Shared by integration tests,
// benches and examples.
//
// Two execution modes:
//  - Legacy (shards == 0): one kernel, one transport — the historical
//    single-threaded world whose event digests are pinned in tests/benches.
//  - Sharded (shards >= 1): one kernel + transport per (region, sub-shard)
//    pair — four data regions plus the app edge, each optionally split into
//    K sub-shards (data_sub_shards / edge_sub_shards) — driven by
//    sim::ShardedSimulator in conservative windows with cross-shard traffic
//    staged through net::ShardStager. The shard layout is fixed by config
//    and NodeId (Topology::shard_of); `shards` only sets the worker-thread
//    count, so digests are byte-identical for any shards >= 1 (enforced by
//    tests/test_sharded.cpp). Splitting the app edge spreads the service
//    (node 0), broker (node 1) and app client (node 2) across edge
//    sub-shards by the same consistent NodeId assignment, so the hottest
//    shard no longer serializes the fleet.
//
// In both modes the store cluster runs inside the service kernel and the
// service calls it directly. Sharded mode advances every shard in one global
// conservative window; DESIGN.md §10 gives the measured reason for both.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/node_manager.hpp"
#include "common/slab.hpp"
#include "focus/audit.hpp"
#include "focus/client.hpp"
#include "focus/service.hpp"
#include "net/shard_stage.hpp"
#include "net/sim_transport.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "sim/sharded.hpp"
#include "store/kvstore.hpp"

namespace focus::harness {

/// Node-id layout of a testbed world.
inline constexpr NodeId kServerNode{0};
inline constexpr NodeId kBrokerNode{1};
inline constexpr NodeId kAppNode{2};
inline constexpr std::uint32_t kManagerBase = 10;  ///< hierarchy managers
inline constexpr std::uint32_t kAgentBase = 100;   ///< end nodes

/// Region of the i-th end node: round-robin across the four data regions
/// (mirrors the paper's even split across EC2 regions).
Region region_of_index(std::size_t i);

/// Testbed parameters.
struct TestbedConfig {
  std::size_t num_nodes = 100;
  std::uint64_t seed = 1;
  core::ServiceConfig service;
  agent::AgentConfig agent;
  store::ClusterConfig store;
  double loss_rate = 0;

  /// 0 = legacy single-kernel mode. >= 1 = region-sharded mode with this
  /// many worker threads (clamped to the shard count); 1 runs the same
  /// windowed algorithm inline. Sharded digests differ from legacy ones
  /// (different rng fork layout) but are identical across `shards` values.
  unsigned shards = 0;

  /// Sharded mode only: split every data region / the app edge into this
  /// many sub-shards (kernels). Part of the workload config — changing a
  /// split legitimately changes digests, but the partition is a pure
  /// function of NodeId (Topology::shard_of), never of `shards`, so digests
  /// stay byte-identical across worker counts. 1/1 reproduces the PR7
  /// one-kernel-per-region layout bit for bit. Splitting a region shrinks
  /// the conservative window to its intra-region lookahead floor.
  unsigned data_sub_shards = 1;
  unsigned edge_sub_shards = 1;

  /// When > 0, run the structural-invariant audit (focus/audit.hpp) every
  /// this many microseconds of simulated time and abort (FOCUS_CHECK) on the
  /// first violation. Off by default: benches measure undisturbed costs.
  /// In sharded mode the audit runs at the first window barrier at or after
  /// each due time (windows are ~2.7 ms, so the skew is negligible).
  Duration audit_interval = 0;

  /// When > 0, sample every registered metric into an obs::Recorder on this
  /// sim-time cadence (legacy mode: run_for chunks at each due time; sharded
  /// mode: the first barrier at or after each due time). Observation-only —
  /// digests are byte-identical with recording on or off
  /// (tests/test_telemetry.cpp pins this). FOCUS_RECORD=<ms> sets it from
  /// the environment at construction.
  Duration record_interval = 0;

  /// Path of an SLO spec document (obs/slo.hpp) evaluated by check_slos()
  /// and — logged, never fatal — at destruction. FOCUS_SLO=<path> sets it
  /// from the environment; interval-scoped specs additionally need
  /// record_interval > 0.
  std::string slo_path;

  /// Sharded mode only: wall-clock scheduler profiling
  /// (sim::ShardedSimulator::shard_profiles). Observation-only; digests are
  /// unaffected.
  bool wall_profiling = false;

  /// Keep the agent-side reporting settings in lockstep with the service
  /// config (call after editing `service`).
  void sync_agent_config();
};

/// A running FOCUS world.
class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Start every node agent (they register and join groups). Does not run
  /// the simulator; call run_for / settle afterwards.
  void start();

  /// Advance simulated time (all shards, in sharded mode).
  void run_for(Duration d);

  /// Committed simulated time: the legacy kernel's clock, or the sharded
  /// driver's barrier time.
  SimTime now() const noexcept;

  /// Order-sensitive event digest of the whole world: the kernel digest in
  /// legacy mode, the shard-order fold in sharded mode.
  std::uint64_t digest() const noexcept;

  /// Total events executed across every kernel.
  std::uint64_t executed() const noexcept;

  /// Run until every agent is registered and group reports have flowed at
  /// least once (bounded by `max`). Returns true when settled.
  bool settle(Duration max = 30 * kSecond);

  /// Issue a query through the app client and run the simulator until the
  /// response arrives (bounded by `max_wait`).
  Result<core::QueryResult> query_and_wait(core::Query query,
                                           Duration max_wait = 10 * kSecond);

  /// The service kernel: the sole kernel in legacy mode; in sharded mode
  /// the shard hosting the service node and its store (other app-edge
  /// nodes may live on sibling edge sub-shards — see simulator_for).
  sim::Simulator& simulator() noexcept { return simulator_; }

  /// The kernel that owns `node`: its shard's kernel in sharded mode, the
  /// sole kernel otherwise. Timers whose callbacks touch a component's
  /// state must be scheduled on that component's own kernel (e.g. a query
  /// driver ticks on simulator_for(kAppNode), the client's shard).
  sim::Simulator& simulator_for(NodeId node) noexcept {
    return sharded_ ? *shard_sims_[topology_.shard_of(node)] : simulator_;
  }
  const sim::Simulator& simulator_for(NodeId node) const noexcept {
    return sharded_ ? *shard_sims_[topology_.shard_of(node)] : simulator_;
  }

  /// The sharded driver, or nullptr in legacy mode.
  sim::ShardedSimulator* sharded() noexcept { return sharded_.get(); }

  /// The service-shard transport (the sole transport in legacy mode).
  /// Server traffic counters always live here.
  net::SimTransport& transport() noexcept { return *transport_; }

  /// The transport that owns `node`'s endpoints: its shard's transport in
  /// sharded mode, the sole transport otherwise.
  net::SimTransport& transport_for(NodeId node);

  /// Mark a node down/up on its owning transport (works in both modes).
  void set_node_down(NodeId node, bool down) {
    transport_for(node).set_node_down(node, down);
  }

  net::Topology& topology() noexcept { return topology_; }
  /// The replica cluster the service runs against, in the service kernel.
  store::Cluster& store() noexcept { return *store_; }
  core::Service& service() noexcept { return *service_; }
  core::Client& client() noexcept { return *client_; }
  agent::NodeManager& agent(std::size_t i) { return agents_[i]; }
  std::size_t num_agents() const noexcept { return agents_.size(); }
  Slab<agent::NodeManager>& agents() noexcept { return agents_; }
  const TestbedConfig& config() const noexcept { return config_; }

  /// Traffic counters of the FOCUS server node.
  net::EndpointStats server_stats() const {
    return transport_->stats().of(kServerNode);
  }

  /// Run the structural audit over the service, kernel, and every live
  /// gossip agent right now. In sharded mode, call only between run_for
  /// calls (the barrier hook calls it with workers parked).
  core::AuditReport audit() const {
    core::AuditReport report = core::audit_service(*service_, simulator_);
    for (const auto& agent : agents_) {
      const SimTime agent_now = simulator_for(agent.node()).now();
      for (const auto& [attr, membership] : agent.p2p().memberships()) {
        report.merge(core::audit_gossip(*membership.agent, agent_now));
      }
    }
    return report;
  }

  /// Periodic audits executed so far (0 unless audit_interval > 0).
  std::uint64_t audits_run() const noexcept { return audits_run_; }

  /// Write recorded spans as Chrome trace-event JSON (obs/export.hpp) to
  /// `path`. Also done automatically at destruction when the FOCUS_TRACE
  /// environment variable named a path at construction.
  void write_trace(const std::string& path) const;

  /// Write a metrics snapshot to `path`: every touched obs metric (merged
  /// across worker threads) plus the per-message-kind traffic table summed
  /// over this world's transports.
  void write_metrics(const std::string& path) const;

  /// The metric time-series recorder, or nullptr when record_interval == 0.
  const obs::Recorder* recorder() const noexcept { return recorder_.get(); }

  /// Cumulative metrics snapshot the recorder samples and the SLO evaluator
  /// reads: every obs metric (merged across worker threads) plus per-kind
  /// traffic totals re-published as net.<kind>.{msgs,bytes,payload_builds}
  /// counters and, in sharded mode, per-shard scheduler telemetry
  /// (sharded.shard<i>.{windows,window_width_us,events} counters, and
  /// busy/stall/idle_us when wall profiling is on).
  obs::MetricSet telemetry_snapshot() const;

  /// Evaluate the SLO spec at config().slo_path against the current metrics
  /// and recorded time-series. An empty path yields an empty (passing)
  /// report; an unreadable or malformed spec yields a failing one (a gate
  /// must fail on a typo, not skip the assertion). Also evaluated — logged
  /// at Warn, never fatal — at destruction.
  obs::slo::Report check_slos() const;

  /// Write the recorded time-series (obs::timeseries_json) to `path`.
  /// Warns and writes nothing when recording is off. Also done
  /// automatically at destruction when the FOCUS_TIMESERIES environment
  /// variable named a path at construction.
  void write_timeseries(const std::string& path) const;

 private:
  /// Close the recorder interval ending at `t`: sample telemetry_snapshot().
  void sample_telemetry(SimTime t);
  /// Per-kind traffic totals summed over this world's transports.
  std::map<std::string, net::MsgKindStats> traffic_totals() const;

  TestbedConfig config_;
  sim::Simulator simulator_;  ///< service kernel (sole kernel in legacy mode)
  net::Topology topology_;
  /// Sharded mode only: the heap kernels for every shard except the service
  /// shard, which reuses simulator_ (construction order is shard order, so
  /// with no sub-shard splits these are the four data-region kernels).
  std::vector<std::unique_ptr<sim::Simulator>> owned_sims_;
  std::unique_ptr<net::ShardStager> stager_;
  std::unique_ptr<net::SimTransport> transport_;  ///< service-shard transport
  std::vector<std::unique_ptr<net::SimTransport>> owned_transports_;
  std::vector<sim::Simulator*> shard_sims_;           ///< all, shard order
  std::vector<net::SimTransport*> shard_transports_;  ///< all, shard order
  /// Fleet-shared immutable agent state (memory compaction): one config and
  /// one resource walk plan for every node.
  std::shared_ptr<const agent::AgentConfig> agent_config_;
  std::shared_ptr<const agent::ResourceModel::StepPlan> step_plan_;
  std::unique_ptr<store::Cluster> store_;
  std::unique_ptr<core::Service> service_;
  std::unique_ptr<core::Client> client_;
  /// Agents live in a chunked arena: stable addresses (closures capture
  /// `this`), one allocation per 64 agents, contiguous walks.
  Slab<agent::NodeManager> agents_;
  /// Declared after everything it drives so its destructor joins the worker
  /// threads before any shard state is torn down.
  std::unique_ptr<sim::ShardedSimulator> sharded_;
  sim::TimerId audit_timer_ = 0;
  std::uint64_t audits_run_ = 0;
  SimTime next_audit_ = 0;  ///< sharded mode: next barrier-audit due time
  std::string trace_path_;  ///< from FOCUS_TRACE; written at destruction
  /// Metric time-series (record_interval > 0). Sampled on the coordinator /
  /// caller thread only, with all shard workers parked.
  std::unique_ptr<obs::Recorder> recorder_;
  std::string timeseries_path_;  ///< from FOCUS_TIMESERIES; written at dtor
};

}  // namespace focus::harness
