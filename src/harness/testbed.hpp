#pragma once
// Testbed: a complete FOCUS deployment on the sharded substrate
// (harness/sim_world.hpp) — the service (with its data store), N node agents
// spread over the paper's four regions, and an application client at the app
// edge. Shared by integration tests, benches and examples.
//
// The store cluster runs inside the service kernel and the service calls it
// directly. Audits and telemetry sampling run at the substrate's window
// barriers. DESIGN.md §10 gives the measured reasons.

#include <memory>
#include <string>

#include "agent/node_manager.hpp"
#include "common/slab.hpp"
#include "focus/audit.hpp"
#include "focus/client.hpp"
#include "focus/service.hpp"
#include "harness/sim_world.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "store/kvstore.hpp"

namespace focus::harness {

/// Testbed parameters.
struct TestbedConfig {
  std::size_t num_nodes = 100;
  std::uint64_t seed = 1;
  core::ServiceConfig service;
  agent::AgentConfig agent;
  store::ClusterConfig store;
  double loss_rate = 0;

  /// 0 = the one-shard layout. >= 1 = one shard per region (sub-shard) with
  /// this many worker threads (clamped to the shard count); 1 runs the same
  /// windowed algorithm inline. Region-sharded digests differ from one-shard
  /// ones (different rng fork layout) but are identical across `shards`
  /// values >= 1.
  unsigned shards = 0;

  /// Split every data region / the app edge into this many sub-shards
  /// (kernels); > 1 needs shards >= 1 (FOCUS_CHECKed). Part of the workload
  /// config — changing a split legitimately changes digests, but the
  /// partition is a pure function of NodeId (Topology::shard_of), never of
  /// `shards`, so digests stay byte-identical across worker counts. 1/1
  /// reproduces the PR7 one-kernel-per-region layout bit for bit. Splitting
  /// a region shrinks the conservative window to its intra-region lookahead
  /// floor.
  unsigned data_sub_shards = 1;
  unsigned edge_sub_shards = 1;

  /// When > 0, run the structural-invariant audit (focus/audit.hpp) at the
  /// first window barrier at or after every multiple of this many
  /// microseconds of simulated time (windows are ~2.7 ms, so the skew is
  /// negligible) and abort (FOCUS_CHECK) on the first violation. Off by
  /// default: benches measure undisturbed costs.
  Duration audit_interval = 0;

  /// When > 0, sample every registered metric into an obs::Recorder on this
  /// sim-time cadence (at the first barrier at or after each due time).
  /// Observation-only — digests are byte-identical with recording on or off
  /// (tests/test_telemetry.cpp pins this). FOCUS_RECORD=<ms> sets it from
  /// the environment at construction.
  Duration record_interval = 0;

  /// Path of an SLO spec document (obs/slo.hpp) evaluated by check_slos()
  /// and — logged, never fatal — at destruction. FOCUS_SLO=<path> sets it
  /// from the environment; interval-scoped specs additionally need
  /// record_interval > 0.
  std::string slo_path;

  /// Wall-clock scheduler profiling (sim::ShardedSimulator::shard_profiles).
  /// Observation-only; digests are unaffected.
  bool wall_profiling = false;

  /// Keep the agent-side reporting settings in lockstep with the service
  /// config (call after editing `service`).
  void sync_agent_config();
};

/// A running FOCUS world.
class Testbed : public SimWorld {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  /// Start every node agent (they register and join groups). Does not run
  /// the simulator; call run_for / settle afterwards.
  void start();

  /// Run until every agent is registered and group reports have flowed at
  /// least once (bounded by `max`). Returns true when settled.
  bool settle(Duration max = 30 * kSecond);

  /// Issue a query through the app client and run the simulator until the
  /// response arrives (bounded by `max_wait`).
  Result<core::QueryResult> query_and_wait(core::Query query,
                                           Duration max_wait = 10 * kSecond);

  /// The replica cluster the service runs against, in the service kernel.
  store::Cluster& store() noexcept { return *store_; }
  core::Service& service() noexcept { return *service_; }
  core::Client& client() noexcept { return *client_; }
  agent::NodeManager& agent(std::size_t i) { return agents_[i]; }
  std::size_t num_agents() const noexcept { return agents_.size(); }
  const TestbedConfig& config() const noexcept { return config_; }

  /// Run the structural audit over the service, kernel, and every live
  /// gossip agent right now. Call only between run_for calls (the barrier
  /// hook calls it with workers parked).
  core::AuditReport audit() const {
    core::AuditReport report =
        core::audit_service(*service_, simulator_for(kServerNode));
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
  /// counters and per-shard scheduler telemetry
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

  TestbedConfig config_;
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
  std::uint64_t audits_run_ = 0;
  SimTime next_audit_ = 0;  ///< next barrier-audit due time (0 = off)
  std::string trace_path_;  ///< from FOCUS_TRACE; written at destruction
  /// Metric time-series (record_interval > 0). Sampled on the coordinator /
  /// caller thread only, with all shard workers parked.
  std::unique_ptr<obs::Recorder> recorder_;
  std::string timeseries_path_;  ///< from FOCUS_TIMESERIES; written at dtor
};

}  // namespace focus::harness
