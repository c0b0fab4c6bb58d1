#pragma once
// SimWorld: the simulated substrate every harness world is built on — the
// seed stream, the topology and its shard layout, one kernel and one
// transport per shard, the cross-shard stager, and the sim::ShardedSimulator
// that advances them in one global conservative window. It is the one place
// that builds kernels; Testbed, World and the load drivers all advance time
// through its driver, so every world runs on one clock.
//
// The shard layout is fixed by config and NodeId (Topology::shard_of):
//  - shards == 0: the one-shard layout — one kernel for the whole world,
//    whose digests are pinned in tests/benches. World always uses it.
//  - shards >= 1: one shard per (region, sub-shard) pair — four data
//    regions plus the app edge, each optionally split into K sub-shards.
//    `shards` only sets the worker-thread count, so digests are
//    byte-identical for any shards >= 1 (tests/test_sharded.cpp).
//
// At each window barrier staged cross-shard traffic is merged, then the
// derived world's barrier callback runs with all workers parked. DESIGN.md
// §10 gives the measured reasons.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/shard_stage.hpp"
#include "net/sim_transport.hpp"
#include "sim/sharded.hpp"

namespace focus::harness {

/// Node-id layout shared by every harness world.
inline constexpr NodeId kServerNode{0};
inline constexpr NodeId kBrokerNode{1};
inline constexpr NodeId kAppNode{2};
inline constexpr std::uint32_t kManagerBase = 10;  ///< hierarchy managers
inline constexpr std::uint32_t kAgentBase = 100;   ///< end nodes

/// Region of the i-th end node: round-robin across the four data regions
/// (mirrors the paper's even split across EC2 regions).
Region region_of_index(std::size_t i);

/// The sharded simulation substrate. Constructed only as the base of a
/// concrete world.
class SimWorld {
 public:
  /// Shard layout (see the header comment). Sub-shard splits > 1 need
  /// shards >= 1 (FOCUS_CHECKed).
  struct Layout {
    unsigned shards = 0;
    unsigned data_sub_shards = 1;
    unsigned edge_sub_shards = 1;
  };

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  /// Advance simulated time on every shard, window by window.
  void run_for(Duration d) { sharded_->run_for(d); }
  void run_until(SimTime t) { sharded_->run_until(t); }

  /// The driver's committed time, the world's order-sensitive event digest
  /// (in the one-shard layout, the kernel's own) and events executed.
  SimTime now() const noexcept { return sharded_->now(); }
  std::uint64_t digest() const noexcept { return sharded_->digest(); }
  std::uint64_t executed() const noexcept { return sharded_->executed(); }

  /// The service kernel: the shard hosting kServerNode. Schedule on it, but
  /// advance time only through run_for / run_until (the driver aborts if a
  /// kernel was run on its own).
  sim::Simulator& simulator() noexcept { return simulator_for(kServerNode); }

  /// The kernel that owns `node`: its shard's kernel. Timers whose callbacks
  /// touch a component's state must be scheduled on that component's own
  /// kernel (e.g. a query driver ticks on simulator_for(kAppNode), the
  /// client's shard).
  sim::Simulator& simulator_for(NodeId node) noexcept {
    return *sims_[topology_.shard_of(node)];
  }
  const sim::Simulator& simulator_for(NodeId node) const noexcept {
    return *sims_[topology_.shard_of(node)];
  }

  /// The driver that advances every shard (never null).
  sim::ShardedSimulator* sharded() noexcept { return sharded_.get(); }
  const sim::ShardedSimulator* sharded() const noexcept { return sharded_.get(); }

  /// The service-shard transport. Server traffic counters live here.
  net::SimTransport& transport() noexcept { return transport_for(kServerNode); }

  /// The transport that owns `node`'s endpoints: its shard's transport.
  net::SimTransport& transport_for(NodeId node) noexcept {
    return *transports_[topology_.shard_of(node)];
  }

  /// Mark a node down/up on its owning transport.
  void set_node_down(NodeId node, bool down) {
    transport_for(node).set_node_down(node, down);
  }

  net::Topology& topology() noexcept { return topology_; }

  /// Traffic counters of the server node (kServerNode).
  net::EndpointStats server_stats() const {
    return transports_[topology_.shard_of(kServerNode)]->stats().of(kServerNode);
  }

 protected:
  /// Build the layout, then one kernel and one transport per shard. The
  /// transports fork the seed stream in shard order (the one-shard layout
  /// forks once) and the derived world forks its components from rng()
  /// afterwards, so every pinned digest keeps its fork order.
  SimWorld(std::uint64_t seed, Layout layout, double loss_rate);

  /// The seed stream, positioned after the transports' forks.
  Rng& rng() noexcept { return rng_; }

  /// Run `callback` at every window barrier, after the staged-traffic merge,
  /// with every worker parked. At most one per world.
  void set_barrier_callback(std::function<void(SimTime)> callback) {
    on_barrier_ = std::move(callback);
  }

  /// Per-kind traffic totals summed over every shard's transport.
  std::map<std::string, net::MsgKindStats> traffic_totals() const;

 private:
  Rng rng_;
  net::Topology topology_;
  /// One kernel and one transport per shard, in shard order.
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  std::unique_ptr<net::ShardStager> stager_;
  std::vector<std::unique_ptr<net::SimTransport>> transports_;
  std::function<void(SimTime)> on_barrier_;
  /// Declared last so its destructor joins the worker threads before any
  /// shard state is torn down. Derived members go first; that is safe
  /// because workers are parked between run calls and touch nothing there.
  std::unique_ptr<sim::ShardedSimulator> sharded_;
};

}  // namespace focus::harness
