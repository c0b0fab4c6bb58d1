#pragma once
// Wide-area topology model: which region each node lives in, the one-way
// latency between regions, and the shard layout for region-sharded parallel
// simulation. Values approximate the paper's EC2 testbed (Ohio, Canada,
// Oregon, California) plus an "app edge" region hosting the FOCUS service
// and the querying application.
//
// Sub-region sharding: a region whose kernel dominates a conservative window
// can be split into K sub-shards (set_sub_shards). The (region, sub-shard)
// partition is a pure function of NodeId and the configured split — never of
// worker count — so sharded digests stay byte-identical for any --shards
// value. Splitting a region shrinks the safe conservative window to that
// region's *intra*-region lookahead floor (diagonal latency after worst-case
// jitter), because two sub-shards of one region exchange messages at
// intra-region latency.

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace focus::net {

/// Region placement, inter-region latency, and the shard layout.
class Topology {
 public:
  /// Builds the default WAN latency matrix (see topology.cpp for values).
  Topology();

  /// Record the region of a node. Nodes default to Region::AppEdge.
  void place(NodeId node, Region region);

  /// Region of a node (AppEdge when never placed). Hot: consulted on every
  /// send in sharded mode and on every latency sample, so placement is a
  /// dense vector indexed by NodeId, not a hash map.
  Region region_of(NodeId node) const noexcept {
    return node.value < placement_.size() ? placement_[node.value]
                                          : Region::AppEdge;
  }

  /// Deterministic mean one-way latency between two regions (microseconds).
  Duration base_latency(Region a, Region b) const;

  /// Sampled one-way latency between two nodes: base latency plus
  /// multiplicative jitter drawn from `rng`.
  Duration sample_latency(NodeId from, NodeId to, Rng& rng) const;

  /// Override one region-pair latency (tests / what-if scenarios).
  /// Sets both directions and rebuilds the lookahead caches.
  void set_latency(Region a, Region b, Duration one_way);

  /// Fractional jitter: sampled latency is base * U(1-j, 1+j). Default 0.1.
  /// Rebuilds the lookahead caches.
  void set_jitter(double fraction);
  double jitter() const { return jitter_; }

  /// Largest conservative lookahead window (µs) safe for region-sharded
  /// simulation with one kernel per region: the minimum cross-region one-way
  /// latency after the worst-case jitter shrink, floored at 1µs like
  /// sample_latency. Any cross-region send made at time s is delivered no
  /// earlier than s + lookahead_floor(), which is what lets
  /// sim::ShardedSimulator run each region freely for one window between
  /// barriers. Cached at topology build (rebuilt eagerly by every latency /
  /// jitter / layout mutator — never lazily, because the topology is shared
  /// read-only across worker threads in sharded mode).
  Duration lookahead_floor() const noexcept { return cached_cross_floor_; }

  /// Intra-region lookahead floor of one region (µs): the region's diagonal
  /// one-way latency after the worst-case jitter shrink, floored at 1µs the
  /// same way sample_latency truncates. This is the window bound that
  /// applies once `r` is split into sub-shards, because two sub-shards of
  /// the same region exchange traffic at intra-region latency. Cached like
  /// lookahead_floor().
  Duration intra_lookahead_floor(Region r) const noexcept {
    return cached_intra_floor_[static_cast<std::size_t>(r)];
  }

  /// Largest conservative window safe for the *configured* shard layout:
  /// the cross-region floor, further clamped by the intra-region floor of
  /// every region split into more than one sub-shard. Cached like
  /// lookahead_floor().
  Duration sharded_lookahead_floor() const noexcept {
    return cached_sharded_floor_;
  }

  // -- Shard layout (sub-region sharding) ----------------------------------

  /// Split `r` into `k >= 1` sub-shards. Call before any shard index is
  /// handed out (transports cache their own index); the split is part of the
  /// workload config, so changing it legitimately changes digests — but the
  /// layout stays a pure function of (config, NodeId), never worker count.
  void set_sub_shards(Region r, unsigned k);
  unsigned sub_shards(Region r) const noexcept {
    return sub_count_[static_cast<std::size_t>(r)];
  }

  /// Total shard count: sum of sub-shard counts over all regions. 5 when
  /// nothing is split (the PR7 one-kernel-per-region layout).
  std::size_t num_shards() const noexcept { return num_shards_; }

  /// First shard index of a region; a region's sub-shards are contiguous in
  /// region-major order (Ohio subs, Canada subs, ..., AppEdge subs).
  std::size_t shard_base(Region r) const noexcept {
    return shard_base_[static_cast<std::size_t>(r)];
  }

  /// Shard hosting `node`: region-major base plus a consistent sub-shard
  /// assignment by NodeId (splitmix-mixed hash mod K, so any id layout —
  /// dense, strided, or sparse — spreads evenly). With every region at one
  /// sub-shard this is exactly the Region enum value, the PR7 layout.
  std::size_t shard_of(NodeId node) const noexcept {
    const auto r = static_cast<std::size_t>(region_of(node));
    const std::uint32_t k = sub_count_[r];
    return shard_base_[r] + (k == 1 ? 0 : sub_shard_of(node, k));
  }

  /// The consistent sub-shard assignment itself: mix(NodeId) mod k. Exposed
  /// so the harness can co-locate helper state with a node's shard.
  static std::uint32_t sub_shard_of(NodeId node, std::uint32_t k) noexcept {
    // splitmix64-style finalizer: ids are small, often strided integers;
    // spread them before the mod so sub-shards stay balanced.
    std::uint64_t x = node.value;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x % k);
  }

 private:
  static constexpr int kRegions = 5;

  /// Recompute every cached lookahead floor from the current latency table,
  /// jitter and shard layout. Called eagerly from the ctor and every mutator
  /// so the const getters stay pure reads — the topology is shared read-only
  /// across worker threads in sharded mode, and a lazy fill inside a const
  /// getter would be a data race.
  void rebuild_lookahead_cache();

  std::array<std::array<Duration, kRegions>, kRegions> latency_{};
  /// Dense NodeId -> Region map (grown on place; AppEdge when out of range).
  std::vector<Region> placement_;
  std::array<std::uint32_t, kRegions> sub_count_;
  std::array<std::uint32_t, kRegions> shard_base_;
  std::size_t num_shards_ = kRegions;
  double jitter_ = 0.1;

  // Lookahead caches (rebuild_lookahead_cache): computed once per mutation,
  // read lock-free from any thread.
  Duration cached_cross_floor_ = 0;
  std::array<Duration, kRegions> cached_intra_floor_{};
  Duration cached_sharded_floor_ = 0;
};

}  // namespace focus::net
