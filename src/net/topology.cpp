#include "net/topology.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace focus::net {

namespace {
constexpr auto idx(Region r) { return static_cast<std::size_t>(r); }
}  // namespace

Topology::Topology() {
  // One-way latencies in milliseconds, approximating public inter-region
  // EC2 measurements for the paper's four North American regions. AppEdge
  // (the FOCUS server / querying app) is modelled as close to Ohio.
  constexpr double ms[kRegions][kRegions] = {
      //            Ohio  Canada Oregon Calif  AppEdge
      /* Ohio   */ {0.5,  13.0,  25.0,  25.0,  3.0},
      /* Canada */ {13.0, 0.5,   30.0,  35.0,  14.0},
      /* Oregon */ {25.0, 30.0,  0.5,   10.0,  26.0},
      /* Calif  */ {25.0, 35.0,  10.0,  0.5,   26.0},
      /* AppEdge*/ {3.0,  14.0,  26.0,  26.0,  0.2},
  };
  for (std::size_t a = 0; a < kRegions; ++a) {
    for (std::size_t b = 0; b < kRegions; ++b) {
      latency_[a][b] = static_cast<Duration>(ms[a][b] * kMillisecond);
    }
  }
  sub_count_.fill(1);
  for (std::size_t r = 0; r < kRegions; ++r) {
    shard_base_[r] = static_cast<std::uint32_t>(r);
  }
  rebuild_lookahead_cache();
}

void Topology::place(NodeId node, Region region) {
  if (node.value >= placement_.size()) {
    placement_.resize(node.value + 1, Region::AppEdge);
  }
  placement_[node.value] = region;
}

void Topology::set_sub_shards(Region r, unsigned k) {
  sub_count_[idx(r)] = k < 1 ? 1u : k;
  std::uint32_t base = 0;
  for (std::size_t i = 0; i < kRegions; ++i) {
    shard_base_[i] = base;
    base += sub_count_[i];
  }
  num_shards_ = base;
  rebuild_lookahead_cache();
}

void Topology::set_one_shard() {
  for (const std::uint32_t k : sub_count_) {
    FOCUS_CHECK_EQ(k, 1u) << "the one-shard layout cannot split a region";
  }
  shard_base_.fill(0);
  num_shards_ = 1;
}

Duration Topology::base_latency(Region a, Region b) const {
  return latency_[idx(a)][idx(b)];
}

Duration Topology::sample_latency(NodeId from, NodeId to, Rng& rng) const {
  const Duration base = base_latency(region_of(from), region_of(to));
  const double factor = rng.uniform(1.0 - jitter_, 1.0 + jitter_);
  return std::max<Duration>(1, static_cast<Duration>(static_cast<double>(base) * factor));
}

void Topology::rebuild_lookahead_cache() {
  // Truncate every floor the same way sample_latency does, so each cached
  // value is a true lower bound on the corresponding sampled delay.
  const auto shrunk = [this](Duration base) {
    return std::max<Duration>(
        1, static_cast<Duration>(static_cast<double>(base) * (1.0 - jitter_)));
  };

  Duration cross = 0;
  for (std::size_t a = 0; a < kRegions; ++a) {
    for (std::size_t b = 0; b < kRegions; ++b) {
      if (a == b) continue;
      const Duration s = shrunk(latency_[a][b]);
      cross = (cross == 0) ? s : std::min(cross, s);
    }
  }
  cached_cross_floor_ = cross;

  for (std::size_t r = 0; r < kRegions; ++r) {
    cached_intra_floor_[r] = shrunk(latency_[r][r]);
  }

  Duration sharded = cached_cross_floor_;
  for (std::size_t r = 0; r < kRegions; ++r) {
    if (sub_count_[r] > 1) sharded = std::min(sharded, cached_intra_floor_[r]);
  }
  cached_sharded_floor_ = sharded;
}

void Topology::set_latency(Region a, Region b, Duration one_way) {
  latency_[idx(a)][idx(b)] = one_way;
  latency_[idx(b)][idx(a)] = one_way;
  rebuild_lookahead_cache();
}

void Topology::set_jitter(double fraction) {
  jitter_ = fraction;
  rebuild_lookahead_cache();
}

}  // namespace focus::net
