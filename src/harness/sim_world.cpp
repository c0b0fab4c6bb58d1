#include "harness/sim_world.hpp"

#include "common/check.hpp"

namespace focus::harness {

Region region_of_index(std::size_t i) {
  switch (i % 4) {
    case 0: return Region::Ohio;
    case 1: return Region::Canada;
    case 2: return Region::Oregon;
    default: return Region::California;
  }
}

SimWorld::SimWorld(std::uint64_t seed, Layout layout, double loss_rate)
    : rng_(seed) {
  // Placement before any shard lookup; place() never draws randomness.
  topology_.place(kServerNode, Region::AppEdge);
  topology_.place(kAppNode, Region::AppEdge);
  topology_.place(kBrokerNode, Region::AppEdge);

  // The shard layout is workload config: fix it before any shard index is
  // computed so Topology::shard_of is stable for the world's lifetime.
  if (layout.shards == 0) {
    FOCUS_CHECK(layout.data_sub_shards <= 1 && layout.edge_sub_shards <= 1)
        << "sub-shard splits need shards >= 1; shards == 0 is the one-shard "
           "layout";
    topology_.set_one_shard();
  } else {
    for (std::size_t r = 0; r < kNumDataRegions; ++r) {
      topology_.set_sub_shards(static_cast<Region>(r), layout.data_sub_shards);
    }
    topology_.set_sub_shards(Region::AppEdge, layout.edge_sub_shards);
  }
  const std::size_t num_shards = topology_.num_shards();
  stager_ = std::make_unique<net::ShardStager>(num_shards);
  std::vector<sim::Simulator*> kernels;
  std::vector<net::SimTransport*> targets;
  for (std::size_t s = 0; s < num_shards; ++s) {
    sims_.push_back(std::make_unique<sim::Simulator>());
    transports_.push_back(
        std::make_unique<net::SimTransport>(*sims_.back(), topology_, rng_.fork()));
    transports_.back()->set_loss_rate(loss_rate);
    transports_.back()->enable_sharding(s, stager_.get());
    kernels.push_back(sims_.back().get());
    targets.push_back(transports_.back().get());
  }

  // Window bound for the configured layout: the cross-region floor, or a
  // split region's intra-region floor when that is tighter.
  sharded_ = std::make_unique<sim::ShardedSimulator>(
      std::move(kernels), topology_.sharded_lookahead_floor(), layout.shards);
  sharded_->set_barrier_hook([this, targets = std::move(targets)](SimTime t) {
    stager_->merge_at_barrier(t, targets);
    if (on_barrier_) on_barrier_(t);
  });
}

std::map<std::string, net::MsgKindStats> SimWorld::traffic_totals() const {
  // Sum the per-kind traffic tables over every shard's transport; std::map
  // keeps the kind order stable.
  std::map<std::string, net::MsgKindStats> totals;
  for (const auto& t : transports_) {
    t->stats().for_each_kind(
        [&totals](std::string_view kind, const net::MsgKindStats& s) {
          net::MsgKindStats& agg = totals[std::string(kind)];
          agg.msgs += s.msgs;
          agg.payload_builds += s.payload_builds;
          agg.bytes += s.bytes;
        });
  }
  return totals;
}

}  // namespace focus::harness
