// Tests for the SWIM-style gossip substrate: buffers, membership
// convergence, failure detection, graceful leave, event dissemination.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "focus/audit.hpp"
#include "gossip/swim.hpp"
#include "net/sim_transport.hpp"

namespace focus::gossip {
namespace {

/// Build an immutable event core the way GroupAgent::broadcast does.
std::shared_ptr<const EventCore> make_core(
    NodeId origin, std::uint64_t seq, std::string topic,
    std::shared_ptr<const net::Payload> body = nullptr) {
  auto core = std::make_shared<EventCore>();
  core->id = EventId{origin, seq};
  core->topic = std::move(topic);
  core->body = std::move(body);
  return core;
}

// ---------------------------------------------------------------------------
// EventBuffer / PiggybackBuffer units

TEST(EventBuffer, DeduplicatesById) {
  EventBuffer buf;
  EXPECT_TRUE(buf.add(make_core(NodeId{1}, 1, "t"), 3));
  EXPECT_FALSE(buf.add(make_core(NodeId{1}, 1, "t"), 3));
  EXPECT_TRUE(buf.add(make_core(NodeId{1}, 2, "t"), 3));
  EXPECT_TRUE(buf.add(make_core(NodeId{2}, 1, "t"), 3));
  EXPECT_EQ(buf.seen_count(), 3u);
}

TEST(EventBuffer, RoundsConsumeBudget) {
  EventBuffer buf;
  buf.add(make_core(NodeId{1}, 1, "t"), 2);
  std::vector<std::shared_ptr<const EventCore>> round;
  buf.take_round_into(round);
  EXPECT_EQ(round.size(), 1u);
  buf.take_round_into(round);
  EXPECT_EQ(round.size(), 1u);  // take_round_into clears before filling
  buf.take_round_into(round);
  EXPECT_EQ(round.size(), 0u);
  EXPECT_TRUE(buf.seen({NodeId{1}, 1}));  // still deduplicated after expiry
}

TEST(EventBuffer, ZeroRoundsMeansSeenButNotForwarded) {
  EventBuffer buf;
  EXPECT_TRUE(buf.add(make_core(NodeId{1}, 1, "t"), 0));
  EXPECT_EQ(buf.pending(), 0u);
  EXPECT_TRUE(buf.seen({NodeId{1}, 1}));
}

TEST(EventBuffer, SharesOneCoreAcrossRetransmitRounds) {
  // The immutability contract: every retransmission round hands back the
  // exact core object registered by add() — the topic string and body are
  // captured once and never copied again.
  EventBuffer buf;
  auto core = make_core(NodeId{7}, 3, "topic-built-once");
  const EventCore* raw = core.get();
  buf.add(core, 3);
  std::vector<std::shared_ptr<const EventCore>> round;
  for (int i = 0; i < 3; ++i) {
    buf.take_round_into(round);
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round.front().get(), raw);
  }
  buf.take_round_into(round);
  EXPECT_TRUE(round.empty());
}

TEST(PiggybackBuffer, TakeConsumesCopies) {
  PiggybackBuffer buf;
  MemberUpdate u;
  u.node = NodeId{1};
  buf.add(u, 2);
  EXPECT_EQ(buf.take(8).size(), 1u);
  EXPECT_EQ(buf.take(8).size(), 1u);
  EXPECT_EQ(buf.take(8).size(), 0u);
}

TEST(PiggybackBuffer, NewerUpdateReplacesOlder) {
  PiggybackBuffer buf;
  MemberUpdate alive;
  alive.node = NodeId{1};
  alive.state = MemberState::Alive;
  buf.add(alive, 5);
  MemberUpdate dead = alive;
  dead.state = MemberState::Dead;
  buf.add(dead, 5);
  auto taken = buf.take(8);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].state, MemberState::Dead);
}

TEST(PiggybackBuffer, RespectsMaxPerMessage) {
  PiggybackBuffer buf;
  for (std::uint32_t i = 0; i < 20; ++i) {
    MemberUpdate u;
    u.node = NodeId{i};
    buf.add(u, 3);
  }
  EXPECT_EQ(buf.take(8).size(), 8u);
  EXPECT_EQ(buf.pending(), 20u);  // everyone still has copies left
}

TEST(PiggybackBuffer, UpdateAttachedExactlyBudgetTimes) {
  // Retransmit-count semantics: with room on every message, an update rides
  // along exactly `copies` times, then disappears for good.
  PiggybackBuffer buf;
  MemberUpdate u;
  u.node = NodeId{42};
  buf.add(u, 6);
  int attached = 0;
  for (int round = 0; round < 10; ++round) {
    for (const auto& taken : buf.take(8)) {
      if (taken.node == NodeId{42}) ++attached;
    }
  }
  EXPECT_EQ(attached, 6);
  EXPECT_EQ(buf.pending(), 0u);
}

TEST(PiggybackBuffer, OverflowDropsMostSpentUpdatesFirst) {
  // When more updates are pending than fit in one message, the ones with the
  // most remaining budget (the freshest assertions) win the seats; the
  // nearly-spent ones are the ones left off.
  PiggybackBuffer buf;
  for (std::uint32_t i = 0; i < 8; ++i) {
    MemberUpdate u;
    u.node = NodeId{i};
    buf.add(u, 1);  // one copy left: oldest information
  }
  for (std::uint32_t i = 100; i < 104; ++i) {
    MemberUpdate u;
    u.node = NodeId{i};
    buf.add(u, 6);  // fresh assertions
  }
  const auto taken = buf.take(8);
  ASSERT_EQ(taken.size(), 8u);
  int fresh = 0;
  for (const auto& u : taken) {
    if (u.node.value >= 100) ++fresh;
  }
  EXPECT_EQ(fresh, 4);  // every fresh update got a seat
  // The four stale updates that missed this message are still pending.
  EXPECT_EQ(buf.pending(), 8u);
}

TEST(PiggybackBuffer, TakeIntoAppendsWithoutClearing) {
  PiggybackBuffer buf;
  MemberUpdate u;
  u.node = NodeId{1};
  buf.add(u, 2);
  std::vector<MemberUpdate> out;
  out.push_back(u);  // pre-existing content must survive
  buf.take_into(out, 8);
  EXPECT_EQ(out.size(), 2u);
}

// ---------------------------------------------------------------------------
// GroupAgent integration on the simulator

class GossipTest : public ::testing::Test {
 protected:
  GossipTest() : transport_(simulator_, topology_, Rng(17)) {}

  /// Create and start an agent; if peers exist, join via the first one.
  GroupAgent& spawn(std::uint32_t id, Region region = Region::Ohio) {
    topology_.place(NodeId{id}, region);
    auto agent = std::make_unique<GroupAgent>(
        simulator_, transport_, net::Address{NodeId{id}, 100}, region, config_,
        Rng(1000 + id));
    agent->start();
    if (!agents_.empty()) {
      const net::Address entry = agents_.front()->address();
      agent->join(std::span<const net::Address>(&entry, 1));
    }
    agents_.push_back(std::move(agent));
    return *agents_.back();
  }

  /// True when every agent believes the group has exactly n alive members.
  bool converged(std::size_t n) const {
    for (const auto& agent : agents_) {
      if (agent->running() && agent->alive_count() != n) return false;
    }
    return true;
  }

  sim::Simulator simulator_;
  net::Topology topology_;
  net::SimTransport transport_;
  Config config_;
  std::vector<std::unique_ptr<GroupAgent>> agents_;
};

TEST_F(GossipTest, SingleAgentIsGroupOfOne) {
  auto& a = spawn(1);
  simulator_.run_for(1 * kSecond);
  EXPECT_EQ(a.alive_count(), 1u);
  EXPECT_TRUE(a.alive_members().empty());
}

TEST_F(GossipTest, TwoAgentsDiscoverEachOther) {
  spawn(1);
  spawn(2);
  simulator_.run_for(2 * kSecond);
  EXPECT_TRUE(converged(2));
}

TEST_F(GossipTest, TwentyAgentsConvergeViaPiggyback) {
  for (std::uint32_t i = 1; i <= 20; ++i) spawn(i, Region::Ohio);
  simulator_.run_for(15 * kSecond);
  EXPECT_TRUE(converged(20));
}

TEST_F(GossipTest, CrossRegionMembershipConverges) {
  for (std::uint32_t i = 1; i <= 12; ++i) {
    spawn(i, static_cast<Region>(i % 4));
  }
  simulator_.run_for(15 * kSecond);
  EXPECT_TRUE(converged(12));
  // Regions are carried in membership info.
  const auto members = agents_.front()->alive_members();
  bool saw_other_region = false;
  for (const auto& m : members) {
    if (m.region != agents_.front()->region()) saw_other_region = true;
  }
  EXPECT_TRUE(saw_other_region);
}

TEST_F(GossipTest, CrashedMemberDetectedAndRemoved) {
  for (std::uint32_t i = 1; i <= 8; ++i) spawn(i);
  simulator_.run_for(10 * kSecond);
  ASSERT_TRUE(converged(8));

  transport_.set_node_down(NodeId{3}, true);
  // Detection: probe timeout -> suspicion -> dead; allow generous time for
  // round-robin probing to reach the dead node from everyone.
  simulator_.run_for(25 * kSecond);
  for (const auto& agent : agents_) {
    if (agent->id() == NodeId{3}) continue;
    EXPECT_EQ(agent->alive_count(), 7u)
        << to_string(agent->id()) << " still sees the dead member";
  }
}

TEST_F(GossipTest, RecoveredSuspectRefutesWithHigherIncarnation) {
  for (std::uint32_t i = 1; i <= 6; ++i) spawn(i);
  simulator_.run_for(8 * kSecond);
  ASSERT_TRUE(converged(6));

  // Partition node 2 briefly: long enough to be suspected, short enough to
  // refute before the suspicion timeout (2 s) declares it dead everywhere.
  transport_.set_node_down(NodeId{2}, true);
  simulator_.run_for(1500 * kMillisecond);
  transport_.set_node_down(NodeId{2}, false);
  simulator_.run_for(20 * kSecond);

  EXPECT_TRUE(converged(6));
  EXPECT_GE(agents_[1]->incarnation(), 1u);  // refutation bumped incarnation
  EXPECT_GT(agents_[1]->counters().refutations, 0u);
}

TEST_F(GossipTest, GracefulLeavePropagates) {
  for (std::uint32_t i = 1; i <= 8; ++i) spawn(i);
  simulator_.run_for(10 * kSecond);
  ASSERT_TRUE(converged(8));

  agents_[4]->leave();
  simulator_.run_for(5 * kSecond);
  for (const auto& agent : agents_) {
    if (!agent->running()) continue;
    EXPECT_EQ(agent->alive_count(), 7u);
  }
}

TEST_F(GossipTest, BroadcastReachesEveryMember) {
  for (std::uint32_t i = 1; i <= 30; ++i) spawn(i);
  simulator_.run_for(20 * kSecond);
  ASSERT_TRUE(converged(30));

  int delivered = 0;
  for (auto& agent : agents_) {
    agent->set_event_handler([&delivered](const EventPayload& event) {
      EXPECT_EQ(event.topic(), "probe");
      ++delivered;
    });
  }
  agents_.front()->broadcast("probe", nullptr, /*deliver_locally=*/true);
  simulator_.run_for(3 * kSecond);
  EXPECT_EQ(delivered, 30);
}

TEST_F(GossipTest, RelayedEventAuditsCleanBeforeNextTick) {
  // A relayed event enters the peer's buffer with the full retransmit
  // budget; the budget only shrinks on the peer's next tick. The audit must
  // accept that state, so audit from inside the delivery callback.
  spawn(1);
  GroupAgent& peer = spawn(2);
  simulator_.run_for(2 * kSecond);
  ASSERT_TRUE(converged(2));

  int audited = 0;
  peer.set_event_handler([&](const EventPayload&) {
    int rounds = 0;
    peer.event_buffer().for_each_pending(
        [&rounds](EventId, int rounds_left) { rounds = rounds_left; });
    EXPECT_EQ(rounds, config_.event_retransmit_rounds);
    const auto report = core::audit_gossip(peer, simulator_.now());
    EXPECT_TRUE(report.ok()) << report.to_string();
    ++audited;
  });
  agents_.front()->broadcast("probe", nullptr, /*deliver_locally=*/false);
  simulator_.run_for(1 * kSecond);
  EXPECT_EQ(audited, 1);
}

TEST_F(GossipTest, BroadcastDeliveredExactlyOncePerMember) {
  for (std::uint32_t i = 1; i <= 16; ++i) spawn(i);
  simulator_.run_for(15 * kSecond);
  ASSERT_TRUE(converged(16));

  std::map<std::uint32_t, int> deliveries;
  for (auto& agent : agents_) {
    const auto id = agent->id().value;
    agent->set_event_handler(
        [&deliveries, id](const EventPayload&) { ++deliveries[id]; });
  }
  for (int k = 0; k < 5; ++k) {
    agents_.front()->broadcast("probe", nullptr, true);
  }
  simulator_.run_for(3 * kSecond);
  for (const auto& [id, n] : deliveries) EXPECT_EQ(n, 5) << "node " << id;
}

TEST_F(GossipTest, ConvergenceLatencyWithinPaperBallpark) {
  // §VIII-B footnote: fanout 4 / interval 100 ms converges a 400-node group
  // in ~0.6 s. Check a 60-node group converges well under a second.
  for (std::uint32_t i = 1; i <= 60; ++i) spawn(i);
  simulator_.run_for(30 * kSecond);
  ASSERT_TRUE(converged(60));

  int delivered = 0;
  for (auto& agent : agents_) {
    agent->set_event_handler([&](const EventPayload&) { ++delivered; });
  }
  const SimTime start = simulator_.now();
  agents_.front()->broadcast("probe", nullptr, true);
  while (delivered < 60 && simulator_.now() - start < 5 * kSecond) {
    simulator_.step();
  }
  EXPECT_EQ(delivered, 60);
  EXPECT_LT(simulator_.now() - start, 1 * kSecond);
}

TEST_F(GossipTest, IdleBandwidthStaysSmall) {
  // Fig. 8b "normal operation": membership upkeep should cost < 2 KB/s per
  // node even for substantial groups.
  // Run past one anti-entropy period so the last stragglers converge.
  for (std::uint32_t i = 1; i <= 50; ++i) spawn(i);
  simulator_.run_for(35 * kSecond);
  ASSERT_TRUE(converged(50));

  const auto before = transport_.stats().of(NodeId{5});
  simulator_.run_for(10 * kSecond);
  const auto delta = transport_.stats().of(NodeId{5}) - before;
  const double kbps = static_cast<double>(delta.bytes_total()) / 1024.0 / 10.0;
  EXPECT_LT(kbps, 2.0);
}

TEST_F(GossipTest, LateJoinerSeesFullMembership) {
  for (std::uint32_t i = 1; i <= 10; ++i) spawn(i);
  simulator_.run_for(10 * kSecond);
  ASSERT_TRUE(converged(10));

  auto& late = spawn(99);
  simulator_.run_for(8 * kSecond);
  EXPECT_EQ(late.alive_count(), 11u);
  EXPECT_TRUE(converged(11));
}

TEST_F(GossipTest, JoinViaStaleEntryPointStillWorks) {
  for (std::uint32_t i = 1; i <= 6; ++i) spawn(i);
  simulator_.run_for(8 * kSecond);
  ASSERT_TRUE(converged(6));

  // Joiner gets two entry points; the first is dead.
  topology_.place(NodeId{50}, Region::Ohio);
  transport_.set_node_down(agents_[0]->address().node, true);
  auto agent = std::make_unique<GroupAgent>(
      simulator_, transport_, net::Address{NodeId{50}, 100}, Region::Ohio,
      config_, Rng(50));
  agent->start();
  const std::vector<net::Address> entries = {agents_[0]->address(),
                                             agents_[1]->address()};
  agent->join(entries);
  agents_.push_back(std::move(agent));
  simulator_.run_for(25 * kSecond);
  // 6 originals - 1 dead + 1 joiner = 6 alive total.
  EXPECT_EQ(agents_.back()->alive_count(), 6u);
}

// ---------------------------------------------------------------------------
// Shared-payload and delta-sync behaviour

/// Payload whose copies are observable: the shared-fanout contract promises
/// an event body is captured once at broadcast() and never copied again —
/// not per recipient, not per retransmission round, not per hop.
struct CountingBody final : net::Payload {
  static int copies;
  CountingBody() = default;
  CountingBody(const CountingBody&) { ++copies; }
  std::size_t wire_size() const override { return 100; }
};
int CountingBody::copies = 0;

TEST_F(GossipTest, BroadcastBodyNeverCopied) {
  for (std::uint32_t i = 1; i <= 16; ++i) spawn(i);
  simulator_.run_for(15 * kSecond);
  ASSERT_TRUE(converged(16));

  int delivered = 0;
  for (auto& agent : agents_) {
    agent->set_event_handler([&delivered](const EventPayload&) { ++delivered; });
  }
  CountingBody::copies = 0;
  agents_.front()->broadcast("probe", std::make_shared<const CountingBody>(),
                             /*deliver_locally=*/true);
  simulator_.run_for(3 * kSecond);
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(CountingBody::copies, 0);
}

TEST_F(GossipTest, FanoutBurstBuildsOnePayload) {
  // NetStats charges a payload build only when the pointer changes between
  // consecutive sends: a fanout burst stamping N envelopes around one shared
  // payload must cost ~msgs/fanout builds, not one build per message.
  for (std::uint32_t i = 1; i <= 25; ++i) spawn(i);
  simulator_.run_for(20 * kSecond);
  ASSERT_TRUE(converged(25));

  transport_.stats().reset();
  for (int k = 0; k < 10; ++k) {
    agents_[static_cast<std::size_t>(k)]->broadcast("probe", nullptr, false);
    simulator_.run_for(500 * kMillisecond);
  }
  const auto event_stats =
      transport_.stats().of_kind(net::MsgKind::intern("swim.event"));
  ASSERT_GT(event_stats.msgs, 0u);
  ASSERT_GT(event_stats.payload_builds, 0u);
  // With fanout 4 a burst is 1 build for up to 4 messages; allow slack for
  // one-target bursts but reject anything close to one build per message.
  EXPECT_LE(2 * event_stats.payload_builds, event_stats.msgs)
      << event_stats.payload_builds << " builds for " << event_stats.msgs
      << " messages";
}

TEST_F(GossipTest, DeltaSyncConvergesUnderChurn) {
  // Aggressive anti-entropy with deltas on: frequent syncs, full snapshot
  // only every 3rd exchange. Kill two members and add two joiners; everyone
  // must converge, and the gossip structural audit must stay clean.
  config_.sync_interval = 2 * kSecond;
  config_.sync_full_every = 3;
  for (std::uint32_t i = 1; i <= 10; ++i) spawn(i);
  simulator_.run_for(12 * kSecond);
  ASSERT_TRUE(converged(10));

  transport_.set_node_down(NodeId{3}, true);
  transport_.set_node_down(NodeId{7}, true);
  simulator_.run_for(5 * kSecond);
  spawn(21);
  spawn(22);
  simulator_.run_for(30 * kSecond);

  for (const auto& agent : agents_) {
    if (!agent->running()) continue;
    const auto id = agent->id();
    if (id == NodeId{3} || id == NodeId{7}) continue;
    EXPECT_EQ(agent->alive_count(), 10u) << to_string(id);
    const auto report = core::audit_gossip(*agent, simulator_.now());
    EXPECT_TRUE(report.ok()) << report.to_string();
    // Delta cursors never lead the change epoch, and at least one sync
    // exchange has stamped a cursor by now.
    std::size_t cursors = 0;
    agent->for_each_sync_cursor([&](NodeId, std::uint64_t epoch) {
      ++cursors;
      EXPECT_LE(epoch, agent->member_epoch());
    });
    EXPECT_GT(cursors, 0u) << to_string(id);
  }
}

TEST_F(GossipTest, SyncConvergesWithDeltasDisabled) {
  // sync_full_every == 1 forces every anti-entropy list to be a full
  // snapshot; membership convergence must be unaffected.
  config_.sync_interval = 2 * kSecond;
  config_.sync_full_every = 1;
  for (std::uint32_t i = 1; i <= 8; ++i) spawn(i);
  simulator_.run_for(15 * kSecond);
  EXPECT_TRUE(converged(8));

  transport_.set_node_down(NodeId{5}, true);
  simulator_.run_for(25 * kSecond);
  for (const auto& agent : agents_) {
    if (agent->id() == NodeId{5}) continue;
    EXPECT_EQ(agent->alive_count(), 7u) << to_string(agent->id());
  }
}

}  // namespace
}  // namespace focus::gossip
