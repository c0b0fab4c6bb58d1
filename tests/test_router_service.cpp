// Integration tests of the Query Router and Service on a live testbed:
// cache behaviour, static/store path, smallest-group routing, limits,
// delegation, timeouts, and the transition table.

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/testbed.hpp"

namespace focus::core {
namespace {

harness::TestbedConfig frozen_config(std::size_t nodes, std::uint64_t seed = 13) {
  harness::TestbedConfig config;
  config.num_nodes = nodes;
  config.seed = seed;
  config.agent.dynamics.frozen = true;
  return config;
}

/// Give agents distinguishable static attributes before starting.
void tag_statics(harness::Testbed& bed) {
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    bed.agent(i).resources().set_static({
        {"arch", i % 3 == 0 ? "arm" : "x86"},
        {"service_type", i % 2 == 0 ? "compute" : "scheduler"},
        {"project_id", "tenant-" + std::to_string(i % 4)},
    });
  }
}

TEST(Router, CacheHitWithinFreshness) {
  harness::Testbed bed(frozen_config(16));
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_at_least("ram_mb", 4096).fresh_within(10 * kSecond);
  auto first = bed.query_and_wait(q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().source, ResponseSource::Groups);

  auto second = bed.query_and_wait(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().source, ResponseSource::Cache);
  EXPECT_LT(second.value().latency(), first.value().latency());
  EXPECT_EQ(second.value().entries.size(), first.value().entries.size());
  EXPECT_EQ(bed.service().router().cache().hits(), 1u);
}

TEST(Router, CacheExpiresAfterFreshnessWindow) {
  harness::Testbed bed(frozen_config(16));
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_at_least("ram_mb", 4096).fresh_within(2 * kSecond);
  ASSERT_TRUE(bed.query_and_wait(q).ok());
  bed.run_for(3 * kSecond);  // entry now stale for this freshness
  auto again = bed.query_and_wait(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().source, ResponseSource::Groups);
}

TEST(Router, RealtimeQueriesNeverUseCache) {
  harness::Testbed bed(frozen_config(16));
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_at_least("ram_mb", 4096);  // freshness 0
  ASSERT_TRUE(bed.query_and_wait(q).ok());
  auto second = bed.query_and_wait(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().source, ResponseSource::Groups);
  EXPECT_EQ(bed.service().router().cache().hits(), 0u);
}

TEST(Router, CacheHitNearPaperLatency) {
  // Fig. 8c: cache-served responses land around 45 ms (dominated by the
  // modelled REST/JVM overhead).
  harness::Testbed bed(frozen_config(16));
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_at_least("ram_mb", 2048).fresh_within(10 * kSecond);
  ASSERT_TRUE(bed.query_and_wait(q).ok());
  auto hit = bed.query_and_wait(q);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit.value().source, ResponseSource::Cache);
  EXPECT_GT(to_millis(hit.value().latency()), 20.0);
  EXPECT_LT(to_millis(hit.value().latency()), 80.0);
}

TEST(Router, StaticOnlyQueriesServedFromStore) {
  harness::Testbed bed(frozen_config(12));
  tag_statics(bed);
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_static("arch", "arm");
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().source, ResponseSource::Store);
  EXPECT_EQ(result.value().entries.size(), 4u);  // i = 0,3,6,9
  EXPECT_GT(bed.service().router().stats().store_served, 0u);
  EXPECT_EQ(bed.service().router().stats().group_queries_sent, 0u);
}

TEST(Router, MixedQueryEvaluatesStaticTermsAtNodes) {
  harness::Testbed bed(frozen_config(12));
  tag_statics(bed);
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_at_least("ram_mb", 0).where_static("service_type", "compute");
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().source, ResponseSource::Groups);
  EXPECT_EQ(result.value().entries.size(), 6u);  // even indices
  for (const auto& entry : result.value().entries) {
    EXPECT_EQ((entry.node.value - harness::kAgentBase) % 2, 0u);
  }
}

TEST(Router, TenantUsageQuery) {
  // Table I: "Get hosts belonging to a project ID".
  harness::Testbed bed(frozen_config(12));
  tag_statics(bed);
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_static("project_id", "tenant-1");
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries.size(), 3u);  // i = 1, 5, 9
}

TEST(Router, LimitTruncatesResults) {
  harness::Testbed bed(frozen_config(24));
  bed.start();
  ASSERT_TRUE(bed.settle());

  Query q;
  q.where_at_least("ram_mb", 0).take(5);
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries.size(), 5u);
}

TEST(Router, SmallestGroupSelectionReducesFanout) {
  harness::Testbed bed(frozen_config(32));
  bed.start();
  ASSERT_TRUE(bed.settle());

  // Pin one node's vcpus into an otherwise empty bucket, making the vcpus
  // candidate set much smaller than the ram one.
  auto& outlier = bed.agent(0);
  outlier.resources().set_value("vcpus", 7.5);
  bed.run_for(10 * kSecond);  // move groups + be reported

  Query q;
  q.where_at_least("ram_mb", 0);  // matches everyone: big candidate set
  q.where("vcpus", 7.2, 8.0);     // narrow: only the top vcpus bucket
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());

  std::set<NodeId> expected;
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    if (q.matches(bed.agent(i).resources().state())) {
      expected.insert(bed.agent(i).node());
    }
  }
  std::set<NodeId> got;
  for (const auto& entry : result.value().entries) got.insert(entry.node);
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(result.value().contains(outlier.node()));
  // Routed through the single vcpus bucket, not the many ram groups. The
  // ram term alone spans every populated ram group (>= 4 buckets).
  EXPECT_LE(result.value().groups_queried, 2);
}

TEST(Router, PickSmallestTieKeepsFirstTerm) {
  // pick_smallest uses strict `<`: when two terms' candidate totals tie, the
  // FIRST term in query order wins. Pin the fleet so one term resolves to a
  // single 2-member group and the other to two 1-member groups (tied totals),
  // then check both term orders route through their own first term.
  harness::Testbed bed(frozen_config(4));
  bed.start();
  ASSERT_TRUE(bed.settle());

  // ram_mb (cutoff 2048): agents 0,1 share bucket [2048,4096); 2,3 far away.
  bed.agent(0).resources().set_value("ram_mb", 3000);
  bed.agent(1).resources().set_value("ram_mb", 3100);
  bed.agent(2).resources().set_value("ram_mb", 9000);
  bed.agent(3).resources().set_value("ram_mb", 9100);
  // vcpus (cutoff 2): agents 0,1 in two different buckets; 2,3 out of range.
  bed.agent(0).resources().set_value("vcpus", 1.0);
  bed.agent(1).resources().set_value("vcpus", 3.0);
  bed.agent(2).resources().set_value("vcpus", 7.0);
  bed.agent(3).resources().set_value("vcpus", 7.1);
  bed.run_for(10 * kSecond);  // move groups + be reported

  Query ram_first;
  ram_first.where("ram_mb", 2048, 4000).where("vcpus", 0, 3.5);

  // Precondition for the tie: 1 ram group with 2 members vs 2 vcpus groups
  // with 1 member each.
  const auto& dgm = bed.service().dgm();
  const auto ram = dgm.candidate_groups(ram_first.terms[0], std::nullopt);
  const auto vcpus = dgm.candidate_groups(ram_first.terms[1], std::nullopt);
  ASSERT_EQ(ram.groups.size(), 1u);
  ASSERT_EQ(ram.total_members, 2u);
  ASSERT_EQ(vcpus.groups.size(), 2u);
  ASSERT_EQ(vcpus.total_members, 2u);

  auto result = bed.query_and_wait(ram_first);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().groups_queried, 1);  // tie -> ram term kept
  EXPECT_EQ(result.value().entries.size(), 2u);

  Query vcpus_first;
  vcpus_first.where("vcpus", 0, 3.5).where("ram_mb", 2048, 4000);
  auto swapped = bed.query_and_wait(vcpus_first);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped.value().groups_queried, 2);  // tie -> vcpus term kept
  EXPECT_EQ(swapped.value().entries.size(), 2u);
}

TEST(Router, RouteAllTermsDeduplicatesSharedGroups) {
  // Ablation routing unions every term's candidates; overlapping terms on
  // the same attribute must not query the shared group twice. The dedup keys
  // on the packed GroupId.
  harness::TestbedConfig config = frozen_config(4);
  config.service.route_all_terms = true;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());

  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    bed.agent(i).resources().set_value("ram_mb", 3000);
  }
  bed.run_for(10 * kSecond);

  Query q;
  q.where("ram_mb", 2048, 4000);  // -> the one populated [2048,4096) group
  q.where("ram_mb", 2500, 3500);  // -> the same group again
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().groups_queried, 1);  // not 2: GroupId-deduped
  EXPECT_EQ(result.value().entries.size(), bed.num_agents());
}

TEST(Router, NoCandidateGroupsAnswersEmptyFast) {
  harness::Testbed bed(frozen_config(8));
  bed.start();
  ASSERT_TRUE(bed.settle());
  bed.run_for(15 * kSecond);  // let all transition entries expire

  Query q;
  q.where("ram_mb", 50000, 60000);  // outside every domain
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().entries.empty());
  EXPECT_GE(bed.service().router().stats().empty_routes, 1u);
  EXPECT_LT(to_millis(result.value().latency()), 200.0);
}

TEST(Router, QueryTimeoutAnswersWithPartialResults) {
  harness::TestbedConfig config = frozen_config(12);
  config.service.query_timeout = 800 * kMillisecond;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  bed.run_for(15 * kSecond);  // drain transition table

  // Freeze one group's coordinator candidates: take down every node of one
  // ram bucket so the group query goes unanswered.
  const Dgm::GroupInfo* group = nullptr;
  bed.service().dgm().for_each_group([&](const Dgm::GroupInfo& info) {
    if (group == nullptr && info.key.attr == AttrId("ram_mb") &&
        !info.members.empty()) {
      group = &info;
    }
  });
  ASSERT_NE(group, nullptr);
  group->members.for_each_member([&](const core::MemberTable::Slot& slot) {
    bed.transport().set_node_down(slot.node, true);
  });

  Query q;
  q.where("ram_mb", group->range.lo, group->range.hi - 1);
  auto result = bed.query_and_wait(q, 10 * kSecond);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().timed_out);
  EXPECT_GE(bed.service().router().stats().timeouts, 1u);
}

TEST(Router, DelegationHandsGroupsToClient) {
  harness::TestbedConfig config = frozen_config(16);
  config.service.delegation_threshold = 1;  // delegate whenever busy
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  bed.run_for(15 * kSecond);

  // Two concurrent queries: the second must be delegated.
  Query q1, q2;
  q1.where_at_least("ram_mb", 2048);
  q2.where_at_least("disk_gb", 10);
  std::optional<QueryResult> r1, r2;
  bed.client().query(q1, [&](Result<QueryResult> r) {
    ASSERT_TRUE(r.ok());
    r1 = r.value();
  });
  bed.client().query(q2, [&](Result<QueryResult> r) {
    ASSERT_TRUE(r.ok());
    r2 = r.value();
  });
  bed.run_for(8 * kSecond);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(bed.service().router().stats().delegated, 1u);
  EXPECT_EQ(bed.client().stats().delegations_handled, 1u);
  // Whichever query arrived second was delegated (WAN jitter can reorder).
  const bool r1_direct = r1->source == ResponseSource::Direct;
  const bool r2_direct = r2->source == ResponseSource::Direct;
  EXPECT_TRUE(r1_direct != r2_direct);

  // Delegated results are still sound.
  const QueryResult& delegated = r1_direct ? *r1 : *r2;
  const Query& delegated_query = r1_direct ? q1 : q2;
  for (const auto& entry : delegated.entries) {
    const auto& state =
        bed.agent(entry.node.value - harness::kAgentBase).resources().state();
    EXPECT_TRUE(delegated_query.matches(state));
  }
}

TEST(Router, TransitioningNodesReachableViaDirectPull) {
  // A node whose value just moved buckets is queried directly through the
  // transition table even before any report places it in its new group.
  harness::TestbedConfig config = frozen_config(10);
  config.service.report_interval = 60 * kSecond;  // reports essentially off
  config.sync_agent_config();
  harness::Testbed bed(config);
  bed.start();
  bed.run_for(3 * kSecond);  // registered; nodes all in transition still

  Query q;
  q.where_at_least("ram_mb", 0);
  auto result = bed.query_and_wait(q, 10 * kSecond);
  ASSERT_TRUE(result.ok());
  // All 10 nodes respond via direct pulls despite zero group knowledge.
  EXPECT_EQ(result.value().entries.size(), 10u);
  EXPECT_GT(bed.service().router().stats().node_pulls_sent, 0u);
}

TEST(Service, CpuAndRamModelRespondToLoad) {
  harness::Testbed bed(frozen_config(32));
  bed.start();
  ASSERT_TRUE(bed.settle());

  const double busy0 = bed.service().busy_cpu_us();
  const SimTime t0 = bed.now();
  for (int i = 0; i < 20; ++i) {
    Query q;
    q.where_at_least("ram_mb", 2048);
    ASSERT_TRUE(bed.query_and_wait(q).ok());
  }
  const double util =
      bed.service().utilization(busy0, bed.now() - t0);
  EXPECT_GT(util, bed.service().cost_model().baseline_utilization);
  EXPECT_LT(util, 1.0);
  EXPECT_GT(bed.service().ram_gb(), bed.service().cost_model().base_ram_gb);
  EXPECT_LT(bed.service().ram_gb(), 2.0);
}

TEST(Service, DgmRestartRecoversFromReports) {
  harness::Testbed bed(frozen_config(16));
  bed.start();
  ASSERT_TRUE(bed.settle());

  bed.service().restart_dgm();
  EXPECT_EQ(bed.service().dgm().group_count(), 0u);

  // Representatives keep reporting; primary tables repopulate (§VIII-A-2).
  bed.run_for(3 * bed.config().service.report_interval);
  EXPECT_GT(bed.service().dgm().group_count(), 0u);

  Query q;
  q.where_at_least("ram_mb", 4096);
  auto result = bed.query_and_wait(q);
  ASSERT_TRUE(result.ok());
  std::size_t expected = 0;
  for (std::size_t i = 0; i < bed.num_agents(); ++i) {
    if (q.matches(bed.agent(i).resources().state())) ++expected;
  }
  EXPECT_EQ(result.value().entries.size(), expected);
}

TEST(Client, TimesOutWhenServiceDead) {
  harness::Testbed bed(frozen_config(4));
  bed.start();
  ASSERT_TRUE(bed.settle());

  bed.transport().set_node_down(harness::kServerNode, true);
  Query q;
  q.where_at_least("ram_mb", 0);
  auto result = bed.query_and_wait(q, 20 * kSecond);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::Timeout);
  EXPECT_EQ(bed.client().stats().timeouts, 1u);
}

}  // namespace
}  // namespace focus::core
