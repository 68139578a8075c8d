// Fleet fan-out: one PolicyServer distributing to many agents on a fabric —
// set_policy_all semantics, convergence counters, distribution stats, and
// the opt-in "policy.*" metrics.
#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/topology.h"
#include "firewall/policy.h"
#include "firewall/policy_agent.h"
#include "firewall/policy_server.h"
#include "telemetry/registry.h"

namespace barb::firewall {
namespace {

constexpr int kServerHost = 0;

struct Fleet {
  sim::Simulation sim;
  std::unique_ptr<core::Fabric> fabric;
  std::vector<std::uint8_t> key;
  std::unique_ptr<PolicyServer> server;
  std::vector<net::Ipv4Address> agent_ips;
  std::vector<std::unique_ptr<PolicyAgent>> agents;

  explicit Fleet(int num_agents) : sim(1), key(32, 0x5c) {
    core::LeafSpineSpec spec;
    spec.hosts = num_agents + 1;  // host 0 = server (plain NIC)
    spec.hosts_per_leaf = 8;
    spec.spines = 2;
    spec.nic_for = [](int index) {
      core::NicSpec nic;
      nic.kind = index == kServerHost ? core::FirewallKind::kNone
                                      : core::FirewallKind::kEfw;
      return nic;
    };
    fabric = core::build_leaf_spine(sim, spec);

    server = std::make_unique<PolicyServer>(fabric->host(kServerHost), key);
    server->start();
    for (int i = 1; i <= num_agents; ++i) {
      agent_ips.push_back(fabric->host(i).ip());
      agents.push_back(std::make_unique<PolicyAgent>(
          fabric->host(i), *fabric->firewall(i),
          fabric->host(kServerHost).ip(), key));
      agents.back()->start_after(sim::Duration::milliseconds(1) +
                                 sim::Duration::microseconds(137) * (i - 1));
    }
  }
};

TEST(PolicyFanout, SetPolicyAllReachesEveryAgent) {
  Fleet fleet(12);
  fleet.server->set_policy_all(fleet.agent_ips,
                               "default deny\nallow tcp from any to any\n");
  fleet.sim.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(fleet.server->count_connected(), 12u);
  EXPECT_EQ(fleet.server->count_acked_at_least(1), 12u);
  for (const auto& agent : fleet.agents) {
    EXPECT_TRUE(agent->connected());
    EXPECT_EQ(agent->stats().policies_applied, 1u);
    EXPECT_EQ(agent->stats().last_version, 1u);
  }
  // Every NIC in the fleet now enforces the pushed rule-set.
  for (int i = 1; i <= 12; ++i) {
    ASSERT_NE(fleet.fabric->firewall(i), nullptr);
    EXPECT_EQ(fleet.fabric->firewall(i)->rule_set().size(), 1u);
  }
}

TEST(PolicyFanout, RePushAdvancesEveryAgentVersion) {
  Fleet fleet(8);
  fleet.server->set_policy_all(fleet.agent_ips, "default allow\n");
  fleet.sim.run_for(sim::Duration::seconds(2));
  ASSERT_EQ(fleet.server->count_acked_at_least(1), 8u);
  EXPECT_EQ(fleet.server->count_acked_at_least(2), 0u);

  // A fleet-wide re-push: every connected session gets a synchronous push.
  // The new policy must keep management TCP open — a bare "default deny"
  // would firewall the agent's own ack path (the paper's self-cutoff).
  const std::optional<std::size_t> pushed = fleet.server->set_policy_all(
      fleet.agent_ips,
      "default deny\nallow tcp from any to any\n"
      "allow udp from any to any port 53\n");
  ASSERT_TRUE(pushed.has_value());
  EXPECT_EQ(*pushed, 8u);
  fleet.sim.run_for(sim::Duration::seconds(2));
  EXPECT_EQ(fleet.server->count_acked_at_least(2), 8u);
  for (const auto& agent : fleet.agents) {
    EXPECT_EQ(agent->stats().policies_applied, 2u);
  }
}

TEST(PolicyFanout, ConvergenceCounterIsMonotonicPerVersion) {
  Fleet fleet(8);
  fleet.server->set_policy_all(fleet.agent_ips, "default allow\n");
  // count_acked_at_least(v) must never exceed the count for v-1.
  std::size_t last_v1 = 0;
  fleet.sim.schedule_every(sim::Duration::milliseconds(10), [&] {
    const auto v1 = fleet.server->count_acked_at_least(1);
    ASSERT_GE(v1, last_v1);  // monotonic while pushes only move forward
    ASSERT_LE(fleet.server->count_acked_at_least(2), v1);
    last_v1 = v1;
  });
  fleet.sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(2));
  EXPECT_EQ(last_v1, 8u);
}

TEST(PolicyFanout, DistributionStatsAccumulate) {
  Fleet fleet(6);
  fleet.server->set_policy_all(fleet.agent_ips, "default allow\n");
  fleet.sim.run_for(sim::Duration::seconds(5));

  const PolicyServerStats& stats = fleet.server->stats();
  EXPECT_EQ(stats.hellos, 6u);
  EXPECT_EQ(stats.pushes, 6u);  // one push per enrollment
  EXPECT_GT(stats.push_bytes, 0u);
  EXPECT_EQ(stats.acks, 6u);
  // ~4 heartbeat intervals elapsed for each of the 6 agents.
  EXPECT_GE(stats.heartbeats, 6u * 3u);
  EXPECT_EQ(stats.corrupted_streams, 0u);

  fleet.server->set_policy_all(fleet.agent_ips,
                               "default deny\nallow tcp from any to any\n");
  fleet.sim.run_for(sim::Duration::seconds(1));
  EXPECT_EQ(fleet.server->stats().pushes, 12u);
  EXPECT_EQ(fleet.server->stats().acks, 12u);
}

TEST(PolicyFanout, MetricsExposeDistributionState) {
  Fleet fleet(5);
  telemetry::MetricRegistry registry;
  fleet.server->register_metrics(registry, "host=server");
  EXPECT_EQ(registry.value("policy.connected", "host=server"), 0.0);

  fleet.server->set_policy_all(fleet.agent_ips, "default allow\n");
  fleet.sim.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(registry.value("policy.connected", "host=server"), 5.0);
  EXPECT_EQ(registry.value("policy.pushes", "host=server"), 5.0);
  EXPECT_EQ(registry.value("policy.acks", "host=server"), 5.0);
  EXPECT_GT(registry.value("policy.push_bytes", "host=server"), 0.0);
}

TEST(PolicyFanout, StaggeredStartDelaysFirstConnect) {
  Fleet fleet(3);
  // start_after was used with 1ms base stagger: nobody connects at t=0.
  EXPECT_EQ(fleet.server->count_connected(), 0u);
  fleet.sim.run_for(sim::Duration::microseconds(500));
  EXPECT_EQ(fleet.server->count_connected(), 0u);
  fleet.sim.run_for(sim::Duration::seconds(1));
  EXPECT_EQ(fleet.server->count_connected(), 3u);
}

// Agents share one immutable parse of identical policy text.

constexpr const char* kSharedText =
    "default deny\nallow tcp from any to any\nallow udp from any to any port 53\n";

TEST(PolicyFanout, SameTextSharesOneRuleSet) {
  const std::size_t before = shared_policy_count();
  Fleet fleet(6);
  fleet.server->set_policy_all(fleet.agent_ips, kSharedText);
  fleet.sim.run_for(sim::Duration::seconds(2));
  ASSERT_EQ(fleet.server->count_acked_at_least(1), 6u);

  const RuleSet* shared = &fleet.fabric->firewall(1)->rule_set();
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(&fleet.fabric->firewall(i)->rule_set(), shared) << "agent " << i;
  }
  EXPECT_EQ(shared_policy_count(), before + 1);
  EXPECT_EQ(shared->size(), 2u);
}

TEST(PolicyFanout, RePushToOneAgentLeavesTheOthersUntouched) {
  Fleet fleet(4);
  fleet.server->set_policy_all(fleet.agent_ips, kSharedText);
  fleet.sim.run_for(sim::Duration::seconds(2));
  ASSERT_EQ(fleet.server->count_acked_at_least(1), 4u);
  const RuleSet* shared = &fleet.fabric->firewall(1)->rule_set();
  const std::string shared_form = shared->to_string();

  const std::string other = "default deny\nallow tcp from any to any\n";
  ASSERT_TRUE(fleet.server->set_policy(fleet.agent_ips[0], other));
  fleet.sim.run_for(sim::Duration::seconds(1));

  EXPECT_EQ(fleet.agents[0]->stats().last_version, 2u);
  EXPECT_NE(&fleet.fabric->firewall(1)->rule_set(), shared);
  EXPECT_EQ(fleet.fabric->firewall(1)->rule_set().to_string(),
            parse_policy(other).rule_set->to_string());
  for (int i = 2; i <= 4; ++i) {
    EXPECT_EQ(fleet.agents[static_cast<std::size_t>(i - 1)]->stats().last_version, 1u);
    EXPECT_EQ(&fleet.fabric->firewall(i)->rule_set(), shared);
    EXPECT_EQ(fleet.fabric->firewall(i)->rule_set().to_string(), shared_form);
  }
}

TEST(PolicyFanout, TableEntryGoesWithTheLastCard) {
  const std::size_t before = shared_policy_count();
  {
    Fleet fleet(3);
    fleet.server->set_policy_all(fleet.agent_ips, kSharedText);
    fleet.sim.run_for(sim::Duration::seconds(2));
    ASSERT_EQ(fleet.server->count_acked_at_least(1), 3u);
    EXPECT_EQ(shared_policy_count(), before + 1);

    // Every card moves to another policy: the first one's entry goes.
    fleet.server->set_policy_all(fleet.agent_ips, "default deny\nallow tcp from any to any\n");
    fleet.sim.run_for(sim::Duration::seconds(1));
    ASSERT_EQ(fleet.server->count_acked_at_least(2), 3u);
    EXPECT_EQ(shared_policy_count(), before + 1);
  }
  // The fleet is gone, and with it the last holder of the second policy.
  EXPECT_EQ(shared_policy_count(), before);
}

// Sweep workers run simulations on several threads; both fleets below push
// the same text through the one process-wide table (the TSan lane runs this).
TEST(PolicyFanout, TwoSimulationsOnTwoThreadsShareTheTable) {
  const std::size_t before = shared_policy_count();
  std::array<const RuleSet*, 2> installed{};
  std::array<std::size_t, 2> acked{};
  std::latch both_pushed(2);
  auto run = [&](std::size_t k) {
    Fleet fleet(4);
    fleet.server->set_policy_all(fleet.agent_ips, kSharedText);
    fleet.sim.run_for(sim::Duration::seconds(2));
    acked[k] = fleet.server->count_acked_at_least(1);
    installed[k] = &fleet.fabric->firewall(1)->rule_set();
    both_pushed.arrive_and_wait();  // keep this fleet's holders alive until both pushed
  };
  std::thread t0(run, 0);
  std::thread t1(run, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(acked[0], 4u);
  EXPECT_EQ(acked[1], 4u);
  EXPECT_EQ(installed[0], installed[1]);
  EXPECT_EQ(shared_policy_count(), before);
}

}  // namespace
}  // namespace barb::firewall
