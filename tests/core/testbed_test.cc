#include "core/testbed.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "firewall/policy.h"
#include "stack/udp.h"

namespace barb::core {
namespace {

TEST(Testbed, BuildsFigureOneTopology) {
  sim::Simulation sim(1);
  TestbedConfig cfg;
  Testbed tb(sim, cfg);

  EXPECT_EQ(tb.ethernet_switch().num_ports(), 4);
  EXPECT_EQ(tb.policy_host().ip(), tb.addresses().policy_server);
  EXPECT_EQ(tb.attacker().ip(), tb.addresses().attacker);
  EXPECT_EQ(tb.client().ip(), tb.addresses().client);
  EXPECT_EQ(tb.target().ip(), tb.addresses().target);
  EXPECT_EQ(tb.target_firewall(), nullptr);
  EXPECT_EQ(tb.software_firewall(), nullptr);

  // Every host can reach every other (ARP + switch learning + stacks).
  auto* s = tb.target().udp_open(9999);
  int received = 0;
  s->set_receiver([&](net::Ipv4Address, std::uint16_t, std::span<const std::uint8_t>) {
    ++received;
  });
  const std::vector<std::uint8_t> data{1, 2, 3};
  auto* c = tb.client().udp_open(0);
  c->send_to(tb.addresses().target, 9999, data);
  auto* a = tb.attacker().udp_open(0);
  a->send_to(tb.addresses().target, 9999, data);
  sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Testbed, EfwTargetGetsFirewallNic) {
  sim::Simulation sim(1);
  TestbedConfig cfg;
  cfg.firewall = FirewallKind::kEfw;
  cfg.action_rule_depth = 8;
  Testbed tb(sim, cfg);

  ASSERT_NE(tb.target_firewall(), nullptr);
  EXPECT_EQ(tb.target_firewall()->profile().name, "EFW");
  // Depth 8 => 8 rules in the installed set (7 padding + action).
  EXPECT_EQ(tb.target_firewall()->rule_set().size(), 8u);
  EXPECT_EQ(tb.target_firewall()->rule_set().total_cost_units(), 8);
}

TEST(Testbed, AdfVpgConfiguresBothEnds) {
  sim::Simulation sim(1);
  TestbedConfig cfg;
  cfg.firewall = FirewallKind::kAdfVpg;
  cfg.action_rule_depth = 3;
  Testbed tb(sim, cfg);

  ASSERT_NE(tb.target_firewall(), nullptr);
  EXPECT_EQ(tb.target_firewall()->profile().name, "ADF");
  // 3 VPGs: 2 padding + 1 matching; cost 6 units.
  EXPECT_EQ(tb.target_firewall()->rule_set().size(), 3u);
  EXPECT_EQ(tb.target_firewall()->rule_set().total_cost_units(), 6);
  EXPECT_TRUE(tb.target_firewall()->vpg_table().has(kExperimentVpgId));
  // VPG hosts reduce MSS to fit encapsulation.
  EXPECT_EQ(tb.target().config().mss, 1460 - 32);
  EXPECT_EQ(tb.client().config().mss, 1460 - 32);
}

TEST(Testbed, IptablesInstallsHostFilter) {
  sim::Simulation sim(1);
  TestbedConfig cfg;
  cfg.firewall = FirewallKind::kIptables;
  cfg.action_rule_depth = 16;
  Testbed tb(sim, cfg);
  ASSERT_NE(tb.software_firewall(), nullptr);
  EXPECT_EQ(tb.software_firewall()->rule_set().size(), 16u);
  EXPECT_EQ(tb.target_firewall(), nullptr);
}

TEST(Testbed, PolicyTextMatchesDepthSemantics) {
  TestbedConfig cfg;
  cfg.firewall = FirewallKind::kEfw;
  cfg.action_rule_depth = 4;
  TestbedAddresses addr;
  const auto text = make_target_policy(cfg, addr);
  auto parsed = firewall::parse_policy(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.rule_set->size(), 4u);

  // Experiment traffic (client -> target TCP) must match the 4th rule.
  net::FiveTuple t;
  t.src = addr.client;
  t.dst = addr.target;
  t.src_port = 40000;
  t.dst_port = 5001;
  t.protocol = 6;
  const auto m = parsed.rule_set->match(t);
  EXPECT_EQ(m.action, firewall::RuleAction::kAllow);
  EXPECT_EQ(m.rules_traversed, 4);
}

TEST(Testbed, DenyPolicyDeniesFloodAllowsRest) {
  TestbedConfig cfg;
  cfg.firewall = FirewallKind::kAdf;
  cfg.action_rule_depth = 8;
  cfg.flood_action = firewall::RuleAction::kDeny;
  TestbedAddresses addr;
  auto parsed = firewall::parse_policy(make_target_policy(cfg, addr));
  ASSERT_TRUE(parsed.ok());

  net::FiveTuple flood;
  flood.src = addr.attacker;
  flood.dst = addr.target;
  flood.src_port = 4000;
  flood.dst_port = kFloodPort;
  flood.protocol = 6;
  const auto fm = parsed.rule_set->match(flood);
  EXPECT_EQ(fm.action, firewall::RuleAction::kDeny);
  EXPECT_EQ(fm.rules_traversed, 8);

  net::FiveTuple iperf;
  iperf.src = addr.client;
  iperf.dst = addr.target;
  iperf.src_port = 40000;
  iperf.dst_port = 5001;
  iperf.protocol = 6;
  const auto im = parsed.rule_set->match(iperf);
  EXPECT_EQ(im.action, firewall::RuleAction::kAllow);
  EXPECT_EQ(im.rules_traversed, 9);  // one past the deny rule
}

TEST(Testbed, PaddingRulesNeverMatchExperimentTraffic) {
  TestbedConfig cfg;
  cfg.firewall = FirewallKind::kEfw;
  cfg.action_rule_depth = 64;
  TestbedAddresses addr;
  auto parsed = firewall::parse_policy(make_target_policy(cfg, addr));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.rule_set->size(), 64u);

  // All testbed endpoints and ports hit only the final action rule.
  for (auto src : {addr.policy_server, addr.attacker, addr.client, addr.target}) {
    for (std::uint16_t port : {std::uint16_t{80}, std::uint16_t{5001}, kFloodPort}) {
      net::FiveTuple t;
      t.src = src;
      t.dst = addr.target;
      t.src_port = 12345;
      t.dst_port = port;
      t.protocol = 6;
      const auto m = parsed.rule_set->match(t);
      EXPECT_EQ(m.rules_traversed, 64) << src.to_string() << ":" << port;
      EXPECT_EQ(m.action, firewall::RuleAction::kAllow);
    }
  }
}

TEST(Testbed, DirectAndManagedPoliciesAgree) {
  // The policy text installed directly must equal what the server pushes.
  TestbedConfig direct;
  direct.firewall = FirewallKind::kAdf;
  direct.action_rule_depth = 16;
  sim::Simulation sim1(1);
  Testbed tb1(sim1, direct);

  TestbedConfig managed = direct;
  managed.use_policy_server = true;
  sim::Simulation sim2(1);
  Testbed tb2(sim2, managed);
  tb2.settle();

  EXPECT_EQ(tb1.target_policy_text(), tb2.target_policy_text());
  EXPECT_EQ(tb1.target_firewall()->rule_set().to_string(),
            tb2.target_firewall()->rule_set().to_string());
}

TEST(Testbed, SettleIsNoopInDirectMode) {
  sim::Simulation sim(1);
  TestbedConfig cfg;
  cfg.firewall = FirewallKind::kEfw;
  Testbed tb(sim, cfg);
  tb.settle();
  EXPECT_EQ(sim.now(), sim::TimePoint::origin());
}

// Only the serial event engine exists: des_shards 0 and 1 build the
// ordinary testbed, anything larger is refused with a message naming the
// field instead of being silently ignored.
TEST(Testbed, DesShardsAboveOneIsRejected) {
  for (int shards : {0, 1}) {
    sim::Simulation sim(1);
    TestbedConfig cfg;
    cfg.des_shards = shards;
    Testbed tb(sim, cfg);
    EXPECT_EQ(tb.fabric().num_hosts(), 4) << "des_shards=" << shards;
  }
  sim::Simulation sim(1);
  TestbedConfig cfg;
  cfg.des_shards = 2;
  try {
    Testbed tb(sim, cfg);
    FAIL() << "Testbed accepted des_shards = 2";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("des_shards = 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("serial"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace barb::core
