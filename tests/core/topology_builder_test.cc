// TopologyBuilder and the fabric presets: deterministic construction,
// fabric invariants (routes, switch/host counts, shared directory), actual
// cross-fabric reachability, and the Testbed preset's wiring equivalence.
#include "core/topology.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/ping.h"
#include "core/testbed.h"
#include "sim/simulation.h"

namespace barb::core {
namespace {

// A compact wiring digest: anything that should be a pure function of the
// spec (names, addresses, attachment, routing) folded into one string.
std::string wiring_digest(Fabric& fabric) {
  std::string digest;
  for (int i = 0; i < fabric.num_hosts(); ++i) {
    digest += fabric.host(i).name() + "/" + fabric.host(i).ip().to_string() +
              "/" + fabric.host(i).mac().to_string() + "@" +
              std::to_string(fabric.host_switch(i)) + ";";
  }
  for (int s = 0; s < fabric.num_switches(); ++s) {
    link::Switch& sw = fabric.fabric_switch(s);
    digest += sw.name() + ":" + std::to_string(sw.num_ports()) + ":" +
              std::to_string(sw.fib_size()) + ";";
    // Route rows: every host's egress port out of this switch.
    for (int h = 0; h < fabric.num_hosts(); ++h) {
      digest += std::to_string(sw.lookup(fabric.host(h).mac())) + ",";
    }
    digest += ";";
  }
  return digest;
}

TEST(TopologyBuilder, LeafSpineSameSpecSameWiring) {
  LeafSpineSpec spec;
  spec.hosts = 48;
  spec.hosts_per_leaf = 8;
  spec.spines = 3;

  sim::Simulation sim_a(1), sim_b(2);  // wiring must not depend on the seed
  auto a = build_leaf_spine(sim_a, spec);
  auto b = build_leaf_spine(sim_b, spec);
  EXPECT_EQ(wiring_digest(*a), wiring_digest(*b));
}

TEST(TopologyBuilder, LeafSpineInvariants) {
  LeafSpineSpec spec;
  spec.hosts = 40;  // deliberately not a multiple of hosts_per_leaf
  spec.hosts_per_leaf = 16;
  spec.spines = 2;
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);

  EXPECT_EQ(fabric->num_hosts(), 40);
  // ceil(40/16)=3 leaves + 2 spines.
  EXPECT_EQ(fabric->num_switches(), 5);
  EXPECT_TRUE(fabric->all_hosts_routed());
  ASSERT_NE(fabric->directory(), nullptr);
  EXPECT_TRUE(fabric->directory()->frozen());
  EXPECT_EQ(fabric->directory()->size(), 40u);

  // Port degrees: each spine has one trunk per leaf; each leaf has one trunk
  // per spine plus its hosts.
  EXPECT_EQ(fabric->fabric_switch(0).num_ports(), 3);  // spine0: 3 leaves
  EXPECT_EQ(fabric->fabric_switch(1).num_ports(), 3);
  EXPECT_EQ(fabric->fabric_switch(2).num_ports(), 2 + 16);  // leaf0
  EXPECT_EQ(fabric->fabric_switch(3).num_ports(), 2 + 16);  // leaf1
  EXPECT_EQ(fabric->fabric_switch(4).num_ports(), 2 + 8);   // leaf2: remainder

  // Hosts land on their leaf in declaration order.
  EXPECT_EQ(fabric->host_switch(0), 2);
  EXPECT_EQ(fabric->host_switch(15), 2);
  EXPECT_EQ(fabric->host_switch(16), 3);
  EXPECT_EQ(fabric->host_switch(39), 4);

  // Fabric switches must not learn or flood (redundant paths).
  EXPECT_FALSE(fabric->fabric_switch(0).config().learning);
  EXPECT_FALSE(fabric->fabric_switch(0).config().flood_unknown);
}

TEST(TopologyBuilder, CampusTreeInvariants) {
  CampusTreeSpec spec;
  spec.hosts = 20;
  spec.hosts_per_edge = 8;
  sim::Simulation sim(1);
  auto fabric = build_campus_tree(sim, spec);

  EXPECT_EQ(fabric->num_hosts(), 20);
  EXPECT_EQ(fabric->num_switches(), 1 + 3);  // core + ceil(20/8) edges
  EXPECT_TRUE(fabric->all_hosts_routed());
  EXPECT_EQ(fabric->fabric_switch(0).num_ports(), 3);  // core: one per edge
}

TEST(TopologyBuilder, CrossFabricPingWorks) {
  LeafSpineSpec spec;
  spec.hosts = 32;
  spec.hosts_per_leaf = 8;
  spec.spines = 2;
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);

  // Host 0 (leaf 0) pings host 31 (last leaf) across the spine.
  apps::PingClient ping(fabric->host(0), fabric->host(31).ip());
  apps::PingResult result;
  ping.run(5, [&](apps::PingResult r) { result = r; },
           sim::Duration::milliseconds(10));
  sim.run();
  EXPECT_EQ(result.sent, 5u);
  EXPECT_EQ(result.received, 5u);
  EXPECT_EQ(result.loss_fraction, 0.0);
}

TEST(TopologyBuilder, MemoryAuditCoversEveryHost) {
  LeafSpineSpec spec;
  spec.hosts = 64;
  spec.default_nic.kind = FirewallKind::kAdf;
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);

  const MemoryAudit audit = fabric->memory_audit();
  EXPECT_EQ(audit.hosts, 64u);
  EXPECT_GT(audit.directory_bytes, 0u);
  EXPECT_GT(audit.switch_fib_bytes, 0u);
  EXPECT_GT(audit.host_object_bytes, 0u);
  EXPECT_GT(audit.per_host_bytes(), 0u);

  // Shared directory: per-host private ARP stays O(1), independent of fleet
  // size (a full mesh would grow it linearly with the host count).
  LeafSpineSpec small = spec;
  small.hosts = 16;
  sim::Simulation sim_small(1);
  auto fabric_small = build_leaf_spine(sim_small, small);
  EXPECT_EQ(audit.arp_private_bytes / 64,
            fabric_small->memory_audit().arp_private_bytes / 16);
}

TEST(TopologyBuilder, MemoryAuditCountsASharedRuleSetOnce) {
  LeafSpineSpec spec;
  spec.hosts = 1024;
  spec.default_nic.kind = FirewallKind::kEfw;
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);

  std::vector<firewall::Rule> rules(5000);
  const auto shared = std::make_shared<const firewall::RuleSet>(rules);
  for (int i = 0; i < fabric->num_hosts(); ++i) fabric->firewall(i)->install_rule_set(shared);
  const MemoryAudit audit = fabric->memory_audit();
  EXPECT_EQ(audit.rule_set_bytes, shared->memory_bytes());
  EXPECT_GE(audit.rule_set_bytes, 5000 * sizeof(firewall::Rule));
  EXPECT_EQ(audit.flow_cache_bytes, 0u);  // caches allocate on first insert
  EXPECT_EQ(audit.total_bytes(),
            audit.directory_bytes + audit.arp_private_bytes + audit.switch_fib_bytes +
                audit.flow_state_bytes + audit.flow_cache_bytes + audit.rule_set_bytes +
                audit.host_object_bytes);

  // Private copies of the same rules count once per card.
  for (int i = 0; i < 4; ++i) fabric->firewall(i)->install_rule_set(firewall::RuleSet(rules));
  EXPECT_EQ(fabric->memory_audit().rule_set_bytes, 5 * shared->memory_bytes());
}

TEST(TopologyBuilder, PerHostNicProfilesApply) {
  LeafSpineSpec spec;
  spec.hosts = 8;
  spec.nic_for = [](int index) {
    NicSpec nic;
    nic.kind = index % 2 == 0 ? FirewallKind::kEfw : FirewallKind::kNone;
    return nic;
  };
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      EXPECT_NE(fabric->firewall(i), nullptr) << "host " << i;
    } else {
      EXPECT_EQ(fabric->firewall(i), nullptr) << "host " << i;
    }
  }
}

TEST(TopologyBuilder, FleetMetricsRegisterAndSample) {
  LeafSpineSpec spec;
  spec.hosts = 16;
  sim::Simulation sim(1);
  telemetry::MetricRegistry registry;
  auto fabric = build_leaf_spine(sim, spec);
  fabric->register_fleet_metrics(registry);
  EXPECT_EQ(registry.value("fleet.hosts"), 16.0);
  EXPECT_GT(registry.value("mem.per_host_bytes"), 0.0);
  EXPECT_GT(registry.value("mem.total_bytes"), 0.0);
  EXPECT_GT(registry.value("switch.fib_entries", "switch=spine0"), 0.0);
}

// The Testbed preset must still wire the paper's Figure 1 exactly: four
// hosts in the legacy order on one switch, legacy addresses and labels.
TEST(TopologyBuilder, TestbedPresetKeepsLegacyWiring) {
  sim::Simulation sim(1);
  TestbedConfig config;
  config.firewall = FirewallKind::kAdf;
  Testbed testbed(sim, config);

  Fabric& fabric = testbed.fabric();
  EXPECT_EQ(fabric.num_switches(), 1);
  EXPECT_EQ(fabric.num_hosts(), 4);
  EXPECT_EQ(fabric.host(0).name(), "policy");
  EXPECT_EQ(fabric.host(1).name(), "attacker");
  EXPECT_EQ(fabric.host(2).name(), "client");
  EXPECT_EQ(fabric.host(3).name(), "target");
  EXPECT_EQ(&testbed.policy_host(), &fabric.host(0));
  EXPECT_EQ(&testbed.target(), &fabric.host(3));
  EXPECT_EQ(testbed.target_firewall(), fabric.firewall(3));
  // Address resolution goes through the shared directory, as on fleets:
  // each host privately holds only its own binding.
  ASSERT_NE(fabric.directory(), nullptr);
  for (int i = 0; i < fabric.num_hosts(); ++i) EXPECT_EQ(fabric.host(i).arp().size(), 1u);
  EXPECT_EQ(testbed.target().arp().lookup(testbed.addresses().client),
            testbed.client().mac());
  // The testbed switch keeps the classic learning/flooding behaviour.
  EXPECT_TRUE(testbed.ethernet_switch().config().learning);
  EXPECT_TRUE(testbed.ethernet_switch().config().flood_unknown);
}

// There is one link-delivery engine: the leaf-spine preset accepts
// batched_links = true (the default) and refuses false.
TEST(TopologyBuilder, LeafSpineRejectsPerFrameLinks) {
  sim::Simulation sim(1);
  LeafSpineSpec spec;
  spec.hosts = 4;
  EXPECT_EQ(build_leaf_spine(sim, spec)->num_hosts(), 4);
  spec.batched_links = false;
  EXPECT_THROW(build_leaf_spine(sim, spec), std::invalid_argument);
}

}  // namespace
}  // namespace barb::core
