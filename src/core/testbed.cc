#include "core/testbed.h"

#include <stdexcept>

#include "core/runner.h"
#include "firewall/policy.h"
#include "net/frame_buffer.h"
#include "net/vpg_header.h"
#include "util/assert.h"
#include "util/logging.h"

namespace barb::core {

namespace {

// Shared deployment key authenticating policy-distribution traffic.
const std::vector<std::uint8_t> kDeploymentKey(32, 0x5c);

// Padding rules that can never match testbed traffic (the testbed lives in
// 10.0.0.0/8; padding selectors sit in 192.168.0.0/16).
std::string padding_rule(int i) {
  return "deny tcp from 192.168." + std::to_string(i / 200) + "." +
         std::to_string(i % 200 + 1) + " to 192.168.250.1\n";
}

std::string padding_vpg(int i) {
  return "vpg " + std::to_string(100 + i) + " between 192.168.10." +
         std::to_string(i % 250 + 1) + " and 192.168.20." +
         std::to_string(i % 250 + 1) + "\n";
}

}  // namespace

std::string make_target_policy(const TestbedConfig& config,
                               const TestbedAddresses& addr) {
  BARB_ASSERT(config.action_rule_depth >= 1);
  std::string policy = "default deny\n";

  if (config.firewall == FirewallKind::kAdfVpg) {
    // Depth counts VPGs: (k-1) non-matching groups above the matching one.
    for (int i = 1; i < config.action_rule_depth; ++i) policy += padding_vpg(i);
    policy += "vpg " + std::to_string(kExperimentVpgId) + " between " +
              addr.client.to_string() + " and " + addr.target.to_string() + "\n";
    return policy;
  }

  if (config.deny_attacker_first) {
    // Early-deny layout: the attacker's real address is blocked at rule 1;
    // everything else (including spoofed flood packets) walks the padding
    // to the catch-all at the configured depth.
    policy += "deny any from " + addr.attacker.to_string() + " to " +
              addr.target.to_string() + "\n";
    for (int i = 2; i < config.action_rule_depth; ++i) policy += padding_rule(i);
    policy += "allow any from any to any\n";
    return policy;
  }

  for (int i = 1; i < config.action_rule_depth; ++i) policy += padding_rule(i);
  if (config.flood_action == firewall::RuleAction::kDeny) {
    // Action rule denies the attacker's traffic; legitimate traffic is
    // admitted by the catch-all immediately after (rules past the action
    // rule do not affect the flood, per the paper's observation).
    policy += "deny any from " + addr.attacker.to_string() + " to " +
              addr.target.to_string() + "\n";
    policy += "allow any from any to any\n";
  } else {
    policy += "allow any from any to any\n";
  }
  return policy;
}

std::string make_client_vpg_policy(const TestbedAddresses& addr) {
  return "default deny\nvpg " + std::to_string(kExperimentVpgId) + " between " +
         addr.client.to_string() + " and " + addr.target.to_string() + "\n";
}

Testbed::Testbed(sim::Simulation& sim, const TestbedConfig& config)
    : sim_(sim), config_(config) {
  if (config_.des_shards > 1) {
    throw std::invalid_argument(
        "TestbedConfig::des_shards = " + std::to_string(config_.des_shards) +
        ": only the serial event engine exists (use 0 or 1)");
  }
  build_hosts();
  install_fault_injectors();
  install_policies();
}

Testbed::~Testbed() = default;

void Testbed::build_hosts() {
  const bool vpg = config_.firewall == FirewallKind::kAdfVpg;
  stack::HostConfig default_cfg;
  stack::HostConfig vpg_cfg;
  // Leave headroom for VPG encapsulation so tunneled frames fit the MTU.
  vpg_cfg.mss = static_cast<std::uint16_t>(default_cfg.mss - net::VpgHeader::kOverhead);

  // The testbed switch (3C16734A class) has deep per-port buffering; a
  // shallow egress queue would punish TCP under flood contention far more
  // than the real testbed did.
  link::LinkConfig link_cfg;
  link_cfg.queue_bytes = 768 * 1024;

  TopologyBuilder builder(sim_);
  // The preset keeps the default learning switch (byte-identity with the
  // wiring it replaced); fleet fabrics preload FIBs instead.
  const int sw = builder.add_switch("switch");

  // Policy server host (the testbed's Windows 2000 box) and attacker use
  // plain NICs. Hosts attach in the legacy order: policy, attacker, client,
  // target — switch port numbering and metric labels depend on it.
  HostSpec policy_spec;
  policy_spec.name = "policy";
  policy_spec.ip = addr_.policy_server;
  policy_spec.mac = net::MacAddress::from_host_id(10);
  policy_spec.host_config = default_cfg;
  builder.add_host(policy_spec, sw, link_cfg);

  HostSpec attacker_spec;
  attacker_spec.name = "attacker";
  attacker_spec.ip = addr_.attacker;
  attacker_spec.mac = net::MacAddress::from_host_id(20);
  attacker_spec.host_config = default_cfg;
  builder.add_host(attacker_spec, sw, link_cfg);

  // Client: plain NIC except in VPG mode (both tunnel ends need an ADF).
  HostSpec client_spec;
  client_spec.name = "client";
  client_spec.ip = addr_.client;
  client_spec.mac = net::MacAddress::from_host_id(30);
  if (vpg) {
    client_spec.nic.kind = FirewallKind::kAdfVpg;
    client_spec.nic.backend = config_.match_backend;
    client_spec.nic.profile_override = config_.profile_override;
    client_spec.nic_label = "client/adf";
    client_spec.host_config = vpg_cfg;
  } else {
    client_spec.host_config = default_cfg;
  }
  builder.add_host(client_spec, sw, link_cfg);

  // Target: device under test.
  HostSpec target_spec;
  target_spec.name = "target";
  target_spec.ip = addr_.target;
  target_spec.mac = net::MacAddress::from_host_id(40);
  target_spec.nic.kind = config_.firewall;
  target_spec.nic.backend = config_.match_backend;
  target_spec.nic.profile_override = config_.profile_override;
  target_spec.nic.flood_guard = config_.flood_guard;
  target_spec.host_config = vpg ? vpg_cfg : default_cfg;
  builder.add_host(target_spec, sw, link_cfg);

  fabric_ = builder.build();
  policy_host_ = &fabric_->host(0);
  attacker_ = &fabric_->host(1);
  client_ = &fabric_->host(2);
  target_ = &fabric_->host(3);
  client_fw_ = fabric_->firewall(2);
  target_fw_ = fabric_->firewall(3);
}

void Testbed::install_fault_injectors() {
  if (!config_.fault_profile || !config_.fault_profile->enabled()) return;
  // Link order matches build_hosts(): policy, attacker, client, target.
  static const char* kNames[] = {"policy", "attacker", "client", "target"};
  for (std::size_t i = 0; i < static_cast<std::size_t>(fabric_->num_hosts()) && i < 4;
       ++i) {
    if (i == 0 && !config_.fault_policy_link) continue;
    // Each direction gets an independent stream: port index 2i for the
    // host-side transmitter, 2i+1 for the switch side. derive_point_seed is
    // the frozen sweep mix, salted so the streams never collide with the
    // per-point simulation seeds themselves.
    constexpr std::uint64_t kFaultSalt = 0xfa17fa17fa17fa17ULL;
    for (int side = 0; side < 2; ++side) {
      auto injector = std::make_unique<link::FaultInjector>(
          *config_.fault_profile,
          derive_point_seed(config_.seed ^ kFaultSalt, 2 * i + side));
      link::Link& link = fabric_->host_link(static_cast<int>(i));
      link::LinkPort& port = side == 0 ? link.a() : link.b();
      port.set_fault_injector(injector.get());
      fault_labels_.push_back(std::string("link=") + kNames[i] +
                              ",side=" + (side == 0 ? "host" : "switch"));
      fault_injectors_.push_back(std::move(injector));
    }
  }
}

void Testbed::install_policies() {
  target_policy_ = make_target_policy(config_, addr_);

  if (config_.firewall == FirewallKind::kIptables) {
    firewall::SoftwareFirewallConfig sw_cfg;
    sw_cfg.backend = config_.match_backend;
    iptables_ = std::make_unique<firewall::SoftwareFirewall>(sim_, sw_cfg);
    auto parsed = firewall::parse_policy(target_policy_);
    BARB_ASSERT_MSG(parsed.ok(), "generated iptables policy must parse");
    iptables_->install_rule_set(std::move(*parsed.rule_set));
    target_->set_packet_filter(iptables_.get());
    return;
  }
  if (target_fw_ == nullptr) return;  // kNone

  target_fw_->set_management_peer(addr_.policy_server);
  if (client_fw_ != nullptr) client_fw_->set_management_peer(addr_.policy_server);

  if (config_.use_policy_server) {
    policy_server_ = std::make_unique<firewall::PolicyServer>(*policy_host_,
                                                              kDeploymentKey);
    policy_server_->start();
    policy_server_->set_policy(addr_.target, target_policy_);
    target_agent_ = std::make_unique<firewall::PolicyAgent>(
        *target_, *target_fw_, addr_.policy_server, kDeploymentKey);
    target_agent_->start();
    if (config_.firewall == FirewallKind::kAdfVpg) {
      policy_server_->set_policy(addr_.client, make_client_vpg_policy(addr_));
      policy_server_->create_vpg(kExperimentVpgId, addr_.client, addr_.target);
      client_agent_ = std::make_unique<firewall::PolicyAgent>(
          *client_, *client_fw_, addr_.policy_server, kDeploymentKey);
      client_agent_->start();
    }
    return;
  }

  // Direct installation (fast path for benches and unit tests).
  auto parsed = firewall::parse_policy(target_policy_);
  BARB_ASSERT_MSG(parsed.ok(), "generated target policy must parse");
  target_fw_->install_rule_set(std::move(*parsed.rule_set));
  if (config_.firewall == FirewallKind::kAdfVpg) {
    auto client_parsed = firewall::parse_policy(make_client_vpg_policy(addr_));
    BARB_ASSERT(client_parsed.ok());
    client_fw_->install_rule_set(std::move(*client_parsed.rule_set));
    std::vector<std::uint8_t> master(32);
    for (auto& b : master) b = static_cast<std::uint8_t>(sim_.rng().next_u64());
    target_fw_->vpg_table().install(kExperimentVpgId, master);
    client_fw_->vpg_table().install(kExperimentVpgId, master);
  }
}

void Testbed::register_metrics(telemetry::MetricRegistry& registry) {
  stack::Host* hosts[] = {policy_host_, attacker_, client_, target_};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string name = hosts[i]->name();
    hosts[i]->register_metrics(registry, "host=" + name);
    // a() is the host-side port; b() is the switch side, whose TX queue is
    // the switch egress queue toward that host.
    link::Link& link = fabric_->host_link(static_cast<int>(i));
    link.a().register_metrics(registry, "link=" + name + ",side=host");
    link.b().register_metrics(registry, "link=" + name + ",side=switch");
  }
  fabric_->fabric_switch(0).register_metrics(registry, "");
  for (std::size_t i = 0; i < fault_injectors_.size(); ++i) {
    fault_injectors_[i]->register_metrics(registry, fault_labels_[i]);
  }
  if (!fault_injectors_.empty()) {
    // Checksum-drop counters join the registry only alongside fault
    // injection (the one source of corrupt frames); fault-free benches keep
    // their exact pre-fault metric set, so figure artifacts stay
    // byte-identical to a build without this subsystem.
    for (stack::Host* host : hosts) {
      const stack::NicStats& nic = host->nic().stats();
      registry.counter_fn("nic.rx_checksum_drops", "host=" + host->name(),
                          [&nic] { return static_cast<double>(nic.rx_checksum_drops); });
    }
  }
  if (target_fw_ != nullptr) target_fw_->register_metrics(registry, "host=target");
  if (client_fw_ != nullptr) client_fw_->register_metrics(registry, "host=client");
  if (iptables_) iptables_->register_metrics(registry, "host=target");
}

void Testbed::register_pool_metrics(telemetry::MetricRegistry& registry) {
  // Frame buffer pool. The pool is thread-local (src/net must not depend
  // on telemetry), so the testbed bridges the calling thread's pool stats
  // into the registry; the samplers are only valid on this thread.
  auto& pool = net::BufferPool::instance();
  auto pool_counter = [&](const char* name,
                          std::uint64_t net::BufferPoolStats::* field) {
    registry.counter_fn(name, "", [&pool, field] {
      return static_cast<double>(pool.stats().*field);
    });
  };
  pool_counter("pool.acquisitions", &net::BufferPoolStats::acquisitions);
  pool_counter("pool.hits", &net::BufferPoolStats::pool_hits);
  pool_counter("pool.misses", &net::BufferPoolStats::pool_misses);
  pool_counter("pool.heap_fallbacks", &net::BufferPoolStats::heap_fallbacks);
  pool_counter("pool.adopted", &net::BufferPoolStats::adopted);
  pool_counter("pool.recycled", &net::BufferPoolStats::recycled);
  pool_counter("pool.heap_frees", &net::BufferPoolStats::heap_frees);
  pool_counter("pool.parses", &net::BufferPoolStats::parses);
  pool_counter("pool.parse_hits", &net::BufferPoolStats::parse_hits);
  registry.counter_fn("pool.allocations", "", [&pool] {
    return static_cast<double>(pool.stats().allocations());
  });
  registry.gauge("pool.live_buffers", "", [&pool] {
    return static_cast<double>(pool.live_buffers());
  });
  registry.gauge("pool.free_buffers", "", [&pool] {
    return static_cast<double>(pool.free_buffers());
  });
}

void Testbed::register_scheduler_metrics(telemetry::MetricRegistry& registry) {
  // Event-engine internals. Samplers read the live scheduler, so they are
  // only valid while the Simulation outlives the registry's sampling.
  auto& sched = sim_.scheduler();
  registry.gauge("sched.pending", "", [&sched] {
    return static_cast<double>(sched.stats().pending);
  });
  registry.gauge("sched.tombstones", "", [&sched] {
    return static_cast<double>(sched.stats().tombstones);
  });
  registry.gauge("sched.slab_records", "", [&sched] {
    return static_cast<double>(sched.stats().slab_records);
  });
  registry.counter_fn("sched.events_executed", "", [&sched] {
    return static_cast<double>(sched.stats().events_executed);
  });
  registry.counter_fn("sched.compactions", "", [&sched] {
    return static_cast<double>(sched.stats().compactions);
  });
}

void Testbed::settle() {
  if (!config_.use_policy_server || target_fw_ == nullptr) return;
  const std::uint64_t want_target = policy_server_->policy_version(addr_.target);
  const std::uint64_t want_client =
      client_agent_ ? policy_server_->policy_version(addr_.client) : 0;
  for (int i = 0; i < 500; ++i) {
    sim_.run_for(sim::Duration::milliseconds(10));
    const auto& agents = policy_server_->agents();
    const auto tit = agents.find(addr_.target);
    const bool target_ok = tit != agents.end() && tit->second.acked_version >= want_target;
    bool client_ok = true;
    if (client_agent_) {
      const auto cit = agents.find(addr_.client);
      client_ok = cit != agents.end() && cit->second.acked_version >= want_client;
    }
    if (target_ok && client_ok) return;
  }
  BARB_WARN("testbed: policy distribution did not settle within 5s of sim time");
}

}  // namespace barb::core
