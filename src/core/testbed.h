// The paper's Figure 1 testbed: policy server, attacker (flood generator),
// client, and target on a 100 Mbps switch, with the device-under-test
// firewall on the target (and, for VPG configurations, a matching ADF on
// the client — both tunnel endpoints need a card).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/topology.h"
#include "firewall/nic_firewall.h"
#include "firewall/policy_agent.h"
#include "firewall/policy_server.h"
#include "firewall/software_firewall.h"
#include "link/fault_injector.h"
#include "link/link.h"
#include "link/switch.h"
#include "sim/simulation.h"
#include "stack/host.h"
#include "telemetry/registry.h"

namespace barb::core {

// FirewallKind and to_string(FirewallKind) live in core/topology.h (the
// per-host NIC profile is a property of any topology, not just this preset).

struct TestbedConfig {
  FirewallKind firewall = FirewallKind::kNone;
  // Rules traversed up to and including the action rule (the paper's
  // "rule-set depth"). For kAdfVpg this counts VPGs, not rules.
  int action_rule_depth = 1;
  // Disposition of the attacker's flood traffic at the action rule. kAllow
  // uses a single catch-all action rule; kDeny denies the flood at the
  // action rule and allows everything else right after it.
  firewall::RuleAction flood_action = firewall::RuleAction::kAllow;
  // Places a deny-the-attacker rule FIRST (depth 1) with the catch-all
  // allow still at action_rule_depth — the paper's "deny potential attack
  // sources early" recommendation. A spoofing attacker sails past it.
  bool deny_attacker_first = false;
  // Distribute policy through the policy server + agents (slower to settle
  // but exercises the real management path) instead of direct installation.
  bool use_policy_server = false;
  // Rule-matching backend on the device under test (and the client-side ADF
  // in VPG mode, and the iptables host filter): `kLinear` is the calibrated
  // paper-faithful default; the compiled backends are the ROADMAP item 1
  // counterfactual profiles ("compiled", "compiled+flowcache"). Applied on
  // top of profile_override when both are set.
  firewall::MatchBackend match_backend = firewall::MatchBackend::kLinear;
  // Replaces the standard EFW/ADF device profile on the firewall NICs
  // (ablation studies tweak cost-model parameters through this).
  std::optional<firewall::DeviceProfile> profile_override;
  // Enables the FloodGuard screening stage on the target's firewall NIC
  // (the future-work extension; see firewall/flood_guard.h).
  std::optional<firewall::FloodGuardConfig> flood_guard;
  // Fault injection on both directions of the attacker, client, and target
  // access links (the policy link stays clean unless fault_policy_link is
  // set, so policy distribution remains reliable by default). Each injected
  // port gets its own RNG stream derived from `seed` and the port index —
  // runs replay byte-identically and are --jobs-independent. Disabled
  // (nullopt, the default) leaves the frame path untouched: zero extra RNG
  // draws, byte-identical figure artifacts.
  std::optional<link::FaultProfile> fault_profile;
  bool fault_policy_link = false;
  // Event-engine shard count. Only serial execution exists: 0 and 1 both
  // mean one scheduler, and the Testbed constructor throws
  // std::invalid_argument for anything above 1. The field stays only until
  // the repository benchmark (perfbench/) stops setting it.
  int des_shards = 0;
  std::uint64_t seed = 1;
};

// Well-known testbed addresses.
struct TestbedAddresses {
  net::Ipv4Address policy_server{10, 0, 0, 10};
  net::Ipv4Address attacker{10, 0, 0, 20};
  net::Ipv4Address client{10, 0, 0, 30};
  net::Ipv4Address target{10, 0, 0, 40};
};

// The well-known port the attacker floods (no listener on the target).
constexpr std::uint16_t kFloodPort = 7777;
constexpr std::uint32_t kExperimentVpgId = 1;

class Testbed {
 public:
  Testbed(sim::Simulation& sim, const TestbedConfig& config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulation& simulation() { return sim_; }
  const TestbedConfig& config() const { return config_; }
  const TestbedAddresses& addresses() const { return addr_; }

  stack::Host& policy_host() { return *policy_host_; }
  stack::Host& attacker() { return *attacker_; }
  stack::Host& client() { return *client_; }
  stack::Host& target() { return *target_; }
  link::Switch& ethernet_switch() { return fabric_->fabric_switch(0); }
  // The underlying fabric (hosts indexed policy=0, attacker=1, client=2,
  // target=3; their access links share the index).
  Fabric& fabric() { return *fabric_; }

  // Device under test on the target host; null unless kEfw/kAdf/kAdfVpg.
  firewall::FirewallNic* target_firewall() { return target_fw_; }
  // Software firewall on the target; null unless kIptables.
  firewall::SoftwareFirewall* software_firewall() { return iptables_.get(); }
  firewall::PolicyServer* policy_server() { return policy_server_.get(); }
  firewall::PolicyAgent* target_agent() { return target_agent_.get(); }
  // Fault injectors installed per config.fault_profile (empty when disabled).
  const std::vector<std::unique_ptr<link::FaultInjector>>& fault_injectors() const {
    return fault_injectors_;
  }

  // Runs the simulation until policy is in place (policy-server mode) or
  // returns immediately (direct mode). Call once before measurements.
  void settle();

  // Registers every component's metrics: the four hosts ("host=<name>"),
  // both sides of each access link ("link=<name>,side=host|switch"), the
  // switch (with per-port egress queue gauges), the device under test, and
  // the software firewall when present. The registry must outlive nothing:
  // declare it before the Testbed (or at least stop sampling it once the
  // Testbed is gone).
  void register_metrics(telemetry::MetricRegistry& registry);

  // Registers this thread's frame buffer pool's counters and gauges
  // ("pool.*"). Deliberately NOT part of register_metrics(): the pool is
  // thread-local and cumulative across the simulations a thread runs, so
  // recording its absolute counters into a timeline would make same-seed
  // runs diverge (a second run starts with a warm freelist) and perturb the
  // figure artifacts. Benches that study allocator behaviour opt in
  // explicitly, and must sample from the registering thread.
  static void register_pool_metrics(telemetry::MetricRegistry& registry);

  // Registers the event engine's counters and gauges ("sched.*": live
  // pending events, tombstones, slab capacity, events executed, compaction
  // count). Kept out of register_metrics() for the same reason as pool.*:
  // engine-internal counters do not belong in figure timelines.
  void register_scheduler_metrics(telemetry::MetricRegistry& registry);

  // The policy text installed on the target (for inspection/tests).
  const std::string& target_policy_text() const { return target_policy_; }

 private:
  void build_hosts();
  void install_policies();
  void install_fault_injectors();

  sim::Simulation& sim_;
  TestbedConfig config_;
  TestbedAddresses addr_;

  // The wired topology (switch, links, hosts); built by TopologyBuilder with
  // the legacy construction order, so artifacts match the hard-coded wiring
  // this preset replaced.
  std::unique_ptr<Fabric> fabric_;
  // Two injectors per faulted link (one per direction), in link order;
  // labels_ mirror the link/side naming used by register_metrics.
  std::vector<std::unique_ptr<link::FaultInjector>> fault_injectors_;
  std::vector<std::string> fault_labels_;
  stack::Host* policy_host_ = nullptr;  // owned by fabric_
  stack::Host* attacker_ = nullptr;
  stack::Host* client_ = nullptr;
  stack::Host* target_ = nullptr;

  firewall::FirewallNic* target_fw_ = nullptr;   // owned by target_
  firewall::FirewallNic* client_fw_ = nullptr;   // owned by client_ (VPG only)
  std::unique_ptr<firewall::SoftwareFirewall> iptables_;
  std::unique_ptr<firewall::PolicyServer> policy_server_;
  std::unique_ptr<firewall::PolicyAgent> target_agent_;
  std::unique_ptr<firewall::PolicyAgent> client_agent_;

  std::string target_policy_;
};

// Builds the target-side policy text for a given configuration (exposed for
// tests and for the policy-generation example).
std::string make_target_policy(const TestbedConfig& config, const TestbedAddresses& addr);
// Client-side policy for VPG configurations (one matching VPG).
std::string make_client_vpg_policy(const TestbedAddresses& addr);

}  // namespace barb::core
