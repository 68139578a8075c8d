// Declarative topology construction for single-switch and fleet fabrics.
//
// The paper's Figure 1 testbed is four hosts on one switch; ROADMAP item 2
// is the same per-host enforcement argument at fleet scale. TopologyBuilder
// generalizes the wiring into data: callers declare switches, hosts (each
// with its own NIC firewall profile), access links and trunks, and build()
// returns a Fabric owning everything, with address resolution installed and
// — for multi-switch fabrics — static routes preloaded into every switch's
// FIB. The classic Testbed is a thin preset over this builder, and its
// artifacts are byte-identical to the hard-coded wiring it replaced.
//
// Fabric shapes:
//  * single switch — the paper's testbed, any host count (star).
//  * leaf-spine — hosts under leaf switches, every leaf trunked to every
//    spine. Redundant paths make L2 flooding a loop storm, so the builder
//    preloads pinned FIB routes (remote traffic spreads over spines by
//    destination index), disables learning, and disables unknown flooding.
//  * campus tree — edge switches under one core switch: the classic
//    building-distribution shape; loop-free but preloaded all the same.
//
// Address resolution at fleet scale uses one shared AddressDirectory
// (O(total hosts) memory for the whole fleet) instead of a full mesh of
// per-host ARP tables (O(hosts^2)); the Testbed preset keeps the legacy
// full-mesh installation for byte-identity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "firewall/nic_firewall.h"
#include "link/link.h"
#include "link/switch.h"
#include "sim/simulation.h"
#include "stack/address_directory.h"
#include "stack/host.h"
#include "telemetry/registry.h"

namespace barb::core {

enum class FirewallKind {
  kNone,      // standard NIC (Intel EEPro 100 baseline)
  kIptables,  // host-resident software firewall
  kEfw,       // 3Com Embedded Firewall model
  kAdf,       // Adventium ADF model, plain rule-set
  kAdfVpg,    // ADF with VPG tunnel between client and target
};

const char* to_string(FirewallKind kind);

// Per-host NIC hardware profile: which firewall model guards the host, with
// which matching backend and cost-model overrides.
struct NicSpec {
  FirewallKind kind = FirewallKind::kNone;
  firewall::MatchBackend backend = firewall::MatchBackend::kLinear;
  std::optional<firewall::DeviceProfile> profile_override;
  std::optional<firewall::FloodGuardConfig> flood_guard;
};

struct HostSpec {
  std::string name;
  net::Ipv4Address ip;
  net::MacAddress mac;
  NicSpec nic;
  stack::HostConfig host_config;
  // Metric/trace label of the NIC. Empty derives "<name>/nic" for standard
  // NICs and "<name>/<profile name>" for firewall NICs.
  std::string nic_label;
};

// Aggregate heap-footprint audit over a built fabric (the `mem.*` numbers).
struct MemoryAudit {
  std::size_t hosts = 0;
  std::size_t directory_bytes = 0;    // shared AddressDirectory (once)
  std::size_t arp_private_bytes = 0;  // per-host private ARP maps, summed
  std::size_t switch_fib_bytes = 0;   // bounded FIBs, summed over switches
  std::size_t flow_state_bytes = 0;   // stateful flow tables, summed
  std::size_t flow_cache_bytes = 0;   // compiled-backend flow caches, summed
  // Installed rule-sets: each distinct one once, however many cards share it.
  std::size_t rule_set_bytes = 0;
  std::size_t host_object_bytes = 0;  // the Host/Nic objects themselves

  std::size_t total_bytes() const {
    return directory_bytes + arp_private_bytes + switch_fib_bytes +
           flow_state_bytes + flow_cache_bytes + rule_set_bytes + host_object_bytes;
  }
  std::size_t per_host_bytes() const {
    return hosts == 0 ? 0 : total_bytes() / hosts;
  }
};

// A built topology: owns switches, links, and hosts. Hosts and their access
// links share an index; trunks follow the access links in `links()`.
class Fabric {
 public:
  explicit Fabric(sim::Simulation& sim) : sim_(sim) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulation& simulation() { return sim_; }

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  int num_switches() const { return static_cast<int>(switches_.size()); }

  stack::Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  // Device firewall on host i's NIC; null for plain NICs.
  firewall::FirewallNic* firewall(int i) {
    return firewalls_[static_cast<std::size_t>(i)];
  }
  link::Switch& fabric_switch(int i) {
    return *switches_[static_cast<std::size_t>(i)];
  }
  // Switch the host's access link lands on.
  int host_switch(int i) const { return host_switch_[static_cast<std::size_t>(i)]; }
  // Access link of host i (a() = host side, b() = switch side).
  link::Link& host_link(int i) { return *links_[static_cast<std::size_t>(i)]; }
  const std::vector<std::unique_ptr<link::Link>>& links() const { return links_; }

  const stack::AddressDirectory* directory() const { return directory_.get(); }

  // Walks the preloaded FIBs from every switch: true iff every switch can
  // reach every host's MAC (diagnostic for fabric invariant tests).
  bool all_hosts_routed() const;

  MemoryAudit memory_audit() const;

  // Registers the per-fleet footprint audit ("mem.*") and aggregate traffic
  // counters ("fleet.*"), plus each switch's FIB counters. Opt-in for fleet
  // benches — deliberately separate from the per-component register_metrics
  // calls the paper figures sample (their artifacts are a byte-identity
  // regression gate, so their metric set must not grow).
  void register_fleet_metrics(telemetry::MetricRegistry& registry);

 private:
  friend class TopologyBuilder;

  sim::Simulation& sim_;
  std::vector<std::unique_ptr<link::Switch>> switches_;
  std::vector<std::unique_ptr<link::Link>> links_;  // access links, then trunks
  std::vector<std::unique_ptr<stack::Host>> hosts_;
  std::vector<firewall::FirewallNic*> firewalls_;  // per host; null when plain
  std::vector<int> host_switch_;                   // per host: switch index
  std::vector<int> host_port_;                     // per host: port on switch
  std::shared_ptr<stack::AddressDirectory> directory_;
  // Per switch: port index -> peer switch index (trunks) or -1; and port
  // index -> host index (access ports) or -1. Filled as links attach; used
  // for route computation and the reachability diagnostic.
  std::vector<std::vector<int>> port_peer_switch_;
  std::vector<std::vector<int>> port_host_;
};

class TopologyBuilder {
 public:
  explicit TopologyBuilder(sim::Simulation& sim);

  // Declares a switch; returns its index.
  int add_switch(const std::string& name, link::SwitchConfig config = {});

  // Declares a host attached to `switch_id` over `link_config`; returns the
  // host index. The link is created immediately, so switch port numbering
  // follows call order (trunks and hosts interleave as declared).
  int add_host(const HostSpec& spec, int switch_id,
               const link::LinkConfig& link_config);

  // Declares a trunk between two switches.
  void connect_switches(int a, int b, const link::LinkConfig& link_config);

  // Preload pinned FIB routes for every host into every switch at build()
  // (required for fabrics with redundant paths; they must also disable
  // learning/flooding via their SwitchConfig). Routes spread equal-cost
  // trunk choices by destination host index.
  void enable_static_routes() { static_routes_ = true; }

  // Finalizes address resolution (+ routes) and returns the fabric.
  std::unique_ptr<Fabric> build();

 private:
  struct Trunk {
    int sw_a, port_a, sw_b, port_b;
  };

  std::unique_ptr<Fabric> fabric_;
  std::vector<Trunk> trunks_;
  bool static_routes_ = false;
  bool built_ = false;
};

// Creates the NIC described by `spec` (used by the builder presets and the
// Testbed). `out_firewall` receives the FirewallNic when one is built.
std::unique_ptr<stack::Nic> make_nic(sim::Simulation& sim, const HostSpec& spec,
                                     firewall::FirewallNic** out_firewall);

// --- fabric presets -------------------------------------------------------

struct LeafSpineSpec {
  int hosts = 64;
  int hosts_per_leaf = 16;
  int spines = 2;
  // Access links model the testbed's deep-buffered 100 Mbps edge; trunks are
  // 1 Gbps with proportionally deeper queues.
  link::LinkConfig access_link{100e6, sim::Duration::nanoseconds(500), 768 * 1024};
  link::LinkConfig trunk_link{1e9, sim::Duration::microseconds(1), 4 * 768 * 1024};
  // Per-host NIC profile applied to every host (benches override per index
  // via `nic_for`, e.g. plain NICs for designated attackers).
  NicSpec default_nic;
  std::function<NicSpec(int host_index)> nic_for;  // optional override
  // There is one link-delivery engine: true is accepted, and
  // build_leaf_spine throws std::invalid_argument for false. The field stays
  // only until the repository benchmark (perfbench/) stops setting it.
  bool batched_links = true;
  std::string name_prefix = "h";
};

std::unique_ptr<Fabric> build_leaf_spine(sim::Simulation& sim,
                                         const LeafSpineSpec& spec);

struct CampusTreeSpec {
  int hosts = 64;
  int hosts_per_edge = 16;  // fanout of each edge switch
  link::LinkConfig access_link{100e6, sim::Duration::nanoseconds(500), 768 * 1024};
  link::LinkConfig uplink{1e9, sim::Duration::microseconds(1), 4 * 768 * 1024};
  NicSpec default_nic;
  std::function<NicSpec(int host_index)> nic_for;
  std::string name_prefix = "h";
};

std::unique_ptr<Fabric> build_campus_tree(sim::Simulation& sim,
                                          const CampusTreeSpec& spec);

// IP/MAC assignment shared by the presets (host index -> 10.x.y.z / MAC).
net::Ipv4Address fleet_ip(int host_index);
net::MacAddress fleet_mac(int host_index);

}  // namespace barb::core
