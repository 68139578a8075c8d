#include "core/topology.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "util/assert.h"

namespace barb::core {

const char* to_string(FirewallKind kind) {
  switch (kind) {
    case FirewallKind::kNone: return "No Firewall";
    case FirewallKind::kIptables: return "iptables";
    case FirewallKind::kEfw: return "EFW";
    case FirewallKind::kAdf: return "ADF";
    case FirewallKind::kAdfVpg: return "ADF (VPG)";
  }
  return "?";
}

std::unique_ptr<stack::Nic> make_nic(sim::Simulation& sim, const HostSpec& spec,
                                     firewall::FirewallNic** out_firewall) {
  if (out_firewall != nullptr) *out_firewall = nullptr;
  switch (spec.nic.kind) {
    case FirewallKind::kEfw:
    case FirewallKind::kAdf:
    case FirewallKind::kAdfVpg: {
      auto profile = spec.nic.kind == FirewallKind::kEfw ? firewall::efw_profile()
                                                         : firewall::adf_profile();
      if (spec.nic.profile_override) profile = *spec.nic.profile_override;
      profile = firewall::with_backend(std::move(profile), spec.nic.backend);
      const std::string label =
          spec.nic_label.empty() ? spec.name + "/" + profile.name : spec.nic_label;
      auto nic = std::make_unique<firewall::FirewallNic>(sim, spec.mac, label,
                                                         std::move(profile));
      if (spec.nic.flood_guard) nic->enable_flood_guard(*spec.nic.flood_guard);
      if (out_firewall != nullptr) *out_firewall = nic.get();
      return nic;
    }
    case FirewallKind::kNone:
    case FirewallKind::kIptables:
      break;
  }
  const std::string label =
      spec.nic_label.empty() ? spec.name + "/nic" : spec.nic_label;
  return std::make_unique<stack::StandardNic>(sim, spec.mac, label);
}

// --- Fabric ---------------------------------------------------------------

bool Fabric::all_hosts_routed() const {
  for (int s = 0; s < num_switches(); ++s) {
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      const net::MacAddress mac = hosts_[h]->mac();
      int cur = s;
      bool reached = false;
      // A route must reach the host in at most one hop per switch.
      for (int step = 0; step <= num_switches(); ++step) {
        const int port = switches_[static_cast<std::size_t>(cur)]->lookup(mac);
        if (port < 0) break;
        const auto& peers = port_peer_switch_[static_cast<std::size_t>(cur)];
        const auto& hostmap = port_host_[static_cast<std::size_t>(cur)];
        if (hostmap[static_cast<std::size_t>(port)] == static_cast<int>(h)) {
          reached = true;
          break;
        }
        const int next = peers[static_cast<std::size_t>(port)];
        if (next < 0) break;  // routed into a non-trunk port
        cur = next;
      }
      if (!reached) return false;
    }
  }
  return true;
}

MemoryAudit Fabric::memory_audit() const {
  MemoryAudit audit;
  audit.hosts = hosts_.size();
  if (directory_) audit.directory_bytes = directory_->memory_bytes();
  std::unordered_set<const firewall::RuleSet*> rule_sets;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    audit.arp_private_bytes += hosts_[i]->arp().memory_bytes();
    audit.host_object_bytes += sizeof(stack::Host);
    if (const auto* fw = firewalls_[i]) {
      audit.flow_state_bytes += fw->flow_states().memory_bytes();
      audit.flow_cache_bytes += fw->flow_cache().memory_bytes();
      if (rule_sets.insert(&fw->rule_set()).second) {
        audit.rule_set_bytes += fw->rule_set().memory_bytes();
      }
      audit.host_object_bytes += sizeof(firewall::FirewallNic);
    } else {
      audit.host_object_bytes += sizeof(stack::StandardNic);
    }
  }
  for (const auto& sw : switches_) audit.switch_fib_bytes += sw->fib_memory_bytes();
  return audit;
}

void Fabric::register_fleet_metrics(telemetry::MetricRegistry& registry) {
  registry.gauge("mem.per_host_bytes", "",
                 [this] { return static_cast<double>(memory_audit().per_host_bytes()); });
  registry.gauge("mem.total_bytes", "",
                 [this] { return static_cast<double>(memory_audit().total_bytes()); });
  registry.gauge("mem.directory_bytes", "",
                 [this] { return static_cast<double>(memory_audit().directory_bytes); });
  registry.gauge("mem.arp_private_bytes", "",
                 [this] { return static_cast<double>(memory_audit().arp_private_bytes); });
  registry.gauge("mem.switch_fib_bytes", "",
                 [this] { return static_cast<double>(memory_audit().switch_fib_bytes); });
  registry.gauge("mem.flow_state_bytes", "",
                 [this] { return static_cast<double>(memory_audit().flow_state_bytes); });
  registry.gauge("fleet.hosts", "",
                 [this] { return static_cast<double>(num_hosts()); });
  registry.counter_fn("fleet.ip_rx", "", [this] {
    double total = 0;
    for (const auto& h : hosts_) total += static_cast<double>(h->stats().ip_rx);
    return total;
  });
  registry.counter_fn("fleet.ip_tx", "", [this] {
    double total = 0;
    for (const auto& h : hosts_) total += static_cast<double>(h->stats().ip_tx);
    return total;
  });
  for (const auto& sw : switches_) {
    sw->register_fib_metrics(registry, "switch=" + sw->name());
  }
}

// --- TopologyBuilder ------------------------------------------------------

TopologyBuilder::TopologyBuilder(sim::Simulation& sim)
    : fabric_(std::make_unique<Fabric>(sim)) {}

int TopologyBuilder::add_switch(const std::string& name, link::SwitchConfig config) {
  BARB_ASSERT(!built_);
  const int index = fabric_->num_switches();
  fabric_->switches_.push_back(
      std::make_unique<link::Switch>(fabric_->sim_, name, config));
  fabric_->port_peer_switch_.emplace_back();
  fabric_->port_host_.emplace_back();
  return index;
}

int TopologyBuilder::add_host(const HostSpec& spec, int switch_id,
                              const link::LinkConfig& link_config) {
  BARB_ASSERT(!built_);
  BARB_ASSERT(switch_id >= 0 && switch_id < fabric_->num_switches());
  const int index = fabric_->num_hosts();

  firewall::FirewallNic* fw = nullptr;
  auto nic = make_nic(fabric_->sim_, spec, &fw);
  auto host = std::make_unique<stack::Host>(fabric_->sim_, spec.name, spec.ip,
                                            std::move(nic), spec.host_config);

  fabric_->links_.push_back(
      std::make_unique<link::Link>(fabric_->sim_, link_config));
  link::Link& link = *fabric_->links_.back();
  host->nic().attach(link.a());
  link::Switch& sw = *fabric_->switches_[static_cast<std::size_t>(switch_id)];
  const int port = sw.attach(link.b());
  fabric_->port_peer_switch_[static_cast<std::size_t>(switch_id)].push_back(-1);
  fabric_->port_host_[static_cast<std::size_t>(switch_id)].push_back(index);

  fabric_->hosts_.push_back(std::move(host));
  fabric_->firewalls_.push_back(fw);
  fabric_->host_switch_.push_back(switch_id);
  fabric_->host_port_.push_back(port);
  return index;
}

void TopologyBuilder::connect_switches(int a, int b,
                                       const link::LinkConfig& link_config) {
  BARB_ASSERT(!built_);
  BARB_ASSERT(a != b);
  BARB_ASSERT(a >= 0 && a < fabric_->num_switches());
  BARB_ASSERT(b >= 0 && b < fabric_->num_switches());
  fabric_->links_.push_back(
      std::make_unique<link::Link>(fabric_->sim_, link_config));
  link::Link& link = *fabric_->links_.back();
  link::Switch& sw_a = *fabric_->switches_[static_cast<std::size_t>(a)];
  link::Switch& sw_b = *fabric_->switches_[static_cast<std::size_t>(b)];
  const int port_a = sw_a.attach(link.a());
  const int port_b = sw_b.attach(link.b());
  fabric_->port_peer_switch_[static_cast<std::size_t>(a)].push_back(b);
  fabric_->port_host_[static_cast<std::size_t>(a)].push_back(-1);
  fabric_->port_peer_switch_[static_cast<std::size_t>(b)].push_back(a);
  fabric_->port_host_[static_cast<std::size_t>(b)].push_back(-1);
  trunks_.push_back(Trunk{a, port_a, b, port_b});
}

std::unique_ptr<Fabric> TopologyBuilder::build() {
  BARB_ASSERT(!built_);
  built_ = true;
  Fabric& f = *fabric_;

  // Address resolution through one shared, frozen directory.
  f.directory_ = std::make_shared<stack::AddressDirectory>();
  for (const auto& h : f.hosts_) f.directory_->add(h->ip(), h->mac());
  f.directory_->freeze();
  for (const auto& h : f.hosts_) h->arp().set_directory(f.directory_.get());

  if (!static_routes_) return std::move(fabric_);

  // Static routes: per-switch BFS distances over the trunk graph, then one
  // pinned FIB entry per (switch, host). Equal-cost trunk choices spread by
  // destination host index — the deterministic stand-in for ECMP hashing.
  const int num_switches = f.num_switches();
  std::vector<std::vector<int>> dist(
      static_cast<std::size_t>(num_switches),
      std::vector<int>(static_cast<std::size_t>(num_switches), -1));
  for (int s = 0; s < num_switches; ++s) {
    auto& d = dist[static_cast<std::size_t>(s)];
    d[static_cast<std::size_t>(s)] = 0;
    std::deque<int> frontier{s};
    while (!frontier.empty()) {
      const int cur = frontier.front();
      frontier.pop_front();
      const auto& peers = f.port_peer_switch_[static_cast<std::size_t>(cur)];
      for (const int peer : peers) {
        if (peer < 0) continue;
        if (d[static_cast<std::size_t>(peer)] >= 0) continue;
        d[static_cast<std::size_t>(peer)] = d[static_cast<std::size_t>(cur)] + 1;
        frontier.push_back(peer);
      }
    }
  }

  for (int h = 0; h < f.num_hosts(); ++h) {
    const net::MacAddress mac = f.hosts_[static_cast<std::size_t>(h)]->mac();
    const int target_sw = f.host_switch_[static_cast<std::size_t>(h)];
    for (int s = 0; s < num_switches; ++s) {
      int port;
      if (s == target_sw) {
        port = f.host_port_[static_cast<std::size_t>(h)];
      } else {
        const int want =
            dist[static_cast<std::size_t>(s)][static_cast<std::size_t>(target_sw)];
        BARB_ASSERT_MSG(want > 0, "fabric is disconnected");
        // Trunk ports on s whose far switch is one hop closer to the target.
        std::vector<int> candidates;
        const auto& peers = f.port_peer_switch_[static_cast<std::size_t>(s)];
        for (std::size_t p = 0; p < peers.size(); ++p) {
          const int peer = peers[p];
          if (peer < 0) continue;
          if (dist[static_cast<std::size_t>(peer)]
                  [static_cast<std::size_t>(target_sw)] == want - 1) {
            candidates.push_back(static_cast<int>(p));
          }
        }
        BARB_ASSERT(!candidates.empty());
        port = candidates[static_cast<std::size_t>(h) % candidates.size()];
      }
      const bool ok =
          f.switches_[static_cast<std::size_t>(s)]->preload(mac, port);
      BARB_ASSERT_MSG(ok, "switch FIB too small for pinned routes");
    }
  }
  return std::move(fabric_);
}

// --- presets --------------------------------------------------------------

net::Ipv4Address fleet_ip(int host_index) {
  const std::uint32_t n = static_cast<std::uint32_t>(host_index) + 1;
  BARB_ASSERT(n < (1u << 24));
  return net::Ipv4Address(10, static_cast<std::uint8_t>((n >> 16) & 0xff),
                          static_cast<std::uint8_t>((n >> 8) & 0xff),
                          static_cast<std::uint8_t>(n & 0xff));
}

net::MacAddress fleet_mac(int host_index) {
  return net::MacAddress::from_host_id(static_cast<std::uint32_t>(host_index) + 1);
}

namespace {

link::SwitchConfig fabric_switch_config(int hosts) {
  link::SwitchConfig cfg;
  cfg.learning = false;
  cfg.flood_unknown = false;
  // Room for one pinned route per host at <= 25% load, so preloads cannot
  // exhaust a probe window.
  cfg.fib_capacity = std::max<std::size_t>(
      1024, std::bit_ceil(static_cast<std::size_t>(hosts) * 4));
  return cfg;
}

HostSpec fleet_host_spec(const std::string& prefix, int index, NicSpec nic) {
  HostSpec spec;
  spec.name = prefix + std::to_string(index);
  spec.ip = fleet_ip(index);
  spec.mac = fleet_mac(index);
  spec.nic = std::move(nic);
  return spec;
}

}  // namespace

std::unique_ptr<Fabric> build_leaf_spine(sim::Simulation& sim,
                                         const LeafSpineSpec& spec) {
  BARB_ASSERT(spec.hosts >= 1 && spec.hosts_per_leaf >= 1 && spec.spines >= 1);
  if (!spec.batched_links) {
    throw std::invalid_argument(
        "LeafSpineSpec::batched_links = false: only the batched link-delivery "
        "engine exists");
  }
  const int leaves = (spec.hosts + spec.hosts_per_leaf - 1) / spec.hosts_per_leaf;

  TopologyBuilder builder(sim);
  builder.enable_static_routes();
  const link::SwitchConfig sw_cfg = fabric_switch_config(spec.hosts);
  std::vector<int> spines;
  for (int s = 0; s < spec.spines; ++s) {
    spines.push_back(builder.add_switch("spine" + std::to_string(s), sw_cfg));
  }
  int host_index = 0;
  for (int l = 0; l < leaves; ++l) {
    const int leaf = builder.add_switch("leaf" + std::to_string(l), sw_cfg);
    for (const int spine : spines) builder.connect_switches(leaf, spine, spec.trunk_link);
    for (int i = 0; i < spec.hosts_per_leaf && host_index < spec.hosts; ++i) {
      const NicSpec nic =
          spec.nic_for ? spec.nic_for(host_index) : spec.default_nic;
      builder.add_host(fleet_host_spec(spec.name_prefix, host_index, nic), leaf,
                       spec.access_link);
      ++host_index;
    }
  }
  return builder.build();
}

std::unique_ptr<Fabric> build_campus_tree(sim::Simulation& sim,
                                          const CampusTreeSpec& spec) {
  BARB_ASSERT(spec.hosts >= 1 && spec.hosts_per_edge >= 1);
  const int edges = (spec.hosts + spec.hosts_per_edge - 1) / spec.hosts_per_edge;

  TopologyBuilder builder(sim);
  builder.enable_static_routes();
  const link::SwitchConfig sw_cfg = fabric_switch_config(spec.hosts);
  const int core = builder.add_switch("core", sw_cfg);
  int host_index = 0;
  for (int e = 0; e < edges; ++e) {
    const int edge = builder.add_switch("edge" + std::to_string(e), sw_cfg);
    builder.connect_switches(edge, core, spec.uplink);
    for (int i = 0; i < spec.hosts_per_edge && host_index < spec.hosts; ++i) {
      const NicSpec nic =
          spec.nic_for ? spec.nic_for(host_index) : spec.default_nic;
      builder.add_host(fleet_host_spec(spec.name_prefix, host_index, nic), edge,
                       spec.access_link);
      ++host_index;
    }
  }
  return builder.build();
}

}  // namespace barb::core
