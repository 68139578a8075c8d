// NIC-resident firewall model (EFW / ADF).
//
// Both directions of traffic are serviced by one embedded processor working
// through finite RX/TX descriptor rings. Service time follows the calibrated
// DeviceProfile cost model; frames that arrive while the rings are full are
// dropped — that queue, not the wire, is the bottleneck the paper's flood
// attacks saturate.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "firewall/classifier/compiled_classifier.h"
#include "firewall/classifier/flow_cache.h"
#include "firewall/flood_guard.h"
#include "firewall/flow_state.h"
#include "firewall/profiles.h"
#include "firewall/rule_set.h"
#include "firewall/vpg.h"
#include "stack/nic.h"
#include "telemetry/registry.h"

namespace barb::firewall {

struct FirewallNicStats {
  std::uint64_t rx_ring_drops = 0;
  std::uint64_t rx_ring_drops_large = 0;  // subset of rx_ring_drops, frames > 500 B
  std::uint64_t tx_ring_drops = 0;
  std::uint64_t rx_allowed = 0;
  std::uint64_t rx_denied = 0;
  std::uint64_t tx_allowed = 0;
  std::uint64_t tx_denied = 0;
  std::uint64_t vpg_drops = 0;     // failed encap/decap (auth, replay, oversize)
  std::uint64_t lockup_drops = 0;  // frames discarded while latched
  std::uint64_t frames_processed = 0;
  std::uint64_t rules_traversed = 0;  // total rule-walk length across frames
  sim::Duration cpu_busy;          // accumulated embedded-CPU service time
};

// Compiled-backend matching counters ("match.*" when registered). Flow-cache
// hit/miss/eviction counts live in FlowCache::stats().
struct MatchPathStats {
  std::uint64_t lookups = 0;         // classifications (cache hits included)
  std::uint64_t compiled_nodes = 0;  // decision-structure nodes visited
  std::uint64_t rebuilds = 0;        // compiled rebuilds (policy pushes)
};

class FirewallNic : public stack::Nic {
 public:
  FirewallNic(sim::Simulation& sim, net::MacAddress mac, std::string name,
              DeviceProfile profile);

  // Policy installation (normally via the PolicyAgent). The default policy
  // is an empty rule-set with default-allow, i.e. an unconfigured card.
  // A push is atomic with respect to frame processing (the embedded CPU
  // picks up verdicts between frames): the compiled structure is rebuilt
  // wholesale and the flow cache's generation is bumped before the next
  // frame is classified. The card holds the rule-set immutably, so cards
  // given the same pointer share one copy (see parse_policy_shared).
  void install_rule_set(std::shared_ptr<const RuleSet> rules);
  void install_rule_set(RuleSet rules) {
    install_rule_set(std::make_shared<const RuleSet>(std::move(rules)));
  }

  // Enables the FloodGuard screening stage (the paper's hoped-for
  // flood-tolerant design; see flood_guard.h). Screening runs before the
  // rule walk on inbound frames at near-arrival cost.
  void enable_flood_guard(FloodGuardConfig config) {
    config.enabled = true;
    guard_ = FloodGuard(config);
    reconfigure_guard();
  }
  const FloodGuard& flood_guard() const { return guard_; }

  // Management exemption: traffic to/from the policy server bypasses the
  // rule walk (base cost only), mirroring the EFW's implicit always-allow
  // for policy-server communication — without it, a deny-by-default policy
  // would cut the card off from its own management channel.
  void set_management_peer(net::Ipv4Address ip) { management_peer_ = ip; }
  const RuleSet& rule_set() const { return *rules_; }
  VpgTable& vpg_table() { return vpgs_; }

  const DeviceProfile& profile() const { return profile_; }
  const FirewallNicStats& fw_stats() const { return fwstats_; }
  const FlowStateTable& flow_states() const { return flow_states_; }
  const MatchPathStats& match_stats() const { return matchstats_; }
  const CompiledClassifier& compiled_classifier() const { return compiled_; }
  const FlowCache& flow_cache() const { return flow_cache_; }
  bool locked_up() const { return locked_; }

  // Registers the card's counters ("fw.*"), queue gauges, a service-time
  // histogram ("fw.service_time_ns", fed by every processed frame), and —
  // when FloodGuard is enabled — the "guard.*" screening counters.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels);

  // Firewall-agent restart: clears the lockup latch and flushes the rings.
  // This is the paper's observed recovery procedure for the EFW deny-flood
  // failure ("restarting the firewall agent software restored
  // functionality").
  void restart();

  // Host -> wire.
  void transmit(net::Packet pkt) override;
  // Wire -> host.
  void deliver(net::Packet pkt) override;

 private:
  struct Job {
    net::Packet pkt;
    bool inbound;
    // Verdict, decided when the embedded CPU picks the frame up.
    RuleAction action = RuleAction::kDeny;
    std::uint32_t vpg_id = 0;
    bool parsed = false;
    bool management = false;
  };

  void enqueue(Job job);
  void start_next();
  void finish(Job job);
  void note_inbound_deny();
  // Classifies one frame through the configured backend, accruing the
  // backend's cost model into *service. Returns the (backend-independent)
  // match verdict.
  MatchResult classify(const net::FrameView& view, sim::Duration* service);

  bool is_management_frame(const net::FrameView& view) const;
  void reconfigure_guard();

  DeviceProfile profile_;
  std::shared_ptr<const RuleSet> rules_;
  VpgTable vpgs_;
  FloodGuard guard_{FloodGuardConfig{}};  // disabled by default
  FlowStateTable flow_states_;            // used when profile_.stateful
  CompiledClassifier compiled_;           // used by the compiled backends
  FlowCache flow_cache_;                  // used by kCompiledFlowCache
  MatchPathStats matchstats_;
  std::optional<net::Ipv4Address> management_peer_;

  std::deque<Job> queue_;  // FIFO across both buffers (one CPU services both)
  std::size_t rx_buffered_bytes_ = 0;
  std::size_t tx_buffered_bytes_ = 0;
  bool busy_ = false;
  bool locked_ = false;
  std::uint64_t service_epoch_ = 0;  // invalidates in-flight service on restart

  sim::Duration pending_overhead_;  // accrued arrival costs awaiting the CPU
  sim::TimePoint deny_window_start_;
  std::uint64_t deny_window_count_ = 0;

  FirewallNicStats fwstats_;
  // Registry-owned service-time histogram; null until register_metrics.
  telemetry::Histogram* service_hist_ = nullptr;
};

}  // namespace barb::firewall
