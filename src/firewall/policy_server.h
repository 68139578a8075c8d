// Central policy server (the EFW Policy Server's role in Figure 1).
//
// Holds the authoritative per-host policy (rule-set text plus VPG master
// keys), pushes it to connected agents, tracks acknowledgements and
// heartbeats, and can command an agent to restart its card — the recovery
// path for the EFW deny-flood lockup.
#pragma once

#include <cstdint>
#include <span>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4_address.h"
#include "firewall/policy_protocol.h"
#include "stack/host.h"
#include "stack/tcp.h"
#include "telemetry/registry.h"

namespace barb::firewall {

struct VpgKeyEntry {
  std::uint32_t vpg_id = 0;
  std::vector<std::uint8_t> master_key;  // 32 bytes
};

struct AgentStatus {
  bool connected = false;
  std::uint64_t acked_version = 0;
  std::uint64_t pushed_version = 0;
  sim::TimePoint last_heartbeat;
  bool reported_locked = false;
  std::uint64_t heartbeats = 0;
};

// Aggregate distribution counters over every agent the server talks to (the
// fleet benches chart these; per-agent detail stays in AgentStatus).
struct PolicyServerStats {
  std::uint64_t hellos = 0;           // identified enrollments (incl. re-enrolls)
  std::uint64_t pushes = 0;           // policy-update messages sent
  std::uint64_t push_bytes = 0;       // encoded bytes of those pushes
  std::uint64_t acks = 0;             // acks received
  std::uint64_t heartbeats = 0;       // heartbeats received
  std::uint64_t corrupted_streams = 0;
};

class PolicyServer {
 public:
  static constexpr std::uint16_t kDefaultPort = 3456;

  PolicyServer(stack::Host& host, std::span<const std::uint8_t> deployment_key,
               std::uint16_t port = kDefaultPort);
  ~PolicyServer();

  void start();

  // Sets the policy for an agent host; pushes immediately if connected.
  // Returns false, and changes nothing (the version included), when the
  // policy's body would exceed kMaxPolicyBodyBytes.
  bool set_policy(net::Ipv4Address agent, std::string policy_text);

  // Fleet fan-out: sets the same policy text for every listed agent (each
  // gets its own versioned entry and an immediate push when connected; the
  // entries share one copy of the text). Returns the number of pushes sent
  // synchronously, or nullopt, with no agent changed, when the body would
  // exceed kMaxPolicyBodyBytes for any of them.
  std::optional<std::size_t> set_policy_all(std::span<const net::Ipv4Address> agents,
                                            const std::string& policy_text);

  // Creates a VPG across a group of agent hosts: every member receives the
  // same group master key (the rule itself must be part of each host's
  // policy text) and gets a re-push. The key is generated from the
  // simulation RNG. Groups may have any number of members — VPGs are
  // groups, not just pairs (Markham et al.). Returns false, and changes
  // nothing (no version, no RNG draw), when the key line would push any
  // member's body past kMaxPolicyBodyBytes.
  bool create_vpg(std::uint32_t vpg_id, std::span<const net::Ipv4Address> members);
  bool create_vpg(std::uint32_t vpg_id, net::Ipv4Address a, net::Ipv4Address b) {
    const net::Ipv4Address pair[] = {a, b};
    return create_vpg(vpg_id, pair);
  }

  // Commands the agent to restart its firewall card.
  void command_restart(net::Ipv4Address agent);

  const std::map<net::Ipv4Address, AgentStatus>& agents() const { return agents_; }
  // Version currently configured for an agent (0 if none).
  std::uint64_t policy_version(net::Ipv4Address agent) const;

  const PolicyServerStats& stats() const { return stats_; }
  // Agents with a live identified session.
  std::size_t count_connected() const;
  // Agents whose acked policy version is >= `version` (convergence metric).
  std::size_t count_acked_at_least(std::uint64_t version) const;

  // Registers distribution counters/gauges ("policy.*") for the fleet
  // benches. Opt-in: not part of the figure testbed's metric set.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels);

 private:
  struct Session;

  // Whether `policy_text` as the agent's next version fits in one message.
  bool policy_fits(net::Ipv4Address agent, const std::string& policy_text) const;
  void set_shared_policy(net::Ipv4Address agent,
                         std::shared_ptr<const std::string> policy_text);
  // Replaces `body` with the agent's policy body.
  void render_policy_body(net::Ipv4Address agent, std::string& body);
  void push_policy(net::Ipv4Address agent);
  void send_to(net::Ipv4Address agent, PolicyMsgType type, std::uint64_t seq,
               std::string_view body);
  static void flush_outbound(Session& session);
  void handle_message(Session& session, const PolicyMessage& msg);

  struct PolicyEntry {
    std::shared_ptr<const std::string> text;  // null until a policy is set
    std::vector<VpgKeyEntry> keys;
    std::uint64_t version = 0;
  };

  stack::Host& host_;
  std::vector<std::uint8_t> key_;
  std::uint16_t port_;
  std::map<net::Ipv4Address, PolicyEntry> policies_;
  std::map<net::Ipv4Address, AgentStatus> agents_;
  std::map<net::Ipv4Address, std::shared_ptr<Session>> sessions_;
  std::vector<std::shared_ptr<Session>> pending_;  // connected, no hello yet
  std::uint64_t next_seq_ = 1;
  PolicyServerStats stats_;
  // Kept across pushes: a fan-out to many agents renders and encodes each
  // message in the same two buffers instead of allocating them per agent.
  std::string body_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
};

}  // namespace barb::firewall
