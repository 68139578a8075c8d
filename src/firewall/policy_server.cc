#include "firewall/policy_server.h"

#include <algorithm>

#include "util/assert.h"
#include "util/byte_io.h"
#include "util/logging.h"

namespace barb::firewall {

struct PolicyServer::Session {
  std::shared_ptr<stack::TcpConnection> conn;
  PolicyMessageReader reader;
  net::Ipv4Address agent;  // set after hello
  bool identified = false;
  // Encoded messages the connection's send buffer has not taken yet, in
  // order; bytes before outbound_head have been handed over already.
  std::vector<std::uint8_t> outbound;
  std::size_t outbound_head = 0;
};

PolicyServer::PolicyServer(stack::Host& host, std::span<const std::uint8_t> deployment_key,
                           std::uint16_t port)
    : host_(host), key_(deployment_key.begin(), deployment_key.end()), port_(port) {}

PolicyServer::~PolicyServer() = default;

void PolicyServer::start() {
  host_.tcp_listen(port_, [this](std::shared_ptr<stack::TcpConnection> conn) {
    auto session = std::make_shared<Session>();
    session->conn = conn;
    pending_.push_back(session);
    conn->on_data = [this, session](std::span<const std::uint8_t> data) {
      session->reader.append(data);
      while (auto msg = session->reader.next(key_)) {
        handle_message(*session, *msg);
      }
      if (session->reader.corrupted()) {
        BARB_WARN("policy server: corrupted stream from %s, dropping",
                  session->agent.to_string().c_str());
        ++stats_.corrupted_streams;
        session->conn->abort();
      }
    };
    conn->on_send_space = [session] { flush_outbound(*session); };
    conn->on_closed = [this, session] {
      if (session->identified) {
        agents_[session->agent].connected = false;
        sessions_.erase(session->agent);
      }
      std::erase(pending_, session);
    };
  });
}

std::uint64_t PolicyServer::policy_version(net::Ipv4Address agent) const {
  auto it = policies_.find(agent);
  return it == policies_.end() ? 0 : it->second.version;
}

namespace {

// Length of the body render_policy_body produces, without building it.
std::size_t policy_body_size(std::uint64_t version, std::string_view text,
                             std::span<const VpgKeyEntry> keys) {
  std::size_t n = std::string_view("version \n").size() + std::to_string(version).size();
  if (!text.empty()) n += text.size() + (text.ends_with('\n') ? 0 : 1);
  for (const auto& k : keys) {
    n += std::string_view("vpgkey  \n").size() + std::to_string(k.vpg_id).size() +
         2 * k.master_key.size();
  }
  return n;
}

}  // namespace

bool PolicyServer::policy_fits(net::Ipv4Address agent,
                               const std::string& policy_text) const {
  auto it = policies_.find(agent);
  const bool known = it != policies_.end();
  return policy_body_size((known ? it->second.version : 0) + 1, policy_text,
                          known ? std::span(it->second.keys)
                                : std::span<const VpgKeyEntry>{}) <= kMaxPolicyBodyBytes;
}

bool PolicyServer::set_policy(net::Ipv4Address agent, std::string policy_text) {
  if (!policy_fits(agent, policy_text)) {
    BARB_WARN("policy server: policy for %s exceeds %zu bytes, refused",
              agent.to_string().c_str(), kMaxPolicyBodyBytes);
    return false;
  }
  set_shared_policy(agent, std::make_shared<const std::string>(std::move(policy_text)));
  return true;
}

std::optional<std::size_t> PolicyServer::set_policy_all(
    std::span<const net::Ipv4Address> agents, const std::string& policy_text) {
  for (const auto& agent : agents) {
    if (!policy_fits(agent, policy_text)) {
      BARB_WARN("policy server: policy for %s exceeds %zu bytes, refused for all %zu agents",
                agent.to_string().c_str(), kMaxPolicyBodyBytes, agents.size());
      return std::nullopt;
    }
  }
  const auto shared = std::make_shared<const std::string>(policy_text);
  std::size_t pushed = 0;
  for (const auto& agent : agents) {
    const bool live = sessions_.contains(agent);
    set_shared_policy(agent, shared);
    if (live) ++pushed;
  }
  return pushed;
}

void PolicyServer::set_shared_policy(net::Ipv4Address agent,
                                     std::shared_ptr<const std::string> policy_text) {
  auto& entry = policies_[agent];
  entry.text = std::move(policy_text);
  ++entry.version;
  push_policy(agent);
}

std::size_t PolicyServer::count_connected() const {
  std::size_t n = 0;
  for (const auto& [ip, status] : agents_) n += status.connected ? 1 : 0;
  return n;
}

std::size_t PolicyServer::count_acked_at_least(std::uint64_t version) const {
  std::size_t n = 0;
  for (const auto& [ip, status] : agents_) n += status.acked_version >= version ? 1 : 0;
  return n;
}

void PolicyServer::register_metrics(telemetry::MetricRegistry& registry,
                                    const std::string& labels) {
  registry.counter_fn("policy.pushes", labels,
                      [this] { return static_cast<double>(stats_.pushes); });
  registry.counter_fn("policy.push_bytes", labels,
                      [this] { return static_cast<double>(stats_.push_bytes); });
  registry.counter_fn("policy.acks", labels,
                      [this] { return static_cast<double>(stats_.acks); });
  registry.counter_fn("policy.heartbeats", labels,
                      [this] { return static_cast<double>(stats_.heartbeats); });
  registry.gauge("policy.connected", labels, [this] {
    return static_cast<double>(count_connected());
  });
}

bool PolicyServer::create_vpg(std::uint32_t vpg_id,
                              std::span<const net::Ipv4Address> members) {
  constexpr std::size_t kMasterKeyBytes = 32;
  // Every member must fit before the key is drawn, so a refused group
  // leaves the simulation's RNG stream as an accepted one would find it.
  for (const auto& agent : members) {
    auto it = policies_.find(agent);
    PolicyEntry next = it != policies_.end() ? it->second : PolicyEntry{};
    std::erase_if(next.keys, [vpg_id](const VpgKeyEntry& k) { return k.vpg_id == vpg_id; });
    next.keys.push_back(VpgKeyEntry{vpg_id, std::vector<std::uint8_t>(kMasterKeyBytes)});
    if (policy_body_size(next.version + 1, next.text ? *next.text : std::string_view(),
                         next.keys) > kMaxPolicyBodyBytes) {
      BARB_WARN("policy server: VPG %u key for %s exceeds %zu bytes, refused for all %zu members",
                vpg_id, agent.to_string().c_str(), kMaxPolicyBodyBytes, members.size());
      return false;
    }
  }
  std::vector<std::uint8_t> master(kMasterKeyBytes);
  for (auto& byte : master) {
    byte = static_cast<std::uint8_t>(host_.simulation().rng().next_u64());
  }
  for (const auto& agent : members) {
    auto& entry = policies_[agent];
    // Replace any existing key for this VPG id.
    std::erase_if(entry.keys, [vpg_id](const VpgKeyEntry& k) { return k.vpg_id == vpg_id; });
    entry.keys.push_back(VpgKeyEntry{vpg_id, master});
    ++entry.version;
    push_policy(agent);
  }
  return true;
}

void PolicyServer::command_restart(net::Ipv4Address agent) {
  send_to(agent, PolicyMsgType::kRestart, next_seq_++, {});
}

void PolicyServer::render_policy_body(net::Ipv4Address agent, std::string& body) {
  const auto& entry = policies_[agent];
  body.assign("version ").append(std::to_string(entry.version)).append("\n");
  if (entry.text) body += *entry.text;
  if (!body.ends_with('\n')) body += "\n";
  for (const auto& k : entry.keys) {
    body += "vpgkey " + std::to_string(k.vpg_id) + " " + to_hex(k.master_key) + "\n";
  }
  BARB_ASSERT(body.size() ==
              policy_body_size(entry.version,
                               entry.text ? std::string_view(*entry.text) : std::string_view(),
                               entry.keys));
}

void PolicyServer::push_policy(net::Ipv4Address agent) {
  auto sit = sessions_.find(agent);
  if (sit == sessions_.end()) return;  // will be pushed on connect
  render_policy_body(agent, body_scratch_);
  send_to(agent, PolicyMsgType::kPolicyUpdate, next_seq_++, body_scratch_);
  agents_[agent].pushed_version = policies_[agent].version;
  ++stats_.pushes;
}

void PolicyServer::send_to(net::Ipv4Address agent, PolicyMsgType type, std::uint64_t seq,
                           std::string_view body) {
  auto sit = sessions_.find(agent);
  if (sit == sessions_.end()) return;
  // TcpConnection::send runs no application callback, so nothing reaches
  // the server (and this buffer) before the call below returns.
  auto& bytes = wire_scratch_;
  bytes.clear();
  encode_policy_message(type, seq, body, key_, bytes);
  stats_.push_bytes += type == PolicyMsgType::kPolicyUpdate ? bytes.size() : 0;
  // TCP takes at most its free send-buffer space; whatever it refuses waits
  // in the session's outbound queue, so a large policy or a message behind
  // an undrained push reaches the agent whole.
  Session& session = *sit->second;
  auto& out = session.outbound;
  std::span<const std::uint8_t> rest(bytes);
  if (out.empty()) {
    while (!rest.empty()) {
      const std::size_t taken = session.conn->send(rest);
      if (taken == 0) break;
      rest = rest.subspan(taken);
    }
    out.assign(rest.begin(), rest.end());
  } else {
    out.erase(out.begin(), out.begin() + static_cast<long>(session.outbound_head));
    session.outbound_head = 0;
    out.insert(out.end(), rest.begin(), rest.end());
    flush_outbound(session);
  }
}

void PolicyServer::flush_outbound(Session& session) {
  auto& out = session.outbound;
  while (session.outbound_head < out.size()) {
    const std::size_t taken =
        session.conn->send(std::span(out).subspan(session.outbound_head));
    if (taken == 0) return;
    session.outbound_head += taken;
  }
  out = {};  // release the buffer: most of the time the queue is empty
  session.outbound_head = 0;
}

void PolicyServer::handle_message(Session& session, const PolicyMessage& msg) {
  switch (msg.type) {
    case PolicyMsgType::kHello: {
      // body: "host <ip>"
      const auto pos = msg.body.find("host ");
      if (pos != 0) return;
      auto ip = net::Ipv4Address::parse(
          std::string_view(msg.body).substr(5, msg.body.find_first_of(" \n", 5) - 5));
      if (!ip) return;
      session.identified = true;
      session.agent = *ip;
      // Adopt the session (replacing any stale one).
      for (auto& p : pending_) {
        if (p.get() == &session) {
          sessions_[*ip] = p;
          std::erase(pending_, p);
          break;
        }
      }
      auto& status = agents_[*ip];
      status.connected = true;
      status.last_heartbeat = host_.simulation().now();
      ++stats_.hellos;
      if (policies_.contains(*ip)) push_policy(*ip);
      break;
    }
    case PolicyMsgType::kAck: {
      if (!session.identified) return;
      std::uint64_t version = 0;
      if (std::sscanf(msg.body.c_str(), "version %llu",
                      reinterpret_cast<unsigned long long*>(&version)) == 1) {
        agents_[session.agent].acked_version = version;
        ++stats_.acks;
      }
      break;
    }
    case PolicyMsgType::kHeartbeat: {
      if (!session.identified) return;
      auto& status = agents_[session.agent];
      status.last_heartbeat = host_.simulation().now();
      ++status.heartbeats;
      ++stats_.heartbeats;
      status.reported_locked = msg.body.find("status locked") != std::string::npos;
      break;
    }
    default:
      break;  // agents do not send server-bound types
  }
}

}  // namespace barb::firewall
