#include "firewall/policy.h"

#include <charconv>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace barb::firewall {

namespace {

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    if (pos > start) tokens.push_back(line.substr(start, pos - start));
  }
  return tokens;
}

bool parse_u16(std::string_view s, std::uint16_t& out) {
  unsigned value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size() || value > 65535) return false;
  out = static_cast<std::uint16_t>(value);
  return true;
}

bool parse_u32(std::string_view s, std::uint32_t& out) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size() || value > 0xffffffffULL) {
    return false;
  }
  out = static_cast<std::uint32_t>(value);
  return true;
}

// "any" | ip | ip/prefix, optionally followed by "port lo[-hi]" tokens.
// Consumes tokens starting at `i`.
bool parse_endpoint(const std::vector<std::string_view>& tokens, std::size_t& i,
                    net::Ipv4Address& net_out, int& prefix_out, PortRange& ports_out,
                    std::string& error) {
  if (i >= tokens.size()) {
    error = "expected address";
    return false;
  }
  const std::string_view addr = tokens[i++];
  if (addr == "any") {
    net_out = net::Ipv4Address::any();
    prefix_out = 0;
  } else {
    const auto slash = addr.find('/');
    std::string_view ip_part = addr.substr(0, slash);
    auto ip = net::Ipv4Address::parse(ip_part);
    if (!ip) {
      error = "bad address '" + std::string(addr) + "'";
      return false;
    }
    net_out = *ip;
    if (slash == std::string_view::npos) {
      prefix_out = 32;
    } else {
      std::uint16_t prefix = 0;
      if (!parse_u16(addr.substr(slash + 1), prefix) || prefix > 32) {
        error = "bad prefix in '" + std::string(addr) + "'";
        return false;
      }
      prefix_out = prefix;
    }
  }
  ports_out = PortRange{};
  if (i < tokens.size() && tokens[i] == "port") {
    ++i;
    if (i >= tokens.size()) {
      error = "expected port number";
      return false;
    }
    const std::string_view spec = tokens[i++];
    const auto dash = spec.find('-');
    std::uint16_t lo = 0, hi = 0;
    if (dash == std::string_view::npos) {
      if (!parse_u16(spec, lo)) {
        error = "bad port '" + std::string(spec) + "'";
        return false;
      }
      hi = lo;
    } else {
      if (!parse_u16(spec.substr(0, dash), lo) || !parse_u16(spec.substr(dash + 1), hi) ||
          lo > hi) {
        error = "bad port range '" + std::string(spec) + "'";
        return false;
      }
    }
    if (lo == 0) {
      error = "port 0 is not allowed in a rule";
      return false;
    }
    ports_out = PortRange{lo, hi};
  }
  return true;
}

bool parse_protocol(std::string_view token, std::uint8_t& out) {
  if (token == "any") {
    out = 0;
  } else if (token == "tcp") {
    out = 6;
  } else if (token == "udp") {
    out = 17;
  } else if (token == "icmp") {
    out = 1;
  } else {
    return false;
  }
  return true;
}

}  // namespace

PolicyParseResult parse_policy(std::string_view text) {
  RuleSet rule_set;
  PolicyParseResult result;

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    // Strip comments.
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;

    auto fail = [&](std::string message) {
      result.error = PolicyParseError{line_no, std::move(message)};
      return result;
    };

    if (tokens[0] == "default") {
      if (tokens.size() != 2) return fail("usage: default allow|deny");
      if (tokens[1] == "allow") {
        rule_set.set_default_action(RuleAction::kAllow);
      } else if (tokens[1] == "deny") {
        rule_set.set_default_action(RuleAction::kDeny);
      } else {
        return fail("default action must be allow or deny");
      }
      continue;
    }

    if (tokens[0] == "allow" || tokens[0] == "deny") {
      Rule rule;
      rule.action = tokens[0] == "allow" ? RuleAction::kAllow : RuleAction::kDeny;
      std::size_t i = 1;
      if (i >= tokens.size()) return fail("expected protocol");
      if (!parse_protocol(tokens[i++], rule.protocol)) {
        return fail("unknown protocol '" + std::string(tokens[i - 1]) + "'");
      }
      std::string error;
      if (i >= tokens.size() || tokens[i] != "from") return fail("expected 'from'");
      ++i;
      if (!parse_endpoint(tokens, i, rule.src_net, rule.src_prefix, rule.src_ports,
                          error)) {
        return fail(error);
      }
      if (i >= tokens.size() || tokens[i] != "to") return fail("expected 'to'");
      ++i;
      if (!parse_endpoint(tokens, i, rule.dst_net, rule.dst_prefix, rule.dst_ports,
                          error)) {
        return fail(error);
      }
      if (i < tokens.size() && tokens[i] == "oneway") {
        rule.bidirectional = false;
        ++i;
      }
      if (i != tokens.size()) return fail("trailing tokens");
      rule_set.add(rule);
      continue;
    }

    if (tokens[0] == "vpg") {
      Rule rule;
      rule.action = RuleAction::kVpg;
      std::size_t i = 1;
      if (i >= tokens.size() || !parse_u32(tokens[i], rule.vpg_id) || rule.vpg_id == 0) {
        return fail("expected nonzero vpg id");
      }
      ++i;
      std::string error;
      if (i >= tokens.size() || tokens[i] != "between") return fail("expected 'between'");
      ++i;
      if (!parse_endpoint(tokens, i, rule.src_net, rule.src_prefix, rule.src_ports,
                          error)) {
        return fail(error);
      }
      if (i >= tokens.size() || tokens[i] != "and") return fail("expected 'and'");
      ++i;
      if (!parse_endpoint(tokens, i, rule.dst_net, rule.dst_prefix, rule.dst_ports,
                          error)) {
        return fail(error);
      }
      if (i != tokens.size()) return fail("trailing tokens");
      rule_set.add(rule);
      continue;
    }

    return fail("unknown directive '" + std::string(tokens[0]) + "'");
  }

  result.rule_set = std::move(rule_set);
  return result;
}

namespace {

// One parsed policy and the text it came from. The table's key views this
// text, so each distinct policy's text is held once, by its node.
struct SharedPolicyNode {
  std::string text;
  RuleSet rules;
};

struct SharedPolicyTable {
  std::mutex mu;
  std::unordered_map<std::string_view, std::weak_ptr<const RuleSet>> entries;
};

// Never destroyed: a rule-set may be released during static destruction.
SharedPolicyTable& shared_policy_table() {
  static auto* table = new SharedPolicyTable;
  return *table;
}

// The last holder's deleter. The entry is erased only if it is still this
// node's: a holder that found it expired may already have replaced it.
void release_shared_policy(SharedPolicyNode* node) {
  auto& table = shared_policy_table();
  {
    std::lock_guard lock(table.mu);
    auto it = table.entries.find(node->text);
    if (it != table.entries.end() && it->first.data() == node->text.data()) {
      table.entries.erase(it);
    }
  }
  delete node;
}

}  // namespace

SharedPolicyParse parse_policy_shared(std::string_view text) {
  auto& table = shared_policy_table();
  {
    std::lock_guard lock(table.mu);
    auto it = table.entries.find(text);
    if (it != table.entries.end()) {
      if (auto live = it->second.lock()) return {std::move(live), std::nullopt};
    }
  }

  // Parse outside the lock; another thread may publish the same text first.
  auto parsed = parse_policy(text);
  if (!parsed.ok()) return {nullptr, std::move(parsed.error)};
  auto* node = new SharedPolicyNode{std::string(text), std::move(*parsed.rule_set)};
  const std::shared_ptr<SharedPolicyNode> owner(node, release_shared_policy);
  std::shared_ptr<const RuleSet> rules(owner, &node->rules);

  std::lock_guard lock(table.mu);
  auto it = table.entries.find(text);
  if (it != table.entries.end()) {
    if (auto live = it->second.lock()) {
      rules.swap(live);  // ours is released after the lock, below
      return {std::move(rules), std::nullopt};
    }
    table.entries.erase(it);  // expired: its deleter is waiting for the lock
  }
  table.entries.emplace(std::string_view(node->text), rules);
  return {std::move(rules), std::nullopt};
}

std::size_t shared_policy_count() {
  auto& table = shared_policy_table();
  std::lock_guard lock(table.mu);
  return table.entries.size();
}

}  // namespace barb::firewall
