// Ordered first-match rule-set with traversal-cost accounting.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "firewall/rule.h"
#include "net/frame_view.h"

namespace barb::firewall {

struct MatchResult {
  RuleAction action = RuleAction::kDeny;
  // Rule units examined up to and including the matching rule (VPG pairs
  // count as two). When the default action applies, this is the full
  // rule-set cost — every rule was examined.
  int rules_traversed = 0;
  // VPG rules among those examined (for the decrypt-always ablation model).
  int vpg_rules_traversed = 0;
  std::uint32_t vpg_id = 0;       // when action == kVpg
  int matched_index = -1;         // -1 means the default action applied
};

class RuleSet {
 public:
  RuleSet() = default;
  explicit RuleSet(std::vector<Rule> rules, RuleAction default_action = RuleAction::kDeny)
      : rules_(std::move(rules)), default_action_(default_action) {}

  void add(Rule rule) { rules_.push_back(rule); }
  void set_default_action(RuleAction action) { default_action_ = action; }
  RuleAction default_action() const { return default_action_; }
  const std::vector<Rule>& rules() const { return rules_; }
  std::size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }

  // Total traversal cost of a full scan (the default-action case).
  int total_cost_units() const {
    int units = 0;
    for (const auto& r : rules_) units += r.cost_units();
    return units;
  }

  // First-match evaluation over a parsed frame. VPG-encapsulated inbound
  // frames match a VPG rule by id (the device cannot see inner selectors
  // without decrypting — "the ADF avoids decrypting incoming packets until
  // they reach the matching VPG rule"); cleartext frames match VPG rules by
  // their selectors (outbound direction, pre-encapsulation).
  MatchResult match(const net::FrameView& v) const;

  // Convenience for cleartext tuples (software firewall, tests).
  MatchResult match(const net::FiveTuple& t) const;

  std::string to_string() const;

  // Heap bytes held by this rule-set, the object itself included.
  std::size_t memory_bytes() const {
    return sizeof(RuleSet) + rules_.capacity() * sizeof(Rule);
  }

 private:
  std::vector<Rule> rules_;
  RuleAction default_action_ = RuleAction::kDeny;
};

}  // namespace barb::firewall
