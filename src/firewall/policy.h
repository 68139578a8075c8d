// Policy language.
//
// The central policy server defines per-host policies in a small text DSL
// (standing in for the EFW Policy Server's GUI-defined policies), compiled
// to ordered rule-sets on the agent side:
//
//   # comment
//   default deny
//   allow tcp from any to 10.0.0.2 port 80
//   deny udp from 10.1.0.0/16 to any oneway
//   vpg 7 between 10.0.0.2 and 10.0.0.3 port 5001
//
// Serialization (RuleSet::to_string) round-trips through this parser, which
// is how policies travel over the distribution protocol.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "firewall/rule_set.h"

namespace barb::firewall {

struct PolicyParseError {
  int line = 0;
  std::string message;
};

struct PolicyParseResult {
  std::optional<RuleSet> rule_set;
  std::optional<PolicyParseError> error;

  bool ok() const { return rule_set.has_value(); }
};

PolicyParseResult parse_policy(std::string_view text);

// Content-addressed parse. Returns the rule-set for `text`, shared with
// every live holder of byte-identical text in this process, so a policy
// pushed to a thousand agents is parsed once and held once. A hit requires
// the whole text to match, not just its hash. The table is guarded by a
// mutex (sweep workers run simulations on several threads); its entries are
// weak, and the last holder of a rule-set erases the rule-set's entry.
// Failed parses are not cached: each one is re-parsed and reports its error.
struct SharedPolicyParse {
  std::shared_ptr<const RuleSet> rule_set;
  std::optional<PolicyParseError> error;

  bool ok() const { return rule_set != nullptr; }
};

SharedPolicyParse parse_policy_shared(std::string_view text);

// Distinct policies the shared table holds right now.
std::size_t shared_policy_count();

}  // namespace barb::firewall
