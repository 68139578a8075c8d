#include "firewall/policy.h"

#include <gtest/gtest.h>

#include <string>

namespace barb::firewall {
namespace {

TEST(PolicyParser, MinimalAllowAll) {
  auto result = parse_policy("default deny\nallow any from any to any\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.rule_set->size(), 1u);
  EXPECT_EQ(result.rule_set->default_action(), RuleAction::kDeny);
  EXPECT_EQ(result.rule_set->rules()[0].action, RuleAction::kAllow);
  EXPECT_EQ(result.rule_set->rules()[0].protocol, 0);
}

TEST(PolicyParser, FullSelectorRule) {
  auto result = parse_policy(
      "allow tcp from 10.1.0.0/16 port 1024-65535 to 10.0.0.40 port 80\n");
  ASSERT_TRUE(result.ok());
  const Rule& r = result.rule_set->rules()[0];
  EXPECT_EQ(r.protocol, 6);
  EXPECT_EQ(r.src_net, net::Ipv4Address(10, 1, 0, 0));
  EXPECT_EQ(r.src_prefix, 16);
  EXPECT_EQ(r.src_ports, (PortRange{1024, 65535}));
  EXPECT_EQ(r.dst_net, net::Ipv4Address(10, 0, 0, 40));
  EXPECT_EQ(r.dst_prefix, 32);
  EXPECT_EQ(r.dst_ports, (PortRange{80, 80}));
  EXPECT_TRUE(r.bidirectional);
}

TEST(PolicyParser, OnewayModifier) {
  auto result = parse_policy("deny udp from 10.0.0.20 to any oneway\n");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.rule_set->rules()[0].bidirectional);
  EXPECT_EQ(result.rule_set->rules()[0].protocol, 17);
}

TEST(PolicyParser, VpgRule) {
  auto result = parse_policy("vpg 7 between 10.0.0.30 and 10.0.0.40 port 5001\n");
  ASSERT_TRUE(result.ok());
  const Rule& r = result.rule_set->rules()[0];
  EXPECT_EQ(r.action, RuleAction::kVpg);
  EXPECT_EQ(r.vpg_id, 7u);
  EXPECT_EQ(r.src_net, net::Ipv4Address(10, 0, 0, 30));
  EXPECT_EQ(r.dst_net, net::Ipv4Address(10, 0, 0, 40));
  EXPECT_EQ(r.dst_ports, (PortRange{5001, 5001}));
}

TEST(PolicyParser, CommentsAndBlankLines) {
  auto result = parse_policy(
      "# header comment\n"
      "\n"
      "default allow   # trailing comment\n"
      "   \t  \n"
      "deny icmp from any to any  # ping is rude\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.rule_set->default_action(), RuleAction::kAllow);
  EXPECT_EQ(result.rule_set->size(), 1u);
  EXPECT_EQ(result.rule_set->rules()[0].protocol, 1);
}

TEST(PolicyParser, EmptyPolicyIsValid) {
  auto result = parse_policy("");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.rule_set->empty());
}

TEST(PolicyParser, RuleOrderPreserved) {
  auto result = parse_policy(
      "deny tcp from 192.168.0.1 to any\n"
      "allow any from any to any\n"
      "deny udp from any to any\n");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.rule_set->size(), 3u);
  EXPECT_EQ(result.rule_set->rules()[0].action, RuleAction::kDeny);
  EXPECT_EQ(result.rule_set->rules()[1].action, RuleAction::kAllow);
  EXPECT_EQ(result.rule_set->rules()[2].protocol, 17);
}

struct BadPolicyCase {
  const char* text;
  int error_line;
};

// Prints the policy text rather than gtest's default byte dump, whose pointer
// bytes change with every run under ASLR and so gave the CTest cases (named
// after the parameter value) a different name on each build.
void PrintTo(const BadPolicyCase& c, std::ostream* os) {
  *os << "line " << c.error_line << ": ";
  for (const char* p = c.text; *p != '\0'; ++p) {
    if (*p == '\n') {
      *os << "\\n";
    } else {
      *os << *p;
    }
  }
}

class PolicyParserErrors : public ::testing::TestWithParam<BadPolicyCase> {};

TEST_P(PolicyParserErrors, RejectsWithLineNumber) {
  auto result = parse_policy(GetParam().text);
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->line, GetParam().error_line);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PolicyParserErrors,
    ::testing::Values(
        BadPolicyCase{"frobnicate everything\n", 1},
        BadPolicyCase{"default maybe\n", 1},
        BadPolicyCase{"default\n", 1},
        BadPolicyCase{"allow tcp to any\n", 1},                     // missing from
        BadPolicyCase{"allow quic from any to any\n", 1},           // bad protocol
        BadPolicyCase{"allow tcp from 10.0.0.300 to any\n", 1},     // bad ip
        BadPolicyCase{"allow tcp from 10.0.0.0/40 to any\n", 1},    // bad prefix
        BadPolicyCase{"allow tcp from any port 99999 to any\n", 1},  // bad port
        BadPolicyCase{"allow tcp from any port 90-80 to any\n", 1},  // inverted
        BadPolicyCase{"allow tcp from any port 0 to any\n", 1},      // port 0
        BadPolicyCase{"allow tcp from any to any extra\n", 1},       // trailing
        BadPolicyCase{"vpg 0 between 10.0.0.1 and 10.0.0.2\n", 1},   // id 0
        BadPolicyCase{"vpg 1 between 10.0.0.1\n", 1},                // missing and
        BadPolicyCase{"default deny\nallow tcp frm any to any\n", 2}));

TEST(PolicyRoundTrip, SerializeParseIsIdentity) {
  const char* source =
      "default deny\n"
      "deny tcp from 192.168.0.1 to 192.168.250.1\n"
      "allow tcp from 10.1.0.0/16 port 1024-65535 to 10.0.0.40 port 80\n"
      "deny udp from 10.0.0.20 to any oneway\n"
      "vpg 7 between 10.0.0.30 and 10.0.0.40 port 5001\n"
      "allow any from any to any\n";
  auto first = parse_policy(source);
  ASSERT_TRUE(first.ok());
  const std::string serialized = first.rule_set->to_string();
  auto second = parse_policy(serialized);
  ASSERT_TRUE(second.ok()) << serialized;

  ASSERT_EQ(first.rule_set->size(), second.rule_set->size());
  EXPECT_EQ(first.rule_set->default_action(), second.rule_set->default_action());
  for (std::size_t i = 0; i < first.rule_set->size(); ++i) {
    EXPECT_EQ(first.rule_set->rules()[i].to_string(),
              second.rule_set->rules()[i].to_string())
        << "rule " << i;
  }
  // Serialization is a fixed point after one round.
  EXPECT_EQ(second.rule_set->to_string(), serialized);
}

// parse_policy_shared: the content-addressed table behind the agents.

TEST(SharedPolicy, IdenticalTextSharesOneRuleSet) {
  const std::size_t before = shared_policy_count();
  const std::string text = "default deny\nallow tcp from any to any port 80\n";
  const auto a = parse_policy_shared(text);
  const auto b = parse_policy_shared(std::string(text.begin(), text.end()));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.rule_set.get(), b.rule_set.get());
  EXPECT_EQ(shared_policy_count(), before + 1);
  EXPECT_EQ(a.rule_set->to_string(), parse_policy(text).rule_set->to_string());
}

TEST(SharedPolicy, HitNeedsEveryByteToMatch) {
  // Same rules, different bytes: two entries, two rule-sets.
  const auto a = parse_policy_shared("default deny\nallow tcp from any to any\n");
  const auto b = parse_policy_shared("default deny\nallow tcp from any to any \n");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.rule_set.get(), b.rule_set.get());
  EXPECT_EQ(a.rule_set->to_string(), b.rule_set->to_string());
}

TEST(SharedPolicy, EntryLivesAsLongAsItsLastHolder) {
  const std::size_t before = shared_policy_count();
  const std::string text = "default allow\ndeny udp from any to any port 9\n";
  auto a = parse_policy_shared(text).rule_set;
  auto b = parse_policy_shared(text).rule_set;
  EXPECT_EQ(shared_policy_count(), before + 1);
  a.reset();
  EXPECT_EQ(shared_policy_count(), before + 1);
  b.reset();
  EXPECT_EQ(shared_policy_count(), before);
  // After expiry the same text parses into a fresh entry.
  const auto c = parse_policy_shared(text);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(shared_policy_count(), before + 1);
}

TEST(SharedPolicy, ParseErrorsAreNotCached) {
  const std::size_t before = shared_policy_count();
  for (int i = 0; i < 2; ++i) {
    const auto r = parse_policy_shared("default deny\nallow quic from any to any\n");
    EXPECT_FALSE(r.ok());
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->line, 2);
    EXPECT_EQ(shared_policy_count(), before);
  }
}

}  // namespace
}  // namespace barb::firewall
