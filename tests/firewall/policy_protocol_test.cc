#include "firewall/policy_protocol.h"

#include <gtest/gtest.h>

#include "sim/random.h"

namespace barb::firewall {
namespace {

std::vector<std::uint8_t> key() { return std::vector<std::uint8_t>(32, 0x5c); }

TEST(PolicyProtocol, EncodeDecodeRoundTrip) {
  PolicyMessage msg;
  msg.type = PolicyMsgType::kPolicyUpdate;
  msg.seq = 42;
  msg.body = "version 3\ndefault deny\nallow any from any to any\n";

  const auto bytes = encode_policy_message(msg, key());
  PolicyMessageReader reader;
  reader.append(bytes);
  auto decoded = reader.next(key());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, PolicyMsgType::kPolicyUpdate);
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->body, msg.body);
  EXPECT_FALSE(reader.next(key()).has_value());
  EXPECT_FALSE(reader.corrupted());
}

TEST(PolicyProtocol, EmptyBodyMessage) {
  PolicyMessage msg;
  msg.type = PolicyMsgType::kRestart;
  msg.seq = 1;
  const auto bytes = encode_policy_message(msg, key());
  PolicyMessageReader reader;
  reader.append(bytes);
  auto decoded = reader.next(key());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, PolicyMsgType::kRestart);
  EXPECT_TRUE(decoded->body.empty());
}

// The appending encoder writes the same frame as the returning one, after
// whatever the buffer already holds, so one buffer can serve every message.
TEST(PolicyProtocol, EncodeAppendsToACallerBuffer) {
  const PolicyMessage m1{PolicyMsgType::kPolicyUpdate, 5, "version 2\ndefault deny\n"};
  const PolicyMessage m2{PolicyMsgType::kRestart, 6, ""};
  auto want = encode_policy_message(m1, key());
  const auto w2 = encode_policy_message(m2, key());
  want.insert(want.end(), w2.begin(), w2.end());

  std::vector<std::uint8_t> buf;
  encode_policy_message(m1.type, m1.seq, m1.body, key(), buf);
  encode_policy_message(m2.type, m2.seq, m2.body, key(), buf);
  EXPECT_EQ(buf, want);

  buf.clear();
  encode_policy_message(m2.type, m2.seq, m2.body, key(), buf);
  EXPECT_EQ(buf, w2);
}

TEST(PolicyProtocol, StreamReassemblyAcrossArbitrarySplits) {
  PolicyMessage m1{PolicyMsgType::kHello, 1, "host 10.0.0.40"};
  PolicyMessage m2{PolicyMsgType::kHeartbeat, 2, "status ok processed 100"};
  auto bytes = encode_policy_message(m1, key());
  const auto b2 = encode_policy_message(m2, key());
  bytes.insert(bytes.end(), b2.begin(), b2.end());

  sim::Random rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    PolicyMessageReader reader;
    std::vector<PolicyMessage> got;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t n =
          std::min(bytes.size() - pos, static_cast<std::size_t>(rng.uniform(13) + 1));
      reader.append(std::span(bytes).subspan(pos, n));
      pos += n;
      while (auto msg = reader.next(key())) got.push_back(*msg);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].body, m1.body);
    EXPECT_EQ(got[1].seq, 2u);
    EXPECT_FALSE(reader.corrupted());
  }
}

// A policy-sized body arriving one MSS at a time, as the agent reads it.
TEST(PolicyProtocol, LargeBodyRoundTripInSegmentSizedChunks) {
  sim::Random rng(11);
  PolicyMessage msg;
  msg.type = PolicyMsgType::kPolicyUpdate;
  msg.seq = 9;
  msg.body.resize(300 * 1024);
  for (auto& c : msg.body) c = static_cast<char>('a' + rng.uniform(26));
  const auto bytes = encode_policy_message(msg, key());

  PolicyMessageReader reader;
  std::vector<PolicyMessage> got;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 1460) {
    reader.append(std::span(bytes).subspan(pos, std::min<std::size_t>(1460, bytes.size() - pos)));
    while (auto m = reader.next(key())) got.push_back(std::move(*m));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, PolicyMsgType::kPolicyUpdate);
  EXPECT_EQ(got[0].seq, 9u);
  EXPECT_EQ(got[0].body, msg.body);
  EXPECT_FALSE(reader.corrupted());
}

TEST(PolicyProtocol, WrongKeyPoisonsStream) {
  PolicyMessage msg{PolicyMsgType::kHello, 1, "host 10.0.0.40"};
  const auto bytes = encode_policy_message(msg, key());
  PolicyMessageReader reader;
  reader.append(bytes);
  const std::vector<std::uint8_t> wrong(32, 0x00);
  EXPECT_FALSE(reader.next(wrong).has_value());
  EXPECT_TRUE(reader.corrupted());
  // Stream stays dead even with the right key afterwards.
  EXPECT_FALSE(reader.next(key()).has_value());
}

TEST(PolicyProtocol, TamperedBytesRejected) {
  PolicyMessage msg{PolicyMsgType::kPolicyUpdate, 9, "version 1\ndefault deny\n"};
  auto bytes = encode_policy_message(msg, key());
  for (std::size_t i : {std::size_t{4}, std::size_t{10}, bytes.size() / 2,
                        bytes.size() - 1}) {
    auto bad = bytes;
    bad[i] ^= 0x01;
    PolicyMessageReader reader;
    reader.append(bad);
    EXPECT_FALSE(reader.next(key()).has_value()) << "byte " << i;
    EXPECT_TRUE(reader.corrupted());
  }
}

TEST(PolicyProtocol, BadMagicRejectedImmediately) {
  std::vector<std::uint8_t> junk(64, 0xee);
  PolicyMessageReader reader;
  reader.append(junk);
  EXPECT_FALSE(reader.next(key()).has_value());
  EXPECT_TRUE(reader.corrupted());
}

TEST(PolicyProtocol, OversizedLengthRejected) {
  // Forge a header with a 100 MB body claim. The MAC would fail anyway, but
  // the reader must refuse before buffering gigabytes.
  PolicyMessage msg{PolicyMsgType::kHello, 1, "x"};
  auto bytes = encode_policy_message(msg, key());
  bytes[14] = 0x40;  // length field high byte -> ~1 GB
  PolicyMessageReader reader;
  reader.append(bytes);
  EXPECT_FALSE(reader.next(key()).has_value());
  EXPECT_TRUE(reader.corrupted());
}

TEST(PolicyProtocol, ParseHex) {
  auto bytes = parse_hex("00ff10ab");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, (std::vector<std::uint8_t>{0x00, 0xff, 0x10, 0xab}));
  EXPECT_TRUE(parse_hex("")->empty());
  EXPECT_FALSE(parse_hex("abc").has_value());   // odd length
  EXPECT_FALSE(parse_hex("zz").has_value());    // bad digits
  auto upper = parse_hex("ABCD");
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(*upper, (std::vector<std::uint8_t>{0xab, 0xcd}));
}

}  // namespace
}  // namespace barb::firewall
