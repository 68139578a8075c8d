// Policy distribution wire protocol.
//
// The EFW ships a central policy server that pushes rule-sets to firewall
// agents on every protected host. Our equivalent runs over the simulated
// TCP stack with HMAC-SHA256 message authentication under a shared
// deployment key (a compromised host must not be able to forge policy for
// others).
//
// Frame layout (big-endian):
//   magic   u32  'BPLC'
//   type    u8
//   flags   u8 (reserved, 0)
//   seq     u64  per-connection monotonic
//   len     u32  body length
//   body    len bytes (UTF-8, type-specific)
//   hmac    32 bytes over everything above
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace barb::firewall {

enum class PolicyMsgType : std::uint8_t {
  kHello = 1,         // agent -> server: "host <ip>"
  kPolicyUpdate = 2,  // server -> agent: "version <n>\n<policy text + vpgkey lines>"
  kAck = 3,           // agent -> server: "version <n>"
  kHeartbeat = 4,     // agent -> server: "status <ok|locked> processed <n>"
  kRestart = 5,       // server -> agent: restart the firewall card
};

struct PolicyMessage {
  PolicyMsgType type = PolicyMsgType::kHello;
  std::uint64_t seq = 0;
  std::string body;
};

constexpr std::uint32_t kPolicyMagic = 0x42504c43;  // 'BPLC'
constexpr std::size_t kPolicyMacSize = 32;
// Largest body either side handles. A reader treats a longer length field
// as a poisoned stream; the server refuses to set a policy whose body would
// exceed it, so an oversized policy fails at set_policy, not as an endless
// push / abort / reconnect loop.
constexpr std::size_t kMaxPolicyBodyBytes = std::size_t{1} << 20;

std::vector<std::uint8_t> encode_policy_message(const PolicyMessage& msg,
                                                std::span<const std::uint8_t> key);
// Appends the encoded message to `out`. A sender that keeps one buffer for
// every message reuses its capacity instead of allocating each frame.
void encode_policy_message(PolicyMsgType type, std::uint64_t seq, std::string_view body,
                           std::span<const std::uint8_t> key, std::vector<std::uint8_t>& out);

// Incremental decoder over a TCP byte stream. Feed bytes with append();
// next() yields complete, authenticated messages. A bad MAC or malformed
// header poisons the stream (corrupted() == true) — the connection should
// be dropped, which is what an agent under attack must do. The reader gives
// its buffer back whenever it has drained, so an idle connection holds no
// copy of the last policy it received.
class PolicyMessageReader {
 public:
  void append(std::span<const std::uint8_t> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  std::optional<PolicyMessage> next(std::span<const std::uint8_t> key);
  bool corrupted() const { return corrupted_; }

 private:
  std::vector<std::uint8_t> buffer_;
  bool corrupted_ = false;
};

// Hex helpers for VPG key lines in policy bodies.
std::optional<std::vector<std::uint8_t>> parse_hex(std::string_view hex);

}  // namespace barb::firewall
