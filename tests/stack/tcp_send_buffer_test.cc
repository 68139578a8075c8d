// The TCP send buffer: one contiguous byte buffer with a head offset that
// segments are cut from by span. These tests drive one sender by hand — a
// capturing NIC records every segment it emits, and the test plays the peer
// by feeding ACKs straight into handle_segment — so they can place acks at
// the exact points where the buffer compacts, drains and refills.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "stack/host.h"
#include "stack/tcp.h"

namespace barb::stack {
namespace {

using net::TcpFlags;

// Records outbound frames instead of putting them on a wire.
class CaptureNic : public StandardNic {
 public:
  using StandardNic::StandardNic;
  void transmit(net::Packet pkt) override {
    ++stats_.tx_requested;
    frames.push_back(std::move(pkt));
  }
  std::vector<net::Packet> frames;
};

struct Segment {
  std::uint32_t seq = 0;
  std::uint8_t flags = 0;
  std::vector<std::uint8_t> payload;
};

// The byte at stream offset i of everything the test sends.
std::uint8_t pattern(std::size_t i) { return static_cast<std::uint8_t>(i * 7 + i / 251); }

std::vector<std::uint8_t> stream_bytes(std::size_t from, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern(from + i);
  return out;
}

class SendBuffer : public ::testing::Test {
 protected:
  static constexpr std::uint16_t kMss = 1000;
  static constexpr std::uint32_t kPeerIss = 5000;

  SendBuffer() {
    auto nic = std::make_unique<CaptureNic>(sim_, net::MacAddress::from_host_id(1), "a/nic");
    nic_ = nic.get();
    HostConfig config;
    config.mss = kMss;
    host_ = std::make_unique<Host>(sim_, "a", net::Ipv4Address(10, 0, 0, 1),
                                   std::move(nic), config);
    const net::Ipv4Address peer(10, 0, 0, 2);
    host_->arp().add(peer, net::MacAddress::from_host_id(2));
    conn_ = host_->tcp_connect(peer, 80);

    const auto syn = take();
    EXPECT_EQ(syn.size(), 1u);
    base_ = syn.at(0).seq + 1;
    net::TcpHeader synack;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    synack.seq = kPeerIss;
    synack.ack = base_;
    synack.window = 65535;
    synack.mss = kMss;
    conn_->handle_segment(synack, {});
    EXPECT_EQ(conn_->state(), TcpState::kEstablished);
    take();  // the handshake's final ACK
    highest_ = 0;
  }

  // Segments emitted since the last call, in order.
  std::vector<Segment> take() {
    std::vector<Segment> out;
    for (const auto& pkt : nic_->frames) {
      const net::FrameView* v = pkt.view();
      if (v == nullptr || !v->tcp) continue;
      out.push_back({v->tcp->seq, v->tcp->flags,
                     std::vector<std::uint8_t>(v->l4_payload.begin(), v->l4_payload.end())});
      highest_ = std::max<std::size_t>(highest_, v->tcp->seq - base_ + v->l4_payload.size());
    }
    nic_->frames.clear();
    return out;
  }

  // Peer acknowledges every byte before stream offset `offset`.
  void ack(std::size_t offset) {
    net::TcpHeader h;
    h.flags = TcpFlags::kAck;
    h.seq = kPeerIss + 1;
    h.ack = base_ + static_cast<std::uint32_t>(offset);
    h.window = 65535;
    conn_->handle_segment(h, {});
  }

  // Queues stream bytes [from, from + n); returns how many were accepted.
  std::size_t send(std::size_t from, std::size_t n) {
    return conn_->send(stream_bytes(from, n));
  }

  // Every data segment must carry exactly the stream bytes at its sequence.
  void expect_payloads_match(const std::vector<Segment>& segs) {
    for (const auto& s : segs) {
      if (s.payload.empty()) continue;
      const std::size_t offset = s.seq - base_;
      EXPECT_EQ(s.payload, stream_bytes(offset, s.payload.size())) << "offset " << offset;
    }
  }

  sim::Simulation sim_{1};
  CaptureNic* nic_ = nullptr;
  std::unique_ptr<Host> host_;
  std::shared_ptr<TcpConnection> conn_;
  std::uint32_t base_ = 0;  // sequence number of stream offset 0
  std::size_t highest_ = 0;  // stream offset just past the last byte sent
};

TEST_F(SendBuffer, PartialAcksAcrossCompaction) {
  ASSERT_EQ(send(0, 6000), 6000u);
  std::size_t acked = 0;
  std::size_t sent = 6000;
  // Acks that end mid-segment, with more data queued between them: the
  // acked prefix overtakes the remainder (compaction) several times while
  // bytes are still in flight and still being appended.
  for (const std::size_t step : {500u, 1700u, 2300u, 900u, 3100u, 1200u, 2600u}) {
    expect_payloads_match(take());
    acked = std::min(acked + step, highest_);
    ack(acked);
    ASSERT_EQ(send(sent, 1500), 1500u);
    sent += 1500;
  }
  while (acked < sent) {
    expect_payloads_match(take());
    ASSERT_GT(highest_, acked);
    acked = highest_;
    ack(acked);
  }
  EXPECT_EQ(conn_->stats().bytes_acked, sent);
  EXPECT_EQ(conn_->stats().bytes_sent, sent);
  EXPECT_EQ(conn_->stats().retransmissions, 0u);
}

TEST_F(SendBuffer, RetransmitFromTheMiddleAfterCompaction) {
  ASSERT_EQ(send(0, 4000), 4000u);
  expect_payloads_match(take());
  // Acking 3000 of 4000 compacts: the retained tail moves to the front.
  ack(3000);
  ASSERT_EQ(send(4000, 3000), 3000u);
  expect_payloads_match(take());

  // Three duplicate acks at 3000: fast retransmit of the segment at 3000.
  for (int i = 0; i < 3; ++i) ack(3000);
  auto segs = take();
  ASSERT_FALSE(segs.empty());
  EXPECT_EQ(segs.front().seq, base_ + 3000);
  EXPECT_EQ(segs.front().payload, stream_bytes(3000, kMss));
  expect_payloads_match(segs);

  // Then a timeout: go-back-N resends from the same middle offset.
  sim_.run_for(sim::Duration::seconds(2));
  segs = take();
  ASSERT_FALSE(segs.empty());
  EXPECT_EQ(segs.front().seq, base_ + 3000);
  expect_payloads_match(segs);
  EXPECT_GT(conn_->stats().retransmissions, 1u);
}

TEST_F(SendBuffer, SendAfterFullDrain) {
  ASSERT_EQ(send(0, 2500), 2500u);
  expect_payloads_match(take());
  ack(2500);  // everything acked: the buffer gives its storage back
  EXPECT_EQ(conn_->send_space(), TcpConfig{}.send_buffer_cap);
  EXPECT_TRUE(take().empty());

  ASSERT_EQ(send(2500, 1800), 1800u);
  const auto segs = take();
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].seq, base_ + 2500);
  expect_payloads_match(segs);
  ack(4300);
  EXPECT_EQ(conn_->stats().bytes_acked, 4300u);
}

TEST_F(SendBuffer, CapBoundary) {
  const std::size_t cap = TcpConfig{}.send_buffer_cap;
  EXPECT_EQ(conn_->send_space(), cap);
  EXPECT_EQ(send(0, cap + 10), cap);  // takes exactly the cap
  EXPECT_EQ(conn_->send_space(), 0u);
  EXPECT_EQ(send(cap, 1), 0u);        // full: nothing more

  expect_payloads_match(take());
  ack(1000);
  EXPECT_EQ(conn_->send_space(), 1000u);
  EXPECT_EQ(send(cap, 2000), 1000u);  // refills exactly the freed space
  EXPECT_EQ(conn_->send_space(), 0u);

  // Drain it all: every byte, first transmissions and refill alike, is the
  // stream byte at its sequence.
  std::size_t acked = 1000;
  while (acked < cap + 1000) {
    expect_payloads_match(take());
    ASSERT_GT(highest_, acked);
    acked = highest_;
    ack(acked);
  }
  EXPECT_EQ(conn_->send_space(), cap);
  EXPECT_EQ(conn_->stats().bytes_acked, cap + 1000);
}

}  // namespace
}  // namespace barb::stack
