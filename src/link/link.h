// Full-duplex point-to-point Ethernet link.
//
// Each direction serializes one frame at a time at the configured rate
// (including preamble, FCS, and inter-frame gap, so 100 Mbps yields the real
// maximum frame rates: 8127 fps at 1518-byte frames, 148810 fps at 64-byte
// frames). Each LinkPort owns a finite drop-tail transmit queue; the queue on
// the switch side of a link is exactly the switch egress queue, which is what
// couples a flood to legitimate traffic in the paper's no-firewall baseline.
//
// Delivery runs from a virtual serialization clock, not per-frame events:
// send() admits a frame (or tail-drops it), computes its serialization
// window and delivery instant, and appends it to a per-port FIFO; ONE armed
// timer per port direction delivers every due frame and re-arms. TX
// accounting advances lazily on read, so sampled stats and queue gauges
// match a frame-by-frame serializer at every instant.
//
// A fault injector decides each frame's fate at admission, which is
// serialization order, so its draws are those of an injector consulted at
// serialization start. Lost, delayed and reordered frames keep their FIFO
// slot for TX accounting; delayed and reordered frames and duplicate copies
// are delivered from a side queue ordered by (delivery instant, admission
// index), and the timer is armed at the earlier of the two queue heads.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "link/frame_sink.h"
#include "net/ethernet.h"
#include "net/packet.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"

namespace barb::link {

struct LinkConfig {
  double rate_bps = 100e6;                                   // 100 Mbps Ethernet
  sim::Duration propagation = sim::Duration::nanoseconds(500);  // ~100 m of cable
  // Per-direction TX buffering in BYTES (switches buffer bytes, not frames;
  // byte accounting matters under flood: minimum-size attack frames are ~25x
  // cheaper to queue than full-size data frames).
  std::size_t queue_bytes = 150 * 1024;
};

struct LinkPortStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t dropped_frames = 0;  // TX queue overflow
  // Accumulated serialization time; delta(busy_time)/delta(t) between probe
  // samples is the link's TX utilization over that interval.
  sim::Duration busy_time;
};

class Link;
class FaultInjector;

// One side's attachment point to a link. send() transmits toward the peer;
// frames from the peer are handed to the connected sink.
class LinkPort {
 public:
  ~LinkPort();

  // Registers the local receiver for frames arriving from the peer.
  void connect_sink(FrameSink* sink) { sink_ = sink; }
  FrameSink* sink() const { return sink_; }
  // The port on the other side of this link (null until attached).
  LinkPort* peer() const { return peer_; }

  // Installs a fault injector on this port's TRANSMIT direction (nullptr
  // removes it; not owned). Every frame this port admits afterwards is
  // routed through the injector, which may drop, corrupt, duplicate, delay,
  // or reorder its delivery to the peer. Without an injector the port
  // performs no RNG draws.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  FaultInjector* fault_injector() const { return fault_; }

  // Enqueues a frame for transmission; drops it if the TX queue is full.
  void send(net::Packet pkt);

  const LinkPortStats& stats() const;
  std::size_t queue_depth() const;
  std::size_t queued_bytes() const;

  // Registers this port's stats (frames/bytes/drops/busy time, queue depth)
  // under "link.*" with the given label set. The registry must not be
  // sampled after this port is destroyed.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels) const;

  // Wire occupancy time of a frame on this link.
  sim::Duration frame_time(std::size_t frame_bytes) const;

 private:
  friend class Link;

  // A frame admitted to the TX queue, FIFO in serialization order.
  struct PendingFrame {
    sim::TimePoint ser_start;   // transmitter picks the frame up
    sim::TimePoint deliver_at;  // serialization end + propagation
    sim::Duration tx_time;      // serialization time (busy_time contribution)
    std::uint32_t bytes = 0;
    // False when the fault injector lost the frame or moved its delivery to
    // the side queue; the entry then only carries TX accounting.
    bool deliver = true;
    net::Packet pkt;
  };
  // A delivery off the FIFO's schedule: a delayed or reordered frame, or a
  // duplicate copy. `index` is the frame's admission index (ties at one
  // instant deliver in admission order, as FIFO frames do).
  struct SideDelivery {
    sim::TimePoint deliver_at;
    std::uint64_t index = 0;
    net::Packet pkt;
    bool operator>(const SideDelivery& o) const {
      return std::tie(deliver_at, index) > std::tie(o.deliver_at, o.index);
    }
  };

  // Applies TX-side accounting (tx_frames/tx_bytes/busy_time, queue drain)
  // for every pending frame whose serialization has started by `now`.
  void advance_accounting(sim::TimePoint now) const;
  // Routes a just-admitted frame through the fault injector.
  void apply_fault(PendingFrame& frame, std::uint64_t index);
  void deliver(net::Packet pkt);
  void deliver_due();
  void arm_timer();

  Link* link_ = nullptr;
  LinkPort* peer_ = nullptr;
  FrameSink* sink_ = nullptr;
  FaultInjector* fault_ = nullptr;

  // Frames admitted but not yet delivered. Entries below acct_idx_ have had
  // their TX accounting applied; queued_bytes_ sums the entries above it.
  // admitted_ counts every admission, so the head's admission index is
  // admitted_ - pending_.size().
  std::deque<PendingFrame> pending_;
  mutable std::size_t acct_idx_ = 0;
  std::uint64_t admitted_ = 0;
  sim::TimePoint tx_free_at_;
  // Empty unless a fault injector is set.
  std::priority_queue<SideDelivery, std::vector<SideDelivery>, std::greater<>> side_;
  sim::EventHandle timer_;
  sim::TimePoint timer_at_;

  mutable std::size_t queued_bytes_ = 0;
  mutable LinkPortStats stats_;
};

class Link {
 public:
  Link(sim::Simulation& sim, LinkConfig config = {});

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  LinkPort& a() { return a_; }
  LinkPort& b() { return b_; }
  const LinkConfig& config() const { return config_; }

 private:
  friend class LinkPort;

  sim::Simulation& sim_;
  LinkConfig config_;
  LinkPort a_;
  LinkPort b_;
};

}  // namespace barb::link
