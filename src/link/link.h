// Full-duplex point-to-point Ethernet link.
//
// Each direction serializes one frame at a time at the configured rate
// (including preamble, FCS, and inter-frame gap, so 100 Mbps yields the real
// maximum frame rates: 8127 fps at 1518-byte frames, 148810 fps at 64-byte
// frames). Each LinkPort owns a finite drop-tail transmit queue; the queue on
// the switch side of a link is exactly the switch egress queue, which is what
// couples a flood to legitimate traffic in the paper's no-firewall baseline.
//
// Delivery engines. The classic per-frame engine costs two scheduler events
// per frame (delivery + transmitter-free), and every queued frame holds a
// pending event — at fleet scale that is the dominant scheduler load. The
// batched engine replays the identical timeline from a virtual serialization
// clock: send() computes each frame's serialization window and delivery time
// arithmetically, frames wait in a per-port delivery queue, and ONE armed
// timer per port direction delivers the head and re-arms for the next. TX
// accounting is applied lazily (advance-on-read) so sampled metrics see the
// same values at the same instants; the pending-event population drops from
// O(frames in flight) to O(port directions) and the transmitter-free events
// vanish. Ports with a fault injector always take the per-frame path: the
// injector draws RNG at serialization start, and only the per-frame engine
// executes an event there.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

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
  // Selects the batched delivery engine for both ports of this link. The
  // timeline is identical either way (gated byte-identical on the paper
  // figures); batched is the default for fleet fabrics, per-frame for the
  // 4-host testbed preset.
  bool batched = false;
};

// Effective delivery mode for newly built links: the BARB_LINK_BATCH
// environment variable ("1"/"0") overrides the builder's default.
bool batch_delivery_enabled(bool default_batched);

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
  // removes it; not owned). Every frame this port serializes is routed
  // through the injector, which may drop, corrupt, duplicate, delay, or
  // reorder its delivery to the peer. Without an injector the port takes
  // the exact fault-free path and performs no RNG draws. Install before any
  // traffic: a port must run one delivery engine for its whole lifetime.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return fault_; }

  // Enqueues a frame for transmission; drops it if the TX queue is full.
  void send(net::Packet pkt);

  const LinkPortStats& stats() const;
  std::size_t queue_depth() const;
  std::size_t queued_bytes() const;
  bool connected() const { return link_ != nullptr; }

  // Registers this port's stats (frames/bytes/drops/busy time, queue depth)
  // under "link.*" with the given label set. The registry must not be
  // sampled after this port is destroyed.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels) const;

  // Wire occupancy time of a frame on this link.
  sim::Duration frame_time(std::size_t frame_bytes) const;

 private:
  friend class Link;
  friend class FaultInjector;

  // --- per-frame engine ---
  void start_transmission(net::Packet pkt);
  void on_transmit_complete();
  // Schedules delivery of `pkt` to the peer after `delay`; rx accounting
  // happens at delivery time. The fault injector calls this zero, one, or
  // two times per transmitted frame.
  void schedule_delivery(net::Packet pkt, sim::Duration delay);

  // --- batched engine ---
  struct PendingFrame {
    sim::TimePoint ser_start;   // transmitter picks the frame up
    sim::TimePoint deliver_at;  // serialization end + propagation
    sim::Duration tx_time;      // serialization time (busy_time contribution)
    std::size_t bytes = 0;
    net::Packet pkt;
  };

  bool use_batched() const;
  // Applies TX-side accounting (tx_frames/tx_bytes/busy_time, queue drain)
  // for every pending frame whose serialization has started by `now`.
  // Observers (stats(), queue gauges) advance to the current instant before
  // reading, so sampled values match the per-frame engine's exactly.
  void advance_accounting(sim::TimePoint now) const;
  void deliver_batch();
  void arm_batch_timer(sim::TimePoint at);

  Link* link_ = nullptr;
  LinkPort* peer_ = nullptr;
  FrameSink* sink_ = nullptr;
  FaultInjector* fault_ = nullptr;

  // Per-frame engine state.
  std::deque<net::Packet> queue_;
  bool transmitting_ = false;

  // Batched engine state: frames sent but not yet delivered, FIFO in
  // serialization (= delivery) order. Entries below acct_idx_ have had their
  // TX accounting applied; queued_bytes_ sums the entries above it.
  std::deque<PendingFrame> pending_;
  mutable std::size_t acct_idx_ = 0;
  sim::TimePoint tx_free_at_;
  sim::EventHandle batch_timer_;

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
  sim::Simulation& simulation() { return sim_; }

 private:
  friend class LinkPort;

  sim::Simulation& sim_;
  LinkConfig config_;
  LinkPort a_;
  LinkPort b_;
};

}  // namespace barb::link
