#include "link/link.h"

#include <algorithm>
#include <utility>

#include "link/fault_injector.h"
#include "util/assert.h"
#include "util/logging.h"

namespace barb::link {

Link::Link(sim::Simulation& sim, LinkConfig config) : sim_(sim), config_(config) {
  a_.link_ = this;
  a_.peer_ = &b_;
  b_.link_ = this;
  b_.peer_ = &a_;
}

LinkPort::~LinkPort() { timer_.cancel(); }

sim::Duration LinkPort::frame_time(std::size_t frame_bytes) const {
  BARB_ASSERT(link_ != nullptr);
  const std::size_t wire_bytes =
      std::max(frame_bytes, net::kEthernetMinFrameNoFcs) + net::kEthernetWireOverhead;
  const double seconds =
      static_cast<double>(wire_bytes) * 8.0 / link_->config().rate_bps;
  return sim::Duration::from_seconds(seconds);
}

void LinkPort::send(net::Packet pkt) {
  BARB_ASSERT_MSG(link_ != nullptr, "port not attached to a link");
  const sim::TimePoint now = link_->sim_.now();
  advance_accounting(now);
  const std::size_t bytes = pkt.size();
  const bool busy = tx_free_at_ > now;
  if (busy && queued_bytes_ + bytes > link_->config().queue_bytes) {
    ++stats_.dropped_frames;
    return;
  }
  queued_bytes_ += bytes;
  const sim::TimePoint ser_start = busy ? tx_free_at_ : now;
  const sim::Duration tx_time = frame_time(bytes);
  tx_free_at_ = ser_start + tx_time;
  PendingFrame& frame = pending_.emplace_back(
      PendingFrame{ser_start, tx_free_at_ + link_->config().propagation, tx_time,
                   static_cast<std::uint32_t>(bytes), true, std::move(pkt)});
  const std::uint64_t index = admitted_++;
  advance_accounting(now);  // accounts the frame at once if it starts now
  if (fault_ != nullptr) apply_fault(frame, index);
  // A pending timer moves earlier only if the FIFO had emptied behind a held
  // side-queue frame; on a fault-free port the FIFO head never precedes it.
  if (timer_.pending() && timer_at_ <= pending_.front().deliver_at) return;
  timer_.cancel();
  arm_timer();
}

void LinkPort::apply_fault(PendingFrame& frame, std::uint64_t index) {
  const FaultInjector::WireFate fate = fault_->on_admit(frame.pkt);
  if (fate.lost) {
    frame.deliver = false;
    frame.pkt = net::Packet{};
    return;
  }
  const sim::TimePoint at = frame.deliver_at + fate.extra_delay;
  // The copy trails the original by one wire occupancy, like a frame
  // transmitted twice back to back. Copying a Packet is a refcount bump.
  if (fate.duplicate) side_.push(SideDelivery{at + frame.tx_time, index, frame.pkt});
  if (fate.extra_delay > sim::Duration()) {
    frame.deliver = false;
    side_.push(SideDelivery{at, index, std::move(frame.pkt)});
  }
}

void LinkPort::advance_accounting(sim::TimePoint now) const {
  while (acct_idx_ < pending_.size()) {
    const PendingFrame& f = pending_[acct_idx_];
    if (f.ser_start > now) break;
    stats_.tx_frames++;
    stats_.tx_bytes += f.bytes;
    stats_.busy_time += f.tx_time;
    queued_bytes_ -= f.bytes;
    ++acct_idx_;
  }
}

void LinkPort::arm_timer() {
  if (pending_.empty() && side_.empty()) return;
  timer_at_ = pending_.empty() ? side_.top().deliver_at : pending_.front().deliver_at;
  if (!side_.empty()) timer_at_ = std::min(timer_at_, side_.top().deliver_at);
  timer_ = link_->sim_.schedule_at(timer_at_, [this] { deliver_due(); });
}

void LinkPort::deliver(net::Packet pkt) {
  peer_->stats_.rx_frames++;
  peer_->stats_.rx_bytes += pkt.size();
  if (peer_->sink_ != nullptr) peer_->sink_->deliver(std::move(pkt));
}

void LinkPort::deliver_due() {
  const sim::TimePoint now = link_->sim_.now();
  advance_accounting(now);
  for (;;) {
    const bool fifo_due = !pending_.empty() && pending_.front().deliver_at <= now;
    const bool side_due = !side_.empty() && side_.top().deliver_at <= now;
    if (!fifo_due && !side_due) break;
    // Merge the two queues in (deliver_at, admission index) order.
    const std::uint64_t head_index = admitted_ - pending_.size();
    if (!side_due ||
        (fifo_due && std::tie(pending_.front().deliver_at, head_index) <
                         std::tie(side_.top().deliver_at, side_.top().index))) {
      // Delivery follows serialization end, so the head frame's TX
      // accounting has always been applied by the advance above.
      BARB_ASSERT(acct_idx_ > 0);
      PendingFrame f = std::move(pending_.front());
      pending_.pop_front();
      --acct_idx_;
      if (f.deliver) deliver(std::move(f.pkt));
    } else {
      net::Packet pkt = side_.top().pkt;  // a refcount bump
      side_.pop();
      deliver(std::move(pkt));
    }
  }
  arm_timer();
}

const LinkPortStats& LinkPort::stats() const {
  if (!pending_.empty()) advance_accounting(link_->sim_.now());
  return stats_;
}

std::size_t LinkPort::queue_depth() const {
  if (link_ == nullptr) return 0;
  const sim::TimePoint now = link_->sim_.now();
  advance_accounting(now);
  return pending_.size() - acct_idx_ + (tx_free_at_ > now ? 1 : 0);
}

std::size_t LinkPort::queued_bytes() const {
  if (!pending_.empty()) advance_accounting(link_->sim_.now());
  return queued_bytes_;
}

void LinkPort::register_metrics(telemetry::MetricRegistry& registry,
                                const std::string& labels) const {
  registry.counter_fn("link.tx_frames", labels,
                      [this] { return static_cast<double>(stats().tx_frames); });
  registry.counter_fn("link.tx_bytes", labels,
                      [this] { return static_cast<double>(stats().tx_bytes); });
  registry.counter_fn("link.rx_frames", labels,
                      [this] { return static_cast<double>(stats().rx_frames); });
  registry.counter_fn("link.rx_bytes", labels,
                      [this] { return static_cast<double>(stats().rx_bytes); });
  registry.counter_fn("link.tx_drops", labels,
                      [this] { return static_cast<double>(stats().dropped_frames); });
  registry.counter_fn("link.busy_seconds", labels,
                      [this] { return stats().busy_time.to_seconds(); });
  registry.gauge("link.queue_depth", labels,
                 [this] { return static_cast<double>(queue_depth()); });
  registry.gauge("link.queued_bytes", labels,
                 [this] { return static_cast<double>(queued_bytes()); });
}

}  // namespace barb::link
