#include "stack/tcp.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "net/checksum.h"
#include "stack/host.h"
#include "util/assert.h"
#include "util/byte_io.h"
#include "util/logging.h"

namespace barb::stack {

using net::TcpFlags;

const char* to_string(TcpState state) {
  switch (state) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kTimeWait: return "TIME_WAIT";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
  }
  return "?";
}

// ---------------------------------------------------------------- connection

namespace {
// Atomic because sweep-runner workers create and destroy connections on
// several threads at once; the counter is diagnostic only.
std::atomic<std::int64_t> g_live_connections{0};
}  // namespace

TcpConnection::TcpConnection(TcpLayer& layer, const net::FiveTuple& key,
                             TcpConfig config)
    : layer_(layer), key_(key), cfg_(config) {
  g_live_connections.fetch_add(1, std::memory_order_relaxed);
}

TcpConnection::~TcpConnection() {
  g_live_connections.fetch_sub(1, std::memory_order_relaxed);
}

std::int64_t TcpConnection::live_instances() {
  return g_live_connections.load(std::memory_order_relaxed);
}

void TcpConnection::reset_callbacks() {
  on_connected = nullptr;
  on_data = nullptr;
  on_peer_closed = nullptr;
  on_closed = nullptr;
  on_send_space = nullptr;
}

std::size_t TcpConnection::unsent_bytes() const {
  const std::uint32_t data_end =
      send_buf_seq_ + static_cast<std::uint32_t>(buffered_bytes());
  if (seq_ge(snd_nxt_, data_end)) return 0;
  return data_end - snd_nxt_;
}

void TcpConnection::drop_acked(std::size_t n) {
  send_head_ += n;
  if (send_head_ == send_buf_.size()) {
    send_buf_ = {};  // all acked: give the storage back
    send_head_ = 0;
  } else if (send_head_ >= send_buf_.size() - send_head_) {
    // The acked prefix is at least as long as what remains, so each byte is
    // moved O(1) times on average.
    send_buf_.erase(send_buf_.begin(), send_buf_.begin() + static_cast<long>(send_head_));
    send_head_ = 0;
  }
}

std::size_t TcpConnection::send_space() const {
  if (fin_queued_ || state_ == TcpState::kClosed) return 0;
  return cfg_.send_buffer_cap - std::min(cfg_.send_buffer_cap, buffered_bytes());
}

std::size_t TcpConnection::send(std::span<const std::uint8_t> data) {
  if (fin_queued_) return 0;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kSynSent && state_ != TcpState::kSynRcvd) {
    return 0;
  }
  const std::size_t n = std::min(data.size(), send_space());
  send_buf_.insert(send_buf_.end(), data.begin(), data.begin() + static_cast<long>(n));
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) output();
  return n;
}

void TcpConnection::close() {
  switch (state_) {
    case TcpState::kSynSent:
      to_closed(false);
      break;
    case TcpState::kSynRcvd:
    case TcpState::kEstablished:
      fin_queued_ = true;
      state_ = TcpState::kFinWait1;
      output();
      break;
    case TcpState::kCloseWait:
      fin_queued_ = true;
      state_ = TcpState::kLastAck;
      output();
      break;
    default:
      break;  // already closing or closed
  }
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  if (state_ != TcpState::kSynSent && state_ != TcpState::kTimeWait) {
    net::TcpHeader h;
    h.flags = TcpFlags::kRst | TcpFlags::kAck;
    h.seq = snd_nxt_;
    h.ack = rcv_nxt_;
    h.window = 0;
    layer_.send_segment(key_, h, {});
  }
  to_closed(true);
}

void TcpConnection::start_active_open() {
  auto& rng = layer_.host().simulation().rng();
  iss_ = static_cast<std::uint32_t>(rng.next_u64());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  snd_max_ = snd_nxt_;
  send_buf_seq_ = iss_ + 1;
  state_ = TcpState::kSynSent;
  net::TcpHeader h;
  h.flags = TcpFlags::kSyn;
  h.seq = iss_;
  h.window = cfg_.receive_window;
  h.mss = cfg_.mss;
  layer_.send_segment(key_, h, {});
  ++stats_.segments_sent;
  arm_rtx_timer();
}

void TcpConnection::start_passive_open(const net::TcpHeader& syn) {
  auto& rng = layer_.host().simulation().rng();
  iss_ = static_cast<std::uint32_t>(rng.next_u64());
  irs_ = syn.seq;
  rcv_nxt_ = syn.seq + 1;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  snd_max_ = snd_nxt_;
  send_buf_seq_ = iss_ + 1;
  snd_wnd_ = syn.window;
  mss_ = std::min(cfg_.mss, syn.mss.value_or(536));
  state_ = TcpState::kSynRcvd;
  net::TcpHeader h;
  h.flags = TcpFlags::kSyn | TcpFlags::kAck;
  h.seq = iss_;
  h.ack = rcv_nxt_;
  h.window = cfg_.receive_window;
  h.mss = cfg_.mss;
  layer_.send_segment(key_, h, {});
  ++stats_.segments_sent;
  arm_rtx_timer();
}

void TcpConnection::enter_established() {
  if (backlog_listener_ != nullptr) {
    --backlog_listener_->half_open_;
    backlog_listener_ = nullptr;
  }
  state_ = TcpState::kEstablished;
  // RFC 3390 initial window.
  const double mss = mss_;
  cwnd_ = std::min(4.0 * mss, std::max(2.0 * mss, 4380.0));
  ssthresh_ = 1e9;
  consecutive_timeouts_ = 0;
  backoff_ = 0;
  rtx_timer_.cancel();
  if (on_connected) on_connected();
}

void TcpConnection::handle_syn_sent(const net::TcpHeader& h) {
  if (h.rst()) {
    if (h.ack_flag() && h.ack == snd_nxt_) to_closed(true);
    return;
  }
  if (h.syn() && h.ack_flag()) {
    if (h.ack != iss_ + 1) return;  // bogus
    snd_una_ = h.ack;
    irs_ = h.seq;
    rcv_nxt_ = h.seq + 1;
    snd_wnd_ = h.window;
    mss_ = std::min(cfg_.mss, h.mss.value_or(536));
    enter_established();
    send_ack_now();
    output();
    return;
  }
  if (h.syn()) {
    // Simultaneous open: acknowledge their SYN with a SYN-ACK.
    irs_ = h.seq;
    rcv_nxt_ = h.seq + 1;
    snd_wnd_ = h.window;
    mss_ = std::min(cfg_.mss, h.mss.value_or(536));
    state_ = TcpState::kSynRcvd;
    net::TcpHeader out;
    out.flags = TcpFlags::kSyn | TcpFlags::kAck;
    out.seq = iss_;
    out.ack = rcv_nxt_;
    out.window = cfg_.receive_window;
    out.mss = cfg_.mss;
    layer_.send_segment(key_, out, {});
    ++stats_.segments_sent;
    arm_rtx_timer();
  }
}

void TcpConnection::handle_segment(const net::TcpHeader& h,
                                   std::span<const std::uint8_t> payload) {
  ++stats_.segments_received;

  if (state_ == TcpState::kSynSent) {
    handle_syn_sent(h);
    return;
  }
  if (state_ == TcpState::kTimeWait) {
    if (h.fin()) {
      // Peer retransmitted its FIN: re-ACK and restart the 2MSL timer.
      send_ack_now();
      enter_time_wait();
    }
    return;
  }

  if (h.rst()) {
    // Acceptable if it falls in the receive window (SYN_RCVD accepts the
    // exact expected sequence only).
    const bool acceptable =
        seq_ge(h.seq, rcv_nxt_) &&
        seq_lt(h.seq, rcv_nxt_ + cfg_.receive_window);
    if (acceptable || h.seq == rcv_nxt_) to_closed(true);
    return;
  }

  if (h.syn()) {
    if (state_ == TcpState::kSynRcvd && h.seq == irs_) {
      // Duplicate SYN: our SYN-ACK was lost; retransmit it.
      net::TcpHeader out;
      out.flags = TcpFlags::kSyn | TcpFlags::kAck;
      out.seq = iss_;
      out.ack = rcv_nxt_;
      out.window = cfg_.receive_window;
      out.mss = cfg_.mss;
      layer_.send_segment(key_, out, {});
      ++stats_.segments_sent;
    }
    return;
  }

  if (!h.ack_flag()) return;

  if (state_ == TcpState::kSynRcvd) {
    if (h.ack == snd_nxt_) {
      snd_una_ = h.ack;
      snd_wnd_ = h.window;
      enter_established();
      if (accept_pending_) {
        accept_pending_ = false;
        layer_.notify_accept(shared_from_this());
      }
    } else {
      return;  // unacceptable ACK in SYN_RCVD
    }
  }

  process_ack(h);
  if (state_ == TcpState::kClosed) return;
  process_data(h, payload);
}

void TcpConnection::process_ack(const net::TcpHeader& h) {
  const std::uint32_t ack = h.ack;
  if (seq_gt(ack, snd_max_)) {
    send_ack_now();  // acks data we never sent; re-assert our state
    return;
  }

  if (seq_lt(ack, snd_una_)) return;  // old ACK, ignore

  if (ack == snd_una_) {
    // Potential duplicate ACK (RFC 5681: no data, no window change, data
    // outstanding).
    if (flight_size() > 0 && h.window == snd_wnd_) {
      ++dup_acks_;
      if (in_fast_recovery_) {
        cwnd_ += mss_;
        output();
      } else if (dup_acks_ == 3) {
        ssthresh_ = std::max(flight_size() / 2.0, 2.0 * mss_);
        in_fast_recovery_ = true;
        ++stats_.fast_retransmits;
        retransmit_head();
        cwnd_ = ssthresh_ + 3.0 * mss_;
        output();
      }
    }
    snd_wnd_ = h.window;
    return;
  }

  // New data acknowledged.
  if (rtt_sampling_ && seq_gt(ack, rtt_seq_)) {
    update_rtt((layer_.host().simulation().now() - rtt_sent_at_).to_seconds());
    rtt_sampling_ = false;
  }

  const std::uint32_t data_end =
      send_buf_seq_ + static_cast<std::uint32_t>(buffered_bytes());
  const std::uint32_t acked_data_end = seq_lt(ack, data_end) ? ack : data_end;
  if (seq_gt(acked_data_end, send_buf_seq_)) {
    const std::size_t n = acked_data_end - send_buf_seq_;
    drop_acked(n);
    send_buf_seq_ = acked_data_end;
    stats_.bytes_acked += n;
  }

  if (in_fast_recovery_) {
    // Reno: deflate on the first new ACK.
    in_fast_recovery_ = false;
    cwnd_ = ssthresh_;
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += mss_;  // slow start
  } else {
    cwnd_ += static_cast<double>(mss_) * mss_ / cwnd_;  // congestion avoidance
  }
  dup_acks_ = 0;
  snd_una_ = ack;
  if (seq_gt(snd_una_, snd_nxt_)) snd_nxt_ = snd_una_;
  snd_wnd_ = h.window;
  consecutive_timeouts_ = 0;
  backoff_ = 0;

  if (flight_size() == 0) {
    rtx_timer_.cancel();
  } else {
    arm_rtx_timer();
  }

  if (fin_sent_ && seq_gt(snd_una_, fin_seq_)) {
    switch (state_) {
      case TcpState::kFinWait1:
        state_ = TcpState::kFinWait2;
        break;
      case TcpState::kClosing:
        enter_time_wait();
        return;
      case TcpState::kLastAck:
        to_closed(false);
        return;
      default:
        break;
    }
  }

  if (on_send_space && send_space() > 0) on_send_space();
  output();
}

void TcpConnection::process_data(const net::TcpHeader& h,
                                 std::span<const std::uint8_t> payload) {
  const std::uint32_t seg_seq = h.seq;
  const std::uint32_t seg_len = static_cast<std::uint32_t>(payload.size());
  const bool has_fin = h.fin();
  if (seg_len == 0 && !has_fin) return;

  // Entirely outside the window?
  if (seq_ge(seg_seq, rcv_nxt_ + cfg_.receive_window)) {
    send_ack_now();
    return;
  }
  const std::uint32_t seg_end = seg_seq + seg_len + (has_fin ? 1 : 0);
  if (seq_le(seg_end, rcv_nxt_)) {
    send_ack_now();  // old duplicate; re-ACK so the peer advances
    return;
  }

  if (has_fin) {
    fin_received_ = true;
    fin_rcv_seq_ = seg_seq + seg_len;
  }

  bool delivered = false;
  if (seq_le(seg_seq, rcv_nxt_)) {
    const std::uint32_t offset = rcv_nxt_ - seg_seq;
    if (offset < seg_len) {
      const auto fresh = payload.subspan(offset);
      rcv_nxt_ += static_cast<std::uint32_t>(fresh.size());
      stats_.bytes_received += fresh.size();
      delivered = true;
      if (on_data) on_data(fresh);
    }
    deliver_reassembled();
  } else {
    // Out of order: buffer and send an immediate duplicate ACK.
    reassembly_.emplace(seg_seq,
                        std::vector<std::uint8_t>(payload.begin(), payload.end()));
    send_ack_now();
    return;
  }

  maybe_complete_fin_handshake();
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) return;

  if (fin_received_ && seq_le(fin_rcv_seq_, rcv_nxt_)) {
    return;  // FIN consumed; ACK already sent by maybe_complete_fin_handshake
  }

  if (delivered) {
    ++unacked_segments_;
    if (unacked_segments_ >= 2) {
      send_ack_now();
    } else {
      schedule_delayed_ack();
    }
  }
}

void TcpConnection::deliver_reassembled() {
  while (!reassembly_.empty()) {
    auto it = reassembly_.begin();
    const std::uint32_t seq = it->first;
    if (seq_gt(seq, rcv_nxt_)) break;
    std::vector<std::uint8_t> data = std::move(it->second);
    reassembly_.erase(it);
    const std::uint32_t len = static_cast<std::uint32_t>(data.size());
    if (seq_le(seq + len, rcv_nxt_)) continue;  // fully duplicate
    const std::uint32_t offset = rcv_nxt_ - seq;
    const std::span<const std::uint8_t> fresh =
        std::span(data).subspan(offset);
    rcv_nxt_ += static_cast<std::uint32_t>(fresh.size());
    stats_.bytes_received += fresh.size();
    if (on_data) on_data(fresh);
  }
}

void TcpConnection::maybe_complete_fin_handshake() {
  if (!fin_received_ || rcv_nxt_ != fin_rcv_seq_) return;
  ++rcv_nxt_;  // consume the FIN
  send_ack_now();
  if (on_peer_closed) on_peer_closed();
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      // Our FIN not yet acked (else process_ack moved us to FIN_WAIT_2).
      state_ = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }
}

void TcpConnection::output() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kClosing &&
      state_ != TcpState::kLastAck) {
    return;
  }

  const double window = std::min(cwnd_, static_cast<double>(snd_wnd_));
  while (unsent_bytes() > 0) {
    const double in_flight = flight_size();
    if (in_flight + mss_ > window && in_flight > 0) break;
    const std::size_t n = std::min<std::size_t>(
        {unsent_bytes(), mss_,
         static_cast<std::size_t>(std::max(0.0, window - in_flight))});
    if (n == 0) break;
    std::uint8_t flags = TcpFlags::kAck;
    if (n == unsent_bytes()) flags |= TcpFlags::kPsh;
    const bool is_rtx = seq_lt(snd_nxt_, snd_max_);
    emit(flags, snd_nxt_, buffered(snd_nxt_, n), is_rtx);
    snd_nxt_ += static_cast<std::uint32_t>(n);
    if (!is_rtx) stats_.bytes_sent += n;
    if (seq_gt(snd_nxt_, snd_max_)) snd_max_ = snd_nxt_;
  }

  if (fin_queued_ && !fin_sent_ && unsent_bytes() == 0) {
    emit(TcpFlags::kFin | TcpFlags::kAck, snd_nxt_, {},
         /*retransmission=*/seq_lt(snd_nxt_, snd_max_));
    fin_seq_ = snd_nxt_;
    ++snd_nxt_;
    if (seq_gt(snd_nxt_, snd_max_)) snd_max_ = snd_nxt_;
    fin_sent_ = true;
  }

  if (flight_size() > 0 && !rtx_timer_.pending()) arm_rtx_timer();
}

void TcpConnection::emit(std::uint8_t flags, std::uint32_t seq,
                         std::span<const std::uint8_t> payload, bool retransmission) {
  net::TcpHeader h;
  h.flags = flags;
  h.seq = seq;
  h.ack = (flags & TcpFlags::kAck) ? rcv_nxt_ : 0;
  h.window = cfg_.receive_window;
  layer_.send_segment(key_, h, payload);
  ++stats_.segments_sent;
  if (retransmission) ++stats_.retransmissions;

  // Karn's rule: only time segments that are not retransmissions.
  if (!retransmission && !rtt_sampling_ && (!payload.empty() || (flags & TcpFlags::kFin))) {
    rtt_sampling_ = true;
    rtt_seq_ = seq + static_cast<std::uint32_t>(payload.size()) +
               ((flags & TcpFlags::kFin) ? 1 : 0) - 1;
    rtt_sent_at_ = layer_.host().simulation().now();
  }
}

void TcpConnection::send_ack_now() {
  delack_timer_.cancel();
  unacked_segments_ = 0;
  net::TcpHeader h;
  h.flags = TcpFlags::kAck;
  h.seq = snd_nxt_;
  h.ack = rcv_nxt_;
  h.window = cfg_.receive_window;
  layer_.send_segment(key_, h, {});
  ++stats_.segments_sent;
}

void TcpConnection::schedule_delayed_ack() {
  if (delack_timer_.pending()) return;
  delack_timer_ = layer_.host().simulation().schedule(
      cfg_.delayed_ack, [w = weak_from_this()] {
        if (auto self = w.lock()) self->send_ack_now();
      });
}

void TcpConnection::retransmit_head() {
  const std::uint32_t data_end =
      send_buf_seq_ + static_cast<std::uint32_t>(buffered_bytes());
  if (fin_sent_ && snd_una_ == fin_seq_) {
    emit(TcpFlags::kFin | TcpFlags::kAck, fin_seq_, {}, /*retransmission=*/true);
    return;
  }
  if (seq_ge(snd_una_, data_end)) return;  // nothing to retransmit
  const std::size_t n =
      std::min<std::size_t>(mss_, data_end - snd_una_);
  emit(TcpFlags::kAck, snd_una_, buffered(snd_una_, n), /*retransmission=*/true);
}

void TcpConnection::arm_rtx_timer() {
  rtx_timer_.cancel();
  rtx_timer_ = layer_.host().simulation().schedule(
      current_rto(), [w = weak_from_this()] {
        if (auto self = w.lock()) self->on_rto();
      });
}

sim::Duration TcpConnection::current_rto() const {
  sim::Duration base = cfg_.initial_rto;
  if (rtt_valid_) {
    const double rto_s = srtt_ + std::max(4.0 * rttvar_, 0.01);
    base = sim::Duration::from_seconds(rto_s);
  }
  base = std::max(base, cfg_.min_rto);
  for (int i = 0; i < backoff_; ++i) {
    base = base * 2;
    if (base >= cfg_.max_rto) break;
  }
  return std::min(base, cfg_.max_rto);
}

void TcpConnection::update_rtt(double sample_seconds) {
  if (!rtt_valid_) {
    srtt_ = sample_seconds;
    rttvar_ = sample_seconds / 2.0;
    rtt_valid_ = true;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample_seconds);
    srtt_ = 0.875 * srtt_ + 0.125 * sample_seconds;
  }
}

void TcpConnection::on_rto() {
  ++stats_.timeouts;

  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd) {
    if (++consecutive_timeouts_ > cfg_.syn_retries) {
      to_closed(true);
      return;
    }
    ++backoff_;
    net::TcpHeader h;
    if (state_ == TcpState::kSynSent) {
      h.flags = TcpFlags::kSyn;
      h.seq = iss_;
    } else {
      h.flags = TcpFlags::kSyn | TcpFlags::kAck;
      h.seq = iss_;
      h.ack = rcv_nxt_;
    }
    h.window = cfg_.receive_window;
    h.mss = cfg_.mss;
    layer_.send_segment(key_, h, {});
    ++stats_.segments_sent;
    ++stats_.retransmissions;
    arm_rtx_timer();
    return;
  }

  if (flight_size() == 0) return;  // spurious

  if (++consecutive_timeouts_ > cfg_.rto_retries) {
    to_closed(true);
    return;
  }

  // RFC 5681 timeout response + go-back-N rewind.
  ssthresh_ = std::max(flight_size() / 2.0, 2.0 * mss_);
  cwnd_ = mss_;
  dup_acks_ = 0;
  in_fast_recovery_ = false;
  rtt_sampling_ = false;  // Karn
  ++backoff_;
  snd_nxt_ = snd_una_;
  if (fin_sent_ && seq_le(snd_una_, fin_seq_)) fin_sent_ = false;
  output();
  arm_rtx_timer();
}

void TcpConnection::enter_time_wait() {
  state_ = TcpState::kTimeWait;
  rtx_timer_.cancel();
  delack_timer_.cancel();
  timewait_timer_.cancel();
  timewait_timer_ = layer_.host().simulation().schedule(
      cfg_.time_wait, [w = weak_from_this()] {
        if (auto self = w.lock()) self->to_closed(false);
      });
}

void TcpConnection::to_closed(bool reset) {
  if (state_ == TcpState::kClosed) return;
  if (backlog_listener_ != nullptr) {
    --backlog_listener_->half_open_;
    backlog_listener_ = nullptr;
  }
  state_ = TcpState::kClosed;
  rtx_timer_.cancel();
  delack_timer_.cancel();
  timewait_timer_.cancel();
  auto self = shared_from_this();  // keep alive through callbacks + removal
  layer_.remove(key_);
  (void)reset;
  if (on_closed) on_closed();
  // The callbacks frequently capture this connection's own shared_ptr; drop
  // them now that the connection is dead so the self-cycle cannot outlive
  // the last external reference.
  reset_callbacks();
}

// -------------------------------------------------------------------- layer

TcpConfig TcpLayer::make_config() const {
  TcpConfig cfg;
  cfg.mss = host_.config().mss;
  cfg.receive_window = host_.config().receive_window;
  return cfg;
}

// `payload` may view the connection's send buffer. It is copied into the
// segment before send_ip, the only call here that can reach back into the
// stack, so nothing can move the buffer while the span is read.
void TcpLayer::send_segment(const net::FiveTuple& key, net::TcpHeader header,
                            std::span<const std::uint8_t> payload) {
  header.src_port = key.src_port;
  header.dst_port = key.dst_port;
  std::vector<std::uint8_t> segment;
  segment.reserve(header.size() + payload.size());
  ByteWriter w(segment);
  header.checksum = 0;
  header.serialize(w);
  w.bytes(payload);
  const std::uint16_t sum = net::transport_checksum(
      key.src, key.dst, static_cast<std::uint8_t>(net::IpProtocol::kTcp), segment);
  segment[16] = static_cast<std::uint8_t>(sum >> 8);
  segment[17] = static_cast<std::uint8_t>(sum);
  host_.send_ip(net::IpProtocol::kTcp, key.dst, segment);
}

void TcpLayer::handle_segment(const net::FrameView& v) {
  BARB_ASSERT(v.tcp.has_value() && v.ip.has_value());
  // Checksum verification happened in Host::ip_input (counted on the NIC);
  // by here the segment is known-good.

  // Connection keys are local-perspective.
  net::FiveTuple key;
  key.src = v.ip->dst;
  key.dst = v.ip->src;
  key.src_port = v.tcp->dst_port;
  key.dst_port = v.tcp->src_port;
  key.protocol = static_cast<std::uint8_t>(net::IpProtocol::kTcp);

  auto it = connections_.find(key);
  if (it != connections_.end()) {
    auto conn = it->second;  // keep alive across the call
    conn->handle_segment(*v.tcp, v.l4_payload);
    return;
  }

  if (v.tcp->syn() && !v.tcp->ack_flag() && !v.tcp->rst()) {
    auto lit = listeners_.find(v.tcp->dst_port);
    if (lit != listeners_.end()) {
      TcpListener* listener = lit->second.get();
      if (listener->half_open_ >= listener->backlog) {
        // Backlog full: drop the SYN silently (the peer will retry).
        ++listener->syn_drops_;
        return;
      }
      auto conn = std::shared_ptr<TcpConnection>(
          new TcpConnection(*this, key, make_config()));
      conn->accept_pending_ = true;
      conn->backlog_listener_ = listener;
      ++listener->half_open_;
      connections_.emplace(key, conn);
      conn->start_passive_open(*v.tcp);
      return;
    }
  }

  // No socket: RFC 793 reset generation (never in response to a RST). This
  // is the response traffic that doubles firewall load in the paper's
  // "allowed flood" experiments.
  if (!v.tcp->rst()) send_rst_for(v);
}

void TcpLayer::notify_accept(const std::shared_ptr<TcpConnection>& conn) {
  auto lit = listeners_.find(conn->key().src_port);
  if (lit != listeners_.end() && lit->second->on_accept_) {
    lit->second->on_accept_(conn);
  }
}

void TcpLayer::send_rst_for(const net::FrameView& v) {
  net::FiveTuple key;
  key.src = v.ip->dst;
  key.dst = v.ip->src;
  key.src_port = v.tcp->dst_port;
  key.dst_port = v.tcp->src_port;
  key.protocol = static_cast<std::uint8_t>(net::IpProtocol::kTcp);

  ++host_.stats_.tcp_rst_sent;
  net::TcpHeader h;
  if (v.tcp->ack_flag()) {
    h.flags = TcpFlags::kRst;
    h.seq = v.tcp->ack;
  } else {
    h.flags = TcpFlags::kRst | TcpFlags::kAck;
    h.seq = 0;
    h.ack = v.tcp->seq + static_cast<std::uint32_t>(v.l4_payload.size()) +
            (v.tcp->syn() ? 1 : 0) + (v.tcp->fin() ? 1 : 0);
  }
  h.window = 0;
  send_segment(key, h, {});
}

TcpListener* TcpLayer::listen(std::uint16_t port, TcpListener::AcceptFn on_accept) {
  if (port == 0 || listeners_.contains(port)) return nullptr;
  auto listener =
      std::unique_ptr<TcpListener>(new TcpListener(*this, port, std::move(on_accept)));
  TcpListener* raw = listener.get();
  listeners_.emplace(port, std::move(listener));
  return raw;
}

std::shared_ptr<TcpConnection> TcpLayer::connect(net::Ipv4Address dst,
                                                 std::uint16_t dst_port) {
  net::FiveTuple key;
  key.src = host_.ip();
  key.dst = dst;
  key.dst_port = dst_port;
  key.protocol = static_cast<std::uint8_t>(net::IpProtocol::kTcp);
  // Find an ephemeral port whose tuple is free.
  for (int attempts = 0; attempts < 64; ++attempts) {
    key.src_port = host_.allocate_ephemeral_port();
    if (!connections_.contains(key)) break;
  }
  if (connections_.contains(key)) return nullptr;

  auto conn =
      std::shared_ptr<TcpConnection>(new TcpConnection(*this, key, make_config()));
  connections_.emplace(key, conn);
  conn->start_active_open();
  return conn;
}

bool TcpLayer::port_in_use(std::uint16_t port) const {
  if (listeners_.contains(port)) return true;
  for (const auto& [key, conn] : connections_) {
    if (key.src_port == port) return true;
  }
  return false;
}

namespace {
void accumulate(TcpConnectionStats& into, const TcpConnectionStats& from) {
  into.segments_sent += from.segments_sent;
  into.segments_received += from.segments_received;
  into.bytes_sent += from.bytes_sent;
  into.bytes_acked += from.bytes_acked;
  into.bytes_received += from.bytes_received;
  into.retransmissions += from.retransmissions;
  into.timeouts += from.timeouts;
  into.fast_retransmits += from.fast_retransmits;
}
}  // namespace

TcpLayer::~TcpLayer() {
  // Connections still alive at teardown (flooded experiments routinely end
  // with established or half-open connections) hold application callbacks
  // that may capture their own shared_ptr. Clear them so erasing the map —
  // or the application dropping its handle afterwards — actually frees the
  // connection.
  for (auto& [key, conn] : connections_) conn->reset_callbacks();
}

void TcpLayer::remove(const net::FiveTuple& key) {
  auto it = connections_.find(key);
  if (it == connections_.end()) return;
  accumulate(closed_totals_, it->second->stats());
  connections_.erase(it);
}

TcpConnectionStats TcpLayer::aggregate_stats() const {
  TcpConnectionStats total = closed_totals_;
  for (const auto& [key, conn] : connections_) accumulate(total, conn->stats());
  return total;
}

double TcpLayer::total_cwnd_bytes() const {
  double total = 0;
  for (const auto& [key, conn] : connections_) {
    if (conn->state() == TcpState::kEstablished) total += conn->cwnd_bytes();
  }
  return total;
}

void TcpLayer::register_metrics(telemetry::MetricRegistry& registry,
                                const std::string& labels) const {
  auto counter = [&](const char* name, auto field) {
    registry.counter_fn(name, labels, [this, field] {
      return static_cast<double>(aggregate_stats().*field);
    });
  };
  counter("tcp.segments_sent", &TcpConnectionStats::segments_sent);
  counter("tcp.segments_received", &TcpConnectionStats::segments_received);
  counter("tcp.bytes_acked", &TcpConnectionStats::bytes_acked);
  counter("tcp.bytes_received", &TcpConnectionStats::bytes_received);
  counter("tcp.retransmissions", &TcpConnectionStats::retransmissions);
  counter("tcp.timeouts", &TcpConnectionStats::timeouts);
  counter("tcp.fast_retransmits", &TcpConnectionStats::fast_retransmits);
  registry.gauge("tcp.connections", labels, [this] {
    return static_cast<double>(connections_.size());
  });
  registry.gauge("tcp.cwnd_bytes", labels, [this] { return total_cwnd_bytes(); });
}

void TcpLayer::close_listener(TcpListener* listener) {
  if (listener == nullptr) return;
  // Orphan any half-open connections still pointing at this listener.
  for (auto& [key, conn] : connections_) {
    if (conn->backlog_listener_ == listener) conn->backlog_listener_ = nullptr;
  }
  listeners_.erase(listener->port_);
}

void TcpListener::close() { layer_.close_listener(this); }

}  // namespace barb::stack
