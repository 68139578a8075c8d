// Host-time spans recorded from outside the simulator.
//
// The benchmark never edits the program: it times calls into public entry
// points (Testbed construction, settle(), Simulation::run_until) and splices
// timing sinks into the frame path exactly where link::FrameTap splices its
// capture (LinkPort::connect_sink, Nic::set_host_sink, Host::set_packet_filter).
// Every span carries a kind, its start and end in steady_clock nanoseconds,
// its parent span and the unit it belongs to. Self time (a span's duration
// minus its children's) is summed per kind while the run goes; the span
// records themselves stay in memory, up to a cap per unit, and are written
// once when the benchmark ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "link/frame_sink.h"
#include "net/packet.h"
#include "stack/packet_filter.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span kinds. kRun wraps one Simulation::run_until call made by the
// benchmark; the others are spliced into the frame path inside it.
enum class SpanKind : std::uint8_t {
  kRun,      // sim: dispatch and everything not spliced (its self time)
  kSwitch,   // link: a frame arriving at a switch port
  kNicRx,    // firewall: a frame arriving at a NIC from the wire
  kStackRx,  // stack: a frame handed from the NIC (or the host filter) to the host
  kFilter,   // stack: the host-resident packet filter (iptables)
  kCount,
};
constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);
const char* to_string(SpanKind kind);

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the record list; -1 = root
  std::uint32_t unit = 0;
  SpanKind kind = SpanKind::kRun;
};

// Span records kept per unit over the whole run: the first ones of each
// unit (the per-kind self-time sums cover all spans).
constexpr std::size_t kSpanRecordsPerUnit = 200;

class Tracer {
 public:
  // Spans are only taken while active; checks and replays run inactive.
  bool active() const { return active_; }
  void set_active(bool on) { active_ = on; }
  void set_unit(std::uint32_t unit) { unit_ = unit; }

  void begin(SpanKind kind) {
    Open open;
    open.kind = kind;
    open.record = -1;
    if (unit_records_.size() <= unit_) unit_records_.resize(unit_ + 1, 0);
    if (unit_records_[unit_] < kSpanRecordsPerUnit) {
      ++unit_records_[unit_];
      open.record = static_cast<std::int32_t>(records_.size());
      SpanRecord r;
      r.kind = kind;
      r.unit = unit_;
      r.parent = stack_.empty() ? -1 : stack_.back().record;
      records_.push_back(r);
    } else {
      ++dropped_records_;
    }
    open.start = now_ns();
    stack_.push_back(open);
  }

  void end() {
    const std::int64_t t = now_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - open.start;
    const auto k = static_cast<std::size_t>(open.kind);
    self_ns_[k] += dur - open.child_ns;
    ++count_[k];
    if (stack_.empty()) {
      if (open.kind != SpanKind::kRun) orphan_ns_ += dur;
    } else {
      stack_.back().child_ns += dur;
    }
    if (open.record >= 0) {
      SpanRecord& r = records_[static_cast<std::size_t>(open.record)];
      r.start_ns = open.start;
      r.end_ns = t;
    }
  }

  // Drops a half-open stack left behind by a unit that threw.
  void reset_stack() { stack_.clear(); }

  std::int64_t self_ns(SpanKind kind) const {
    return self_ns_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t count(SpanKind kind) const {
    return count_[static_cast<std::size_t>(kind)];
  }
  // Time in spliced spans that were not under a kRun span (work that
  // happened outside any timed run_until).
  std::int64_t orphan_ns() const { return orphan_ns_; }

  const std::vector<SpanRecord>& records() const { return records_; }
  std::uint64_t dropped_records() const { return dropped_records_; }

  // Writes the kept spans as JSON lines ({"name","start_ns","end_ns",
  // "parent","unit"}), times relative to the first span. Returns false on
  // an I/O error.
  bool write_jsonl(const std::string& path, const std::vector<std::string>& unit_ids) const;

 private:
  struct Open {
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::int32_t record = -1;
    SpanKind kind = SpanKind::kRun;
  };

  bool active_ = false;
  std::uint32_t unit_ = 0;
  std::vector<std::size_t> unit_records_;  // kept records per unit
  std::vector<SpanRecord> records_;
  std::uint64_t dropped_records_ = 0;
  std::vector<Open> stack_;
  std::array<std::int64_t, kSpanKinds> self_ns_{};
  std::array<std::uint64_t, kSpanKinds> count_{};
  std::int64_t orphan_ns_ = 0;
};

// A frame capture keeps every kCaptureStride-th frame, up to kCaptureFrames.
constexpr std::size_t kCaptureFrames = 4096;
constexpr std::uint32_t kCaptureStride = 8;

// Bounded, strided copy of the frames seen at one splice point: the real
// frame mix the replay timings run on.
class FrameCapture {
 public:
  void offer(const barb::net::Packet& pkt) {
    if (frames_.size() >= kCaptureFrames) return;
    if (seen_++ % kCaptureStride != 0) return;
    frames_.push_back(pkt.copy_bytes());
  }
  const std::vector<std::vector<std::uint8_t>>& frames() const { return frames_; }

 private:
  std::uint64_t seen_ = 0;
  std::vector<std::vector<std::uint8_t>> frames_;
};

// A FrameSink spliced in front of another: times the downstream deliver()
// as one span and optionally captures the frame.
class TimedSink : public barb::link::FrameSink {
 public:
  TimedSink(Tracer& tracer, SpanKind kind, barb::link::FrameSink* downstream,
            FrameCapture* capture = nullptr)
      : tracer_(tracer), kind_(kind), downstream_(downstream), capture_(capture) {}

  void deliver(barb::net::Packet pkt) override {
    if (!tracer_.active()) {
      downstream_->deliver(std::move(pkt));
      return;
    }
    if (capture_ != nullptr) capture_->offer(pkt);
    tracer_.begin(kind_);
    downstream_->deliver(std::move(pkt));
    tracer_.end();
  }

 private:
  Tracer& tracer_;
  SpanKind kind_;
  barb::link::FrameSink* downstream_;
  FrameCapture* capture_;
};

// Wraps a host packet filter: the filter call is a kFilter span, and the
// continuation of an inbound frame (the rest of the host's receive path)
// is a kStackRx span wherever the filter resumes it.
class TimedFilter : public barb::stack::HostPacketFilter {
 public:
  TimedFilter(Tracer& tracer, barb::stack::HostPacketFilter* inner)
      : tracer_(tracer), inner_(inner) {}

  void filter(barb::stack::FilterDirection direction, barb::net::Packet pkt,
              Resume resume) override;

 private:
  Tracer& tracer_;
  barb::stack::HostPacketFilter* inner_;
};

}  // namespace perfbench
