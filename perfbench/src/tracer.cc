#include "tracer.h"

#include <cstdio>
#include <memory>
#include <utility>

namespace perfbench {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun: return "sim.run_until";
    case SpanKind::kSwitch: return "link.switch_rx";
    case SpanKind::kNicRx: return "firewall.nic_rx";
    case SpanKind::kStackRx: return "stack.host_rx";
    case SpanKind::kFilter: return "stack.filter";
    case SpanKind::kCount: break;
  }
  return "?";
}

bool Tracer::write_jsonl(const std::string& path,
                         const std::vector<std::string>& unit_ids) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (const SpanRecord& r : records_) {
    const std::string unit =
        r.unit < unit_ids.size() ? unit_ids[r.unit] : "slice/" + std::to_string(r.unit);
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"unit\":\"%s\"}\n",
                 to_string(r.kind), static_cast<long long>(r.start_ns - t0),
                 static_cast<long long>(r.end_ns - t0), r.parent, unit.c_str());
  }
  return std::fclose(f) == 0;
}

void TimedFilter::filter(barb::stack::FilterDirection direction,
                         barb::net::Packet pkt, Resume resume) {
  if (!tracer_.active()) {
    inner_->filter(direction, std::move(pkt), std::move(resume));
    return;
  }
  if (direction == barb::stack::FilterDirection::kInput) {
    resume = [this, inner = std::move(resume)](barb::net::Packet p) {
      if (!tracer_.active()) {
        inner(std::move(p));
        return;
      }
      tracer_.begin(SpanKind::kStackRx);
      inner(std::move(p));
      tracer_.end();
    };
  }
  tracer_.begin(SpanKind::kFilter);
  inner_->filter(direction, std::move(pkt), std::move(resume));
  tracer_.end();
}

}  // namespace perfbench
