#include "firewall/flood_guard.h"

#include <algorithm>

namespace barb::firewall {

void FloodGuard::apply_rates() {
  per_source_rate_ = config_.per_source_rate;
  aggregate_rate_ = config_.aggregate_rate;
  aggregate_ = TokenBucket(std::max(1.0, aggregate_rate_), config_.aggregate_burst);
  new_sources_ =
      TokenBucket(std::max(1.0, config_.new_source_rate), config_.new_source_burst);
}

void FloodGuard::reconfigure_for_capacity(double walk_frames_per_sec) {
  per_source_rate_ = std::min(config_.per_source_rate,
                              walk_frames_per_sec * config_.per_source_capacity_share);
  aggregate_rate_ = std::min(config_.aggregate_rate,
                             walk_frames_per_sec * config_.aggregate_capacity_share);
  aggregate_ = TokenBucket(std::max(1.0, aggregate_rate_), config_.aggregate_burst);
  new_sources_ =
      TokenBucket(std::max(1.0, config_.new_source_rate), config_.new_source_burst);
  sources_.clear();
  lru_.clear();
}

bool FloodGuard::admit(const net::FrameView& view, sim::TimePoint now) {
  if (!config_.enabled) return true;
  ++stats_.screened;
  if (!view.ip) return true;  // non-IP frames are not rate-limited here

  const std::uint32_t source = view.ip->src.value();
  auto it = sources_.find(source);
  if (it == sources_.end()) {
    // First contact: spend a new-source token before tracking it. This is
    // what blunts spoofed floods — every spoofed packet is "new".
    if (!new_sources_.try_consume(now)) {
      ++stats_.new_source_drops;
      return false;
    }
    if (sources_.size() >= config_.max_sources) {
      sources_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(source);
    auto [inserted, _] = sources_.emplace(
        source, SourceEntry{TokenBucket(std::max(1.0, per_source_rate_),
                                        config_.per_source_burst),
                            lru_.begin(), /*violations=*/0,
                            /*violation_window_start=*/{}, /*penalized_until=*/{}});
    it = inserted;
    // Burn idle accrual so a brand-new source starts with its burst only.
    (void)it->second.bucket.tokens(now);
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  }

  SourceEntry& entry = it->second;
  if (now < entry.penalized_until) {
    ++stats_.penalized_drops;
    return false;
  }
  if (!entry.bucket.try_consume(now)) {
    ++stats_.per_source_drops;
    if (now - entry.violation_window_start >= sim::Duration::seconds(1)) {
      entry.violation_window_start = now;
      entry.violations = 0;
    }
    if (++entry.violations > config_.penalty_threshold) {
      entry.penalized_until = now + config_.penalty_duration;
      entry.violations = 0;
      ++stats_.penalties_imposed;
    }
    return false;
  }
  if (!aggregate_.try_consume(now)) {
    ++stats_.aggregate_drops;
    return false;
  }
  return true;
}

}  // namespace barb::firewall
