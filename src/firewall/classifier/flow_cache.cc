#include "firewall/classifier/flow_cache.h"

namespace barb::firewall {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlowCache::FlowCache(FlowCacheConfig config) : config_(config) {
  mask_ = round_up_pow2(config_.capacity < 2 ? 2 : config_.capacity) - 1;
}

bool FlowCache::lookup(const net::FiveTuple& tuple, MatchResult* out) {
  ++stats_.lookups;
  if (slots_.empty()) {
    ++stats_.misses;  // nothing inserted yet: an empty table
    return false;
  }
  std::size_t idx = home(tuple);
  for (int d = 0; d < config_.max_probe; ++d, idx = (idx + 1) & mask_) {
    Slot& s = slots_[idx];
    if (!s.used) break;
    // Robin-hood invariant: every entry past this point sits further from
    // its own home than we are from ours, so a poorer current slot means
    // the key cannot be in the table.
    if (s.distance < d) break;
    if (s.key == tuple) {
      if (s.generation != generation_) {
        ++stats_.stale_hits;
        break;  // old policy's verdict; the caller reclassifies and reinserts
      }
      ++stats_.hits;
      *out = s.verdict;
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

void FlowCache::insert(const net::FiveTuple& tuple, const MatchResult& verdict) {
  ++stats_.inserts;
  if (slots_.empty()) slots_.resize(capacity());
  Slot incoming;
  incoming.key = tuple;
  incoming.verdict = verdict;
  incoming.generation = generation_;
  incoming.distance = 0;
  incoming.used = true;

  std::size_t idx = home(tuple);
  for (int hop = 0; hop < config_.max_probe * 2; ++hop, idx = (idx + 1) & mask_) {
    Slot& s = slots_[idx];
    if (!s.used || s.generation != generation_) {
      // Empty or stale: claim it (stale slots are reclaimed here, not on the
      // generation bump).
      s = incoming;
      ++live_;
      return;
    }
    if (s.key == incoming.key) {
      s.verdict = incoming.verdict;  // refresh
      return;
    }
    if (s.distance < incoming.distance) {
      // Robin hood: the resident is closer to home than the incoming entry;
      // swap so the poorer entry keeps probing.
      std::swap(s, incoming);
    }
    if (incoming.distance >= config_.max_probe - 1) {
      // Probe bound hit: drop whichever entry is currently homeless. Under a
      // unique-tuple flood this is the steady state — the table churns at
      // bounded cost instead of growing.
      ++stats_.evictions;
      return;
    }
    ++incoming.distance;
  }
  // Unreachable while max_probe bounds distance, but keep the entry loss
  // accounted if the loop ever exits.
  ++stats_.evictions;
}

}  // namespace barb::firewall
