#include "firewall/nic_firewall.h"

#include <utility>

#include "util/assert.h"
#include "util/logging.h"

namespace barb::firewall {

FirewallNic::FirewallNic(sim::Simulation& sim, net::MacAddress mac, std::string name,
                         DeviceProfile profile)
    : Nic(sim, mac, std::move(name)),
      profile_(std::move(profile)),
      flow_cache_(FlowCacheConfig{profile_.flow_cache_capacity}) {
  // An unconfigured card passes traffic (the paper's "default allow all").
  rules_ = std::make_shared<const RuleSet>(std::vector<Rule>{}, RuleAction::kAllow);
  // The compiled structure must always mirror rules_, including the initial
  // unconfigured (empty, default-allow) policy.
  if (profile_.match_backend != MatchBackend::kLinear) compiled_.rebuild(*rules_);
}

void FirewallNic::install_rule_set(std::shared_ptr<const RuleSet> rules) {
  BARB_ASSERT(rules != nullptr);
  rules_ = std::move(rules);
  flow_states_.clear();  // old verdicts may no longer be valid
  if (profile_.match_backend != MatchBackend::kLinear) {
    compiled_.rebuild(*rules_);
    flow_cache_.bump_generation();
    ++matchstats_.rebuilds;
  }
  reconfigure_guard();
}

void FirewallNic::restart() {
  flow_states_.clear();
  // A reset card loses its cached verdicts (card RAM); the compiled
  // structure is part of the installed policy and survives.
  flow_cache_.bump_generation();
  locked_ = false;
  deny_window_count_ = 0;
  deny_window_start_ = sim_.now();
  // A restart resets the card: in-flight and queued frames are lost.
  queue_.clear();
  rx_buffered_bytes_ = 0;
  tx_buffered_bytes_ = 0;
  // Invalidate the in-service frame's pending completion event.
  ++service_epoch_;
  busy_ = false;
}

void FirewallNic::transmit(net::Packet pkt) {
  ++stats_.tx_requested;
  enqueue(Job{std::move(pkt), /*inbound=*/false});
}

void FirewallNic::deliver(net::Packet pkt) {
  ++stats_.rx_frames;
  if (!addressed_to_us(pkt)) {
    ++stats_.rx_dropped;
    return;
  }
  enqueue(Job{std::move(pkt), /*inbound=*/true});
}

void FirewallNic::enqueue(Job job) {
  if (locked_) {
    ++fwstats_.lockup_drops;
    ++(job.inbound ? stats_.rx_dropped : stats_.tx_dropped);
    return;
  }
  // Every arrival costs the embedded CPU descriptor handling, even if the
  // frame is then dropped (receive livelock).
  pending_overhead_ += profile_.arrival_overhead;

  // FloodGuard screening (inbound only): cheap per-frame cost, drops
  // over-rate traffic before it can occupy the buffer or the rule walk.
  if (job.inbound && guard_.config().enabled) {
    pending_overhead_ += guard_.config().screen_cost;
    const net::FrameView* view = job.pkt.view();
    if (view != nullptr && !is_management_frame(*view) &&
        !guard_.admit(*view, sim_.now())) {
      ++stats_.rx_dropped;
      return;
    }
  }

  auto& buffered = job.inbound ? rx_buffered_bytes_ : tx_buffered_bytes_;
  const std::size_t capacity =
      job.inbound ? profile_.rx_buffer_bytes : profile_.tx_buffer_bytes;
  if (buffered + job.pkt.size() > capacity) {
    if (job.inbound && job.pkt.size() > 500) ++fwstats_.rx_ring_drops_large;
    ++(job.inbound ? fwstats_.rx_ring_drops : fwstats_.tx_ring_drops);
    ++(job.inbound ? stats_.rx_dropped : stats_.tx_dropped);
    return;
  }
  buffered += job.pkt.size();
  queue_.push_back(std::move(job));
  if (!busy_) start_next();
}

void FirewallNic::start_next() {
  if (busy_ || queue_.empty() || locked_) return;
  busy_ = true;

  // The embedded CPU picks the frame up: decide its fate and how long the
  // decision takes, in one pass over the rule-set.
  Job& job = queue_.front();
  sim::Duration service =
      profile_.fixed + pending_overhead_ +
      profile_.per_byte * static_cast<std::int64_t>(job.pkt.size());
  pending_overhead_ = sim::Duration::zero();
  // Cached on the frame buffer: when FloodGuard already screened the frame
  // (or an upstream layer looked at it), this re-reads that parse.
  const net::FrameView* view = job.pkt.view();
  job.parsed = view != nullptr;
  job.management = view != nullptr && is_management_frame(*view);
  job.action = RuleAction::kAllow;
  if (view != nullptr && !job.management) {
    const auto& tuple = job.pkt.five_tuple();
    bool state_hit = false;
    if (profile_.match_backend == MatchBackend::kLinear && profile_.stateful &&
        tuple && !view->vpg) {
      service += profile_.state_lookup;
      state_hit = flow_states_.lookup(*tuple, sim_.now());
    }
    if (!state_hit) {
      const MatchResult mr = classify(*view, &service);
      fwstats_.rules_traversed += static_cast<std::uint64_t>(mr.rules_traversed);
      job.action = mr.action;
      job.vpg_id = mr.vpg_id;
      if (mr.action == RuleAction::kVpg) {
        // Crypto runs over the sealed payload: the existing sealed bytes for
        // inbound VPG frames, payload + AEAD tag for outbound. Crypto cost is
        // per frame, so a flow-cache hit on a VPG verdict still pays it.
        const std::size_t crypto_bytes =
            view->vpg ? view->l4_payload.size()
                      : view->l3_payload.size() + crypto::Aead::kTagSize;
        const sim::Duration one_pass =
            profile_.vpg_setup +
            profile_.vpg_per_byte * static_cast<std::int64_t>(crypto_bytes);
        // Decrypt-always ablation: a naive matcher attempts decryption at
        // every VPG rule it walks past, not just the matching one.
        const int passes = (profile_.vpg_decrypt_always && view->vpg)
                               ? std::max(1, mr.vpg_rules_traversed)
                               : 1;
        service += one_pass * static_cast<std::int64_t>(passes);
      }
      if (profile_.match_backend == MatchBackend::kLinear && profile_.stateful &&
          tuple && !view->vpg && mr.action == RuleAction::kAllow) {
        flow_states_.insert(*tuple, sim_.now());
      }
    }
  }

  if (profile_.service_jitter > 0) {
    service = service * (1.0 + profile_.service_jitter *
                                   sim_.rng().uniform_real(-1.0, 1.0));
  }

  fwstats_.cpu_busy += service;
  if (service_hist_ != nullptr) {
    service_hist_->record(static_cast<std::uint64_t>(service.ns()));
  }
  sim_.schedule(service, [this, epoch = service_epoch_] {
    if (epoch != service_epoch_) return;  // card was restarted mid-service
    busy_ = false;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    (job.inbound ? rx_buffered_bytes_ : tx_buffered_bytes_) -= job.pkt.size();
    finish(std::move(job));
    start_next();
  });
}

MatchResult FirewallNic::classify(const net::FrameView& view,
                                  sim::Duration* service) {
  if (profile_.match_backend == MatchBackend::kLinear) {
    const MatchResult mr = rules_->match(view);
    *service += profile_.per_rule * static_cast<std::int64_t>(mr.rules_traversed);
    return mr;
  }

  // Compiled backends. Verdicts are bit-identical to the linear matcher;
  // only the cost model differs.
  ++matchstats_.lookups;
  const auto tuple = view.five_tuple();
  const bool cacheable = profile_.match_backend == MatchBackend::kCompiledFlowCache &&
                         tuple && !view.vpg;
  if (cacheable) {
    *service += profile_.flow_lookup;
    MatchResult cached;
    if (flow_cache_.lookup(*tuple, &cached)) return cached;
  }
  const CompiledMatch cm = compiled_.match(view);
  *service += profile_.compiled_node * static_cast<std::int64_t>(cm.nodes);
  matchstats_.compiled_nodes += static_cast<std::uint64_t>(cm.nodes);
  if (cacheable) {
    *service += profile_.flow_insert;
    flow_cache_.insert(*tuple, cm.result);
  }
  return cm.result;
}

void FirewallNic::finish(Job job) {
  ++fwstats_.frames_processed;
  if (!job.parsed) {
    // Unparseable garbage is dropped after the base processing cost.
    ++(job.inbound ? stats_.rx_dropped : stats_.tx_dropped);
    return;
  }
  if (job.management) {
    if (job.inbound) {
      ++fwstats_.rx_allowed;
      deliver_to_host(std::move(job.pkt));
    } else {
      ++fwstats_.tx_allowed;
      send_to_wire(std::move(job.pkt));
    }
    return;
  }

  if (job.inbound) {
    switch (job.action) {
      case RuleAction::kAllow:
        ++fwstats_.rx_allowed;
        deliver_to_host(std::move(job.pkt));
        return;
      case RuleAction::kVpg:
        // decapsulate() rejects non-VPG frames, bad auth, and replays.
        if (vpgs_.decapsulate(job.pkt)) {
          ++fwstats_.rx_allowed;
          deliver_to_host(std::move(job.pkt));
        } else {
          // Cleartext traffic matching a VPG selector, or failed auth:
          // policy requires the tunnel, so the frame dies here.
          ++fwstats_.vpg_drops;
          ++stats_.rx_dropped;
        }
        return;
      case RuleAction::kDeny:
        ++fwstats_.rx_denied;
        ++stats_.rx_dropped;
        note_inbound_deny();
        return;
    }
    return;
  }

  switch (job.action) {
    case RuleAction::kAllow:
      ++fwstats_.tx_allowed;
      send_to_wire(std::move(job.pkt));
      return;
    case RuleAction::kVpg:
      if (vpgs_.encapsulate(job.vpg_id, job.pkt)) {
        ++fwstats_.tx_allowed;
        send_to_wire(std::move(job.pkt));
      } else {
        ++fwstats_.vpg_drops;
        ++stats_.tx_dropped;
      }
      return;
    case RuleAction::kDeny:
      ++fwstats_.tx_denied;
      ++stats_.tx_dropped;
      return;
  }
}

void FirewallNic::register_metrics(telemetry::MetricRegistry& registry,
                                   const std::string& labels) {
  auto fw_counter = [&](const char* name, const std::uint64_t* field) {
    registry.counter_fn(name, labels,
                        [field] { return static_cast<double>(*field); });
  };
  fw_counter("fw.rx_ring_drops", &fwstats_.rx_ring_drops);
  fw_counter("fw.rx_ring_drops_large", &fwstats_.rx_ring_drops_large);
  fw_counter("fw.tx_ring_drops", &fwstats_.tx_ring_drops);
  fw_counter("fw.rx_allowed", &fwstats_.rx_allowed);
  fw_counter("fw.rx_denied", &fwstats_.rx_denied);
  fw_counter("fw.tx_allowed", &fwstats_.tx_allowed);
  fw_counter("fw.tx_denied", &fwstats_.tx_denied);
  fw_counter("fw.vpg_drops", &fwstats_.vpg_drops);
  fw_counter("fw.lockup_drops", &fwstats_.lockup_drops);
  fw_counter("fw.frames_processed", &fwstats_.frames_processed);
  fw_counter("fw.rules_traversed", &fwstats_.rules_traversed);
  registry.counter_fn("fw.cpu_busy_seconds", labels,
                      [this] { return fwstats_.cpu_busy.to_seconds(); });
  registry.gauge("fw.queue_depth", labels,
                 [this] { return static_cast<double>(queue_.size()); });
  registry.gauge("fw.rx_buffered_bytes", labels,
                 [this] { return static_cast<double>(rx_buffered_bytes_); });
  registry.gauge("fw.tx_buffered_bytes", labels,
                 [this] { return static_cast<double>(tx_buffered_bytes_); });
  registry.gauge("fw.locked_up", labels,
                 [this] { return locked_ ? 1.0 : 0.0; });
  service_hist_ = &registry.histogram("fw.service_time_ns", labels);

  if (profile_.match_backend != MatchBackend::kLinear) {
    // "match.*" joins the registry only for the compiled backends: the paper
    // figures all run the linear backend, so their metric set — and
    // therefore their timeline artifacts — stay byte-identical to a build
    // without this subsystem (same pattern as nic.rx_checksum_drops).
    fw_counter("match.lookups", &matchstats_.lookups);
    fw_counter("match.compiled_nodes", &matchstats_.compiled_nodes);
    fw_counter("match.rebuilds", &matchstats_.rebuilds);
    auto cache_counter = [&](const char* name, std::uint64_t FlowCacheStats::* field) {
      registry.counter_fn(name, labels, [this, field] {
        return static_cast<double>(flow_cache_.stats().*field);
      });
    };
    cache_counter("match.flow_lookups", &FlowCacheStats::lookups);
    cache_counter("match.flow_hits", &FlowCacheStats::hits);
    cache_counter("match.flow_misses", &FlowCacheStats::misses);
    cache_counter("match.flow_inserts", &FlowCacheStats::inserts);
    cache_counter("match.flow_evictions", &FlowCacheStats::evictions);
    cache_counter("match.flow_stale_hits", &FlowCacheStats::stale_hits);
    cache_counter("match.flow_invalidations", &FlowCacheStats::invalidations);
    registry.gauge("match.flow_live_entries", labels, [this] {
      return static_cast<double>(flow_cache_.live_entries());
    });
    registry.gauge("match.compiled_memory_bytes", labels, [this] {
      return static_cast<double>(compiled_.stats().memory_bytes);
    });
  }

  if (guard_.config().enabled) {
    // guard_ has stable address even if enable_flood_guard replaces it.
    auto guard_counter = [&](const char* name, std::uint64_t FloodGuardStats::* field) {
      registry.counter_fn(name, labels, [this, field] {
        return static_cast<double>(guard_.stats().*field);
      });
    };
    guard_counter("guard.screened", &FloodGuardStats::screened);
    guard_counter("guard.per_source_drops", &FloodGuardStats::per_source_drops);
    guard_counter("guard.new_source_drops", &FloodGuardStats::new_source_drops);
    guard_counter("guard.aggregate_drops", &FloodGuardStats::aggregate_drops);
    guard_counter("guard.penalized_drops", &FloodGuardStats::penalized_drops);
    guard_counter("guard.penalties_imposed", &FloodGuardStats::penalties_imposed);
    guard_counter("guard.evictions", &FloodGuardStats::evictions);
    registry.gauge("guard.tracked_sources", labels, [this] {
      return static_cast<double>(guard_.tracked_sources());
    });
  }
}

void FirewallNic::reconfigure_guard() {
  if (!guard_.config().enabled) return;
  // The card knows its own minimum-frame match cost for the installed
  // backend; the guard scales admission so admitted traffic cannot saturate
  // the embedded CPU. For the compiled backends the conservative figure is
  // a full miss (worst-case decision walk, plus the cache probe + insert
  // when the flow cache is on — a spoofed flood misses every time).
  sim::Duration match_cost;
  switch (profile_.match_backend) {
    case MatchBackend::kLinear:
      match_cost = profile_.per_rule * rules_->total_cost_units();
      break;
    case MatchBackend::kCompiled:
      match_cost = profile_.compiled_node * compiled_.worst_case_nodes();
      break;
    case MatchBackend::kCompiledFlowCache:
      match_cost = profile_.flow_lookup + profile_.flow_insert +
                   profile_.compiled_node * compiled_.worst_case_nodes();
      break;
  }
  const sim::Duration walk =
      profile_.arrival_overhead + profile_.fixed + profile_.per_byte * 60 +
      match_cost;
  guard_.reconfigure_for_capacity(1.0 / walk.to_seconds());
}

bool FirewallNic::is_management_frame(const net::FrameView& view) const {
  if (!management_peer_ || !view.ip) return false;
  return view.ip->src == *management_peer_ || view.ip->dst == *management_peer_;
}

void FirewallNic::note_inbound_deny() {
  if (profile_.lockup_denies_per_sec == 0) return;
  const auto now = sim_.now();
  if (now - deny_window_start_ >= sim::Duration::seconds(1)) {
    deny_window_start_ = now;
    deny_window_count_ = 0;
  }
  if (++deny_window_count_ > profile_.lockup_denies_per_sec) {
    locked_ = true;
    BARB_WARN("%s: deny-path lockup latched at %s (denied %llu frames within 1s)",
              name_.c_str(), now.to_string().c_str(),
              static_cast<unsigned long long>(deny_window_count_));
  }
}

}  // namespace barb::firewall
