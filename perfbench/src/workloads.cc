#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "apps/flood_generator.h"
#include "apps/http.h"
#include "apps/iperf.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "core/testbed.h"
#include "core/topology.h"
#include "crypto/hmac.h"
#include "firewall/classifier/compiled_classifier.h"
#include "firewall/policy.h"
#include "firewall/policy_agent.h"
#include "firewall/policy_protocol.h"
#include "firewall/policy_server.h"
#include "firewall/policygen/policy_corpus.h"
#include "net/checksum.h"
#include "net/frame_view.h"
#include "stack/nic.h"
#include "telemetry/registry.h"

namespace perfbench {
namespace {

using namespace barb;

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

// The settings of the fast-mode paper artifacts (BARB_BENCH_FAST=1): one
// 500 ms iperf window per point, 2 s http_load runs.
core::MeasurementOptions unit_options(std::uint64_t seed) {
  core::MeasurementOptions o;
  o.window = sim::Duration::milliseconds(500);
  o.repetitions = 1;
  o.http_duration = sim::Duration::seconds(2);
  o.seed = seed;
  return o;
}

double sum_metric(const telemetry::MetricRegistry& registry, const std::string& name) {
  double total = 0;
  registry.for_each([&](const telemetry::MetricRegistry::Entry& e) {
    if (e.id.name == name) total += e.sample();
  });
  return total;
}

// The frame-buffer pool is thread-local and cumulative; its acquisition
// counter (buffers handed out, recycled or new) is read before and after
// each unit.
double pool_acquisitions() {
  struct PoolCounters {
    PoolCounters() { core::Testbed::register_pool_metrics(registry); }
    telemetry::MetricRegistry registry;
  };
  static PoolCounters pool;
  return pool.registry.value("pool.acquisitions");
}

// Times every run_until the benchmark makes; in a traced pass each call is
// the root span the spliced spans nest in.
class RunClock {
 public:
  explicit RunClock(Tracer* tracer) : tracer_(tracer) {}

  void run_until(sim::Simulation& sim, sim::TimePoint until) {
    const std::int64_t t0 = now_ns();
    const bool traced = tracer_ != nullptr && tracer_->active();
    if (traced) tracer_->begin(SpanKind::kRun);
    sim.run_until(until);
    if (traced) tracer_->end();
    run_ns_ += now_ns() - t0;
    pending_max_ = std::max(pending_max_, sim.scheduler().stats().pending);
  }
  void run_for(sim::Simulation& sim, sim::Duration d) { run_until(sim, sim.now() + d); }

  std::int64_t run_ns() const { return run_ns_; }
  std::size_t pending_max() const { return pending_max_; }

 private:
  Tracer* tracer_;
  std::int64_t run_ns_ = 0;
  std::size_t pending_max_ = 0;
};

// The timing splices of one traced unit. Declared before the simulation it
// splices into, so it outlives every port that points at it.
class Splices {
 public:
  // Wraps every link port's sink (switch ports -> kSwitch, NICs -> kNicRx)
  // and every NIC-to-host handoff (kStackRx). At `capture_host`, the frames
  // arriving from the wire are sampled into `wire` and the frames its NIC
  // hands to the host (opened, in a VPG) into `host`.
  void splice(core::Fabric& fabric, Tracer& tracer, int capture_host,
              FrameCapture* wire, FrameCapture* host) {
    std::map<const link::FrameSink*, int> nic_host;
    for (int h = 0; h < fabric.num_hosts(); ++h) nic_host[&fabric.host(h).nic()] = h;
    for (const auto& l : fabric.links()) {
      for (link::LinkPort* port : {&l->a(), &l->b()}) {
        link::FrameSink* down = port->sink();
        if (down == nullptr) continue;
        const auto it = nic_host.find(down);
        const bool nic = it != nic_host.end();
        sinks_.push_back(std::make_unique<TimedSink>(
            tracer, nic ? SpanKind::kNicRx : SpanKind::kSwitch, down,
            nic && it->second == capture_host ? wire : nullptr));
        port->connect_sink(sinks_.back().get());
      }
    }
    for (int h = 0; h < fabric.num_hosts(); ++h) {
      stack::Host& hs = fabric.host(h);
      sinks_.push_back(std::make_unique<TimedSink>(tracer, SpanKind::kStackRx, &hs,
                                                   h == capture_host ? host : nullptr));
      hs.nic().set_host_sink(sinks_.back().get());
    }
  }

  void wrap_filter(stack::Host& host, stack::HostPacketFilter* inner, Tracer& tracer) {
    filter_ = std::make_unique<TimedFilter>(tracer, inner);
    host.set_packet_filter(filter_.get());
  }

 private:
  std::vector<std::unique_ptr<TimedSink>> sinks_;
  std::unique_ptr<TimedFilter> filter_;
};

// ---------------------------------------------------------------------------
// Correctness: frame conservation
// ---------------------------------------------------------------------------

std::string conservation_violation(core::Fabric& fabric) {
  for (int h = 0; h < fabric.num_hosts(); ++h) {
    stack::Host& host = fabric.host(h);
    const stack::NicStats& s = host.nic().stats();
    if (s.rx_frames != s.rx_delivered + s.rx_dropped) {
      return "nic " + host.name() + ": rx " + std::to_string(s.rx_frames) +
             " != delivered " + std::to_string(s.rx_delivered) + " + dropped " +
             std::to_string(s.rx_dropped);
    }
    if (s.tx_requested != s.tx_sent + s.tx_dropped) {
      return "nic " + host.name() + ": tx requested " + std::to_string(s.tx_requested) +
             " != sent " + std::to_string(s.tx_sent) + " + dropped " +
             std::to_string(s.tx_dropped);
    }
    if (link::LinkPort* port = host.nic().port(); port != nullptr) {
      const link::LinkPortStats& ps = port->stats();
      if (s.tx_sent != ps.tx_frames + ps.dropped_frames + port->queue_depth()) {
        return "link at " + host.name() + ": nic sent " + std::to_string(s.tx_sent) +
               " != wire " + std::to_string(ps.tx_frames) + " + dropped " +
               std::to_string(ps.dropped_frames) + " + queued";
      }
      if (ps.rx_frames != s.rx_frames) {
        return "link at " + host.name() + ": delivered " + std::to_string(ps.rx_frames) +
               " != nic rx " + std::to_string(s.rx_frames);
      }
    }
  }
  for (std::size_t i = 0; i < fabric.links().size(); ++i) {
    link::Link& l = *fabric.links()[i];
    for (auto [p, q] : {std::pair{&l.a(), &l.b()}, std::pair{&l.b(), &l.a()}}) {
      if (p->queue_depth() != 0) return "link " + std::to_string(i) + ": queued frames";
      if (p->stats().tx_frames != q->stats().rx_frames) {
        return "link " + std::to_string(i) + ": sent " +
               std::to_string(p->stats().tx_frames) + " != delivered " +
               std::to_string(q->stats().rx_frames) + " with nothing in flight";
      }
    }
  }
  return {};
}

// Frame conservation at quiescence: sent = delivered + dropped + in flight
// on every NIC and link port. With the traffic sources stopped, the fabric
// is drained in 5 ms steps and the check passes at the first instant where
// nothing is queued or on the wire and every identity holds. A lost or
// double-counted frame keeps an identity broken for good.
std::string check_conservation(sim::Simulation& sim, core::Fabric& fabric) {
  std::string why;
  for (int step = 0; step < 400; ++step) {
    why = conservation_violation(fabric);
    if (why.empty()) return {};
    sim.run_for(sim::Duration::milliseconds(5));
  }
  return "frame conservation: " + why;
}

// ---------------------------------------------------------------------------
// Replays of captured frames through public per-frame functions
// ---------------------------------------------------------------------------

// Repeats `body` over the whole input until at least `min_ns` have passed;
// returns {elapsed ns, repetitions}.
template <typename F>
std::pair<double, double> repeat_timed(F&& body, std::int64_t min_ns = 300000) {
  std::uint64_t sink = 0;
  sink += body();  // warm caches
  std::int64_t elapsed = 0;
  double reps = 0;
  const std::int64_t t0 = now_ns();
  while (elapsed < min_ns) {
    sink += body();
    reps += 1;
    elapsed = now_ns() - t0;
  }
  static volatile std::uint64_t keep = 0;
  keep = keep + sink;
  return {static_cast<double>(elapsed), reps};
}

// The frames captured at the device under test, from the wire and as
// handed to its host.
struct Captures {
  FrameCapture wire;
  FrameCapture host;
};

// Replays the captured frames: header parse, transport checksum and the
// installed match backend on the wire frames; VPG seal/open on the frames a
// VPG device handed to its host. Totals go into `layers` as
// "<metric>.ns"/"<metric>.ops" pairs.
void replay_capture(const Captures& captures, firewall::FirewallNic* fw,
                    LayerCounts& layers) {
  const auto& frames = captures.wire.frames();
  if (frames.empty()) return;
  std::vector<net::FrameView> views;
  for (const auto& f : frames) {
    if (auto v = net::FrameView::parse(f)) views.push_back(*v);
  }
  const double n = static_cast<double>(frames.size());

  auto [parse_ns, parse_reps] = repeat_timed([&] {
    std::uint64_t acc = 0;
    for (const auto& f : frames) acc += net::FrameView::parse(f).has_value() ? 1 : 0;
    return acc;
  });
  layers.add("net.parse_ns.ns", parse_ns);
  layers.add("net.parse_ns.ops", parse_reps * n);

  std::vector<const net::FrameView*> l4;
  for (const auto& v : views) {
    if (v.ip && (v.tcp || v.udp)) l4.push_back(&v);
  }
  if (!l4.empty()) {
    auto [ck_ns, ck_reps] = repeat_timed([&] {
      std::uint64_t acc = 0;
      for (const net::FrameView* v : l4) {
        acc += net::transport_checksum(v->ip->src, v->ip->dst, v->ip->protocol,
                                       v->l3_payload);
      }
      return acc;
    });
    layers.add("net.checksum_ns.ns", ck_ns);
    layers.add("net.checksum_ns.ops", ck_reps * static_cast<double>(l4.size()));
  }

  if (fw != nullptr && !views.empty()) {
    const bool linear = fw->profile().match_backend == firewall::MatchBackend::kLinear;
    auto [m_ns, m_reps] = repeat_timed([&] {
      std::uint64_t acc = 0;
      for (const auto& v : views) {
        acc += linear ? static_cast<std::uint64_t>(fw->rule_set().match(v).rules_traversed)
                      : static_cast<std::uint64_t>(fw->compiled_classifier().match(v).nodes);
      }
      return acc;
    });
    layers.add("firewall.match_ns.ns", m_ns);
    layers.add("firewall.match_ns.ops", m_reps * static_cast<double>(views.size()));
  }

  // AEAD: seal at one end of a VPG, open at the other, over the frames
  // that crossed the device's VPG.
  if (fw == nullptr || fw->vpg_table().size() == 0) return;
  const std::vector<std::uint8_t> key(32, 0x3c);
  firewall::VpgTable sealer;
  firewall::VpgTable opener;
  sealer.install(1, key);
  opener.install(1, key);
  std::vector<const std::vector<std::uint8_t>*> sealable;
  double kib = 0;
  for (const auto& f : captures.host.frames()) {
    std::vector<std::uint8_t> buf = f;
    if (sealer.encapsulate(1, buf) && opener.decapsulate(buf)) {
      sealable.push_back(&f);
      kib += static_cast<double>(f.size()) / 1024.0;
    }
  }
  if (sealable.empty()) return;
  auto [a_ns, a_reps] = repeat_timed([&] {
    std::uint64_t acc = 0;
    for (const auto* f : sealable) {
      std::vector<std::uint8_t> buf = *f;
      if (sealer.encapsulate(1, buf) && opener.decapsulate(buf)) acc += buf.size();
    }
    return acc;
  });
  layers.add("crypto.aead_ns_per_kib.ns", a_ns);
  layers.add("crypto.aead_ns_per_kib.ops", a_reps * kib);
}

// Deterministic per-unit counts from the program's own counters.
void add_fabric_counts(const telemetry::MetricRegistry& registry, LayerCounts& layers) {
  layers.add("link.frames", sum_metric(registry, "link.rx_frames"));
  layers.add("link.tx_drops", sum_metric(registry, "link.tx_drops"));
  layers.add("stack.tcp_segments_sent", sum_metric(registry, "tcp.segments_sent"));
  layers.add("stack.tcp_retransmissions", sum_metric(registry, "tcp.retransmissions"));
  layers.add("stack.tcp_rst_sent", sum_metric(registry, "host.tcp_rst_sent"));
  layers.add("stack.ip_rx_dropped", sum_metric(registry, "host.ip_rx_dropped"));
}

void add_firewall_counts(firewall::FirewallNic& fw, double sim_s,
                         LayerCounts& layers) {
  const firewall::FirewallNicStats& s = fw.fw_stats();
  layers.add("fw.frames_processed", static_cast<double>(s.frames_processed));
  layers.add("fw.rules_traversed", static_cast<double>(s.rules_traversed));
  layers.add("firewall.rx_ring_drops", static_cast<double>(s.rx_ring_drops));
  layers.add("firewall.lockup_drops", static_cast<double>(s.lockup_drops));
  layers.add("fw.rx_allowed", static_cast<double>(s.rx_allowed));
  layers.add("fw.rx_admitted", static_cast<double>(fw.stats().rx_frames) -
                                   static_cast<double>(s.rx_ring_drops) -
                                   static_cast<double>(s.lockup_drops));
  layers.add("fw.cpu_busy_s", s.cpu_busy.to_seconds());
  layers.add("fw.sim_s", sim_s);
  layers.add("fw.flow_hits", static_cast<double>(fw.flow_cache().stats().hits));
  layers.add("fw.flow_lookups", static_cast<double>(fw.flow_cache().stats().lookups));
  const firewall::VpgStats& v = fw.vpg_table().stats();
  layers.add("crypto.vpg_frames", static_cast<double>(v.encapsulated + v.decapsulated));
}

// ---------------------------------------------------------------------------
// Testbed workloads: flood_collapse and clean_transfer
// ---------------------------------------------------------------------------

enum class UnitKind { kFlood, kBandwidth, kHttp };

struct TestbedUnit {
  std::string id;
  UnitKind kind = UnitKind::kBandwidth;
  core::TestbedConfig config;
  core::FloodSpec flood;
  // Point index the unit's simulation seed derives from; the paper-figure
  // units use the index of the same point in their figure's grid, so at
  // seed 1 they reproduce the fast-mode artifact values exactly.
  std::uint64_t seed_index = 0;
};

// The flood ladder: the Figure 3(a) rates, and the rates halfway between
// them.
constexpr double kFloodRates[] = {5000,  10000, 15000, 20000, 25000,
                                  30000, 35000, 40000, 45000};
constexpr double kHalfStepRates[] = {7500,  12500, 17500, 22500,
                                     27500, 32500, 37500, 42500};

core::TestbedConfig testbed_config(core::FirewallKind kind, int depth) {
  core::TestbedConfig cfg;
  cfg.firewall = kind;
  cfg.action_rule_depth = depth;
  cfg.des_shards = 1;  // serial engine, whatever the environment says
  return cfg;
}

// Seven firewall cases on a 17-rate ladder (119 units): the five Figure 3(a)
// cases at depth 1, the ADF with the flood 32 rules deep, and a spoofed
// flood against the compiled classifier with its flow cache.
std::vector<TestbedUnit> flood_collapse_units() {
  std::vector<TestbedUnit> units;
  const core::FirewallKind kinds[] = {core::FirewallKind::kNone,
                                      core::FirewallKind::kIptables,
                                      core::FirewallKind::kEfw, core::FirewallKind::kAdf,
                                      core::FirewallKind::kAdfVpg};
  auto add = [&](const std::string& name, core::TestbedConfig cfg, double rate, bool spoof) {
    TestbedUnit u;
    u.id = name + "/" + std::to_string(static_cast<int>(rate));
    u.kind = UnitKind::kFlood;
    u.config = cfg;
    u.flood.rate_pps = rate;
    u.flood.spoof_source = spoof;
    u.seed_index = units.size();
    units.push_back(std::move(u));
  };
  core::TestbedConfig spoofed = testbed_config(core::FirewallKind::kAdf, 32);
  spoofed.flood_action = firewall::RuleAction::kDeny;
  spoofed.match_backend = firewall::MatchBackend::kCompiledFlowCache;
  // Figure 3(a) grid, in the figure's own order (points 0..44).
  for (double rate : kFloodRates) {
    for (auto kind : kinds) {
      add(std::string("fig3a/") + core::to_string(kind), testbed_config(kind, 1), rate,
          false);
    }
  }
  // Deep rule walk: the flood traverses 32 rules on the ADF.
  for (double rate : kFloodRates) {
    add("adf_depth32", testbed_config(core::FirewallKind::kAdf, 32), rate, false);
  }
  // Spoofed sources: every flood frame is a new flow, so the cache misses.
  for (double rate : kFloodRates) add("adf_flowcache_spoofed", spoofed, rate, true);
  // Every case again at the half-step rates.
  for (double rate : kHalfStepRates) {
    for (auto kind : kinds) {
      add(std::string("half/") + core::to_string(kind), testbed_config(kind, 1), rate,
          false);
    }
    add("half/adf_depth32", testbed_config(core::FirewallKind::kAdf, 32), rate, false);
    add("half/adf_flowcache_spoofed", spoofed, rate, true);
  }
  return units;
}

// 141 units: EFW and ADF at every depth 1..64, ADF-VPG with 1..4 VPGs, and
// the nine Table 1 rows.
std::vector<TestbedUnit> clean_transfer_units() {
  std::vector<TestbedUnit> units;
  auto add = [&](std::string id, UnitKind kind, core::TestbedConfig cfg,
                 std::uint64_t seed_index) {
    TestbedUnit u;
    u.id = std::move(id);
    u.kind = kind;
    u.config = cfg;
    u.seed_index = seed_index;
    units.push_back(std::move(u));
  };
  // Figure 2's grid has 36 points: depth slot * 4 + column (columns
  // none/iptables/EFW/ADF at depths 1, 2, 4, 8, 16, 32, 48, 64), then
  // ADF-VPG at 32..35. A depth off that grid takes an index from 36 on.
  const int fig2_depths[] = {1, 2, 4, 8, 16, 32, 48, 64};
  std::uint64_t off_grid = 36;
  for (int depth = 1; depth <= 64; ++depth) {
    const int* slot = std::find(std::begin(fig2_depths), std::end(fig2_depths), depth);
    const bool in_fig2 = slot != std::end(fig2_depths);
    const std::string prefix = in_fig2 ? "fig2/" : "depth/";
    for (auto [column, kind] :
         {std::pair{2, core::FirewallKind::kEfw}, std::pair{3, core::FirewallKind::kAdf}}) {
      const std::uint64_t index =
          in_fig2 ? static_cast<std::uint64_t>((slot - fig2_depths) * 4 + column)
                  : off_grid++;
      add(prefix + core::to_string(kind) + "/" + std::to_string(depth),
          UnitKind::kBandwidth, testbed_config(kind, depth), index);
    }
  }
  for (int vpgs = 1; vpgs <= 4; ++vpgs) {
    add("fig2/ADF-VPG/" + std::to_string(vpgs), UnitKind::kBandwidth,
        testbed_config(core::FirewallKind::kAdfVpg, vpgs),
        31 + static_cast<std::uint64_t>(vpgs));
  }
  // Table 1: standard NIC, ADF at five depths, ADF-VPG at three (points 0..8).
  std::vector<std::pair<core::FirewallKind, int>> rows = {{core::FirewallKind::kNone, 1}};
  for (int depth : {1, 4, 16, 32, 64}) rows.emplace_back(core::FirewallKind::kAdf, depth);
  for (int vpgs : {1, 2, 4}) rows.emplace_back(core::FirewallKind::kAdfVpg, vpgs);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    add(std::string("table1/") + core::to_string(rows[i].first) + "/" +
            std::to_string(rows[i].second),
        UnitKind::kHttp, testbed_config(rows[i].first, rows[i].second), i);
  }
  return units;
}

apps::FloodConfig flood_config(const core::FloodSpec& flood, net::Ipv4Address target) {
  apps::FloodConfig fc;
  fc.target = target;
  fc.target_port = core::kFloodPort;
  fc.type = flood.type;
  fc.rate_pps = flood.rate_pps;
  fc.frame_size = flood.frame_size;
  fc.spoof_source = flood.spoof_source;
  return fc;
}

// The same sequence of public calls core::measure_* makes for the unit's
// experiment, with the set-up and every run_until timed separately.
// check_against_measure() keeps the two identical.
std::vector<double> run_testbed_unit(const TestbedUnit& u, std::uint64_t seed,
                                     Tracer* tracer, PassResult& out) {
  constexpr int kTargetHost = 3;  // Testbed host order: policy, attacker, client, target
  const core::MeasurementOptions opt = unit_options(core::derive_point_seed(seed, u.seed_index));
  telemetry::MetricRegistry registry;  // outlives everything it samples
  Splices splices;
  Captures capture;
  RunClock clock(tracer);
  const double pool0 = pool_acquisitions();

  const std::int64_t t0 = now_ns();
  sim::Simulation sim(opt.seed);
  core::Testbed tb(sim, u.config);
  std::optional<apps::IperfServer> iperf;
  std::optional<apps::HttpServer> http;
  if (u.kind == UnitKind::kHttp) {
    http.emplace(tb.target(), 80);
    http->add_page("/", 10 * 1024);
    http->start();
  } else {
    iperf.emplace(tb.target());
    iperf->start();
  }
  const std::int64_t t1 = now_ns();
  tb.settle();
  const std::int64_t t2 = now_ns();
  if (tracer != nullptr) {
    splices.splice(tb.fabric(), *tracer, kTargetHost, &capture.wire, &capture.host);
    if (tb.software_firewall() != nullptr) {
      splices.wrap_filter(tb.target(), tb.software_firewall(), *tracer);
    }
  }

  std::vector<double> values;
  std::uint64_t flood_frames = 0;
  double http_fetches = 0;
  if (u.kind == UnitKind::kHttp) {
    apps::HttpLoadClient client(tb.client(), tb.addresses().target, 80, "/");
    core::HttpPoint point;
    client.run(opt.http_duration, [&](apps::HttpLoadResult r) {
      point.fetches = r.fetches;
      point.errors = r.errors;
      point.fetches_per_sec = r.fetches_per_sec;
      point.mean_connect_ms = r.mean_connect_ms;
      point.mean_response_ms = r.mean_response_ms;
    });
    clock.run_for(sim, opt.http_duration + opt.grace);
    values = {static_cast<double>(point.fetches), static_cast<double>(point.errors),
              point.fetches_per_sec, point.mean_connect_ms, point.mean_response_ms};
    http_fetches = static_cast<double>(point.fetches);
  } else {
    std::optional<apps::FloodGenerator> generator;
    if (u.kind == UnitKind::kFlood) {
      generator.emplace(tb.attacker(), flood_config(u.flood, tb.addresses().target));
      generator->start();
      clock.run_for(sim, opt.flood_warmup);
    }
    for (int rep = 0; rep < opt.repetitions; ++rep) {
      apps::IperfClient client(tb.client(), tb.addresses().target);
      std::optional<double> measured;
      client.run(apps::IperfClient::Mode::kTcp, opt.window,
                 [&](apps::IperfResult r) { measured = r.completed ? r.mbps : 0.0; });
      clock.run_for(sim, opt.window + opt.grace);
      if (!measured) {
        client.cancel();
        clock.run_for(sim, sim::Duration::milliseconds(1));
      }
      values.push_back(measured.value_or(0.0));
      clock.run_for(sim, opt.gap);
    }
    if (generator) {
      generator->stop();
      flood_frames = generator->packets_sent();
    }
  }
  const std::int64_t t3 = now_ns();
  if (tracer != nullptr) tracer->set_active(false);
  out.build_s += seconds_between(t0, t1);
  out.settle_s += seconds_between(t1, t2);
  out.unit_ms.push_back(seconds_between(t0, t3) * 1e3);
  out.run_s += static_cast<double>(clock.run_ns()) * 1e-9;

  // The simulated outputs must be usable numbers: no clean transfer or page
  // load may come back empty.
  for (double v : values) {
    if (!std::isfinite(v) || v < 0) throw std::runtime_error("invalid result");
  }
  if (u.kind == UnitKind::kBandwidth && values.front() <= 0) {
    throw std::runtime_error("no goodput without an attack");
  }
  if (u.kind == UnitKind::kHttp && (values[0] <= 0 || values[1] != 0)) {
    throw std::runtime_error("http_load had errors or no fetches");
  }

  tb.register_metrics(registry);
  tb.register_scheduler_metrics(registry);
  const double frames = sum_metric(registry, "link.rx_frames");
  out.frames += frames;
  LayerCounts& L = out.layers;
  add_fabric_counts(registry, L);
  L.add("sim.events", registry.value("sched.events_executed"));
  L.keep_max("sim.pending_max", static_cast<double>(clock.pending_max()));
  L.add("net.pool_allocs", pool_acquisitions() - pool0);
  L.add("apps.flood_frames", static_cast<double>(flood_frames));
  L.add("apps.http_fetches", http_fetches);
  L.keep_max("core.mem_per_host_bytes",
             static_cast<double>(tb.fabric().memory_audit().per_host_bytes()));
  if (tb.target_firewall() != nullptr) {
    add_firewall_counts(*tb.target_firewall(), (sim.now() - sim::TimePoint::origin()).to_seconds(), L);
  }
  if (tracer != nullptr) replay_capture(capture, tb.target_firewall(), L);

  if (std::string why = check_conservation(sim, tb.fabric()); !why.empty()) {
    throw std::runtime_error(why);
  }
  return values;
}

PassResult run_testbed_pass(const std::vector<TestbedUnit>& units, const PassContext& cx) {
  PassResult out;
  out.units = units.size();
  for (std::size_t i = 0; i < units.size(); ++i) {
    const TestbedUnit& u = units[i];
    if (cx.tracer != nullptr) {
      cx.tracer->set_unit(static_cast<std::uint32_t>(i));
      cx.tracer->set_active(true);
    }
    try {
      out.outputs.push_back({u.id, run_testbed_unit(u, cx.seed, cx.tracer, out)});
    } catch (const std::exception& e) {
      if (cx.tracer != nullptr) {
        cx.tracer->set_active(false);
        cx.tracer->reset_stack();
      }
      ++out.units_failed;
      out.failures.push_back(u.id + ": " + e.what());
      out.outputs.push_back({u.id, {}});
      if (out.unit_ms.size() == i) out.unit_ms.push_back(std::nan(""));
    }
  }
  // Set-up and simulation of every unit; the checks after each unit are
  // not part of it.
  for (double ms : out.unit_ms) {
    if (!std::isnan(ms)) out.wall_s += ms * 1e-3;
  }
  return out;
}

PassResult flood_collapse_pass(const PassContext& cx) {
  static const std::vector<TestbedUnit> units = flood_collapse_units();
  return run_testbed_pass(units, cx);
}

PassResult clean_transfer_pass(const PassContext& cx) {
  static const std::vector<TestbedUnit> units = clean_transfer_units();
  return run_testbed_pass(units, cx);
}

// ---------------------------------------------------------------------------
// Fabric workloads: fleet_flood and policy_push
// ---------------------------------------------------------------------------

void register_fabric_metrics(core::Fabric& fabric, telemetry::MetricRegistry& registry) {
  for (int h = 0; h < fabric.num_hosts(); ++h) {
    fabric.host(h).register_metrics(registry, "host=" + std::to_string(h));
  }
  for (std::size_t i = 0; i < fabric.links().size(); ++i) {
    const std::string link = "link=" + std::to_string(i);
    fabric.links()[i]->a().register_metrics(registry, link + ",side=a");
    fabric.links()[i]->b().register_metrics(registry, link + ",side=b");
  }
}

// Pass-level accounting shared by the two fabric workloads: counts, the
// conservation check and the traced replays, after the timed part.
void finish_fabric_pass(sim::Simulation& sim, core::Fabric& fabric, const RunClock& clock,
                        double pool0, int capture_host, const Captures& capture,
                        const PassContext& cx, PassResult& out) {
  telemetry::MetricRegistry registry;
  register_fabric_metrics(fabric, registry);
  out.run_s = static_cast<double>(clock.run_ns()) * 1e-9;
  out.frames = sum_metric(registry, "link.rx_frames");
  LayerCounts& L = out.layers;
  add_fabric_counts(registry, L);
  L.add("sim.events", static_cast<double>(sim.events_executed()));
  L.keep_max("sim.pending_max", static_cast<double>(clock.pending_max()));
  L.add("net.pool_allocs", pool_acquisitions() - pool0);
  L.keep_max("core.mem_per_host_bytes",
             static_cast<double>(fabric.memory_audit().per_host_bytes()));
  const double sim_s = (sim.now() - sim::TimePoint::origin()).to_seconds();
  for (int h = 0; h < fabric.num_hosts(); ++h) {
    if (fabric.firewall(h) != nullptr) add_firewall_counts(*fabric.firewall(h), sim_s, L);
  }
  if (cx.tracer != nullptr) replay_capture(capture, fabric.firewall(capture_host), L);
  if (std::string why = check_conservation(sim, fabric); !why.empty()) {
    out.failures.push_back(why);
  }
}

// fleet_goodput at 1024 hosts (bench/fleet_goodput.cc, full mode): ADF on
// every host with the flood denied at depth 32, 511 paced 4 Mbps UDP pairs
// across the spine, two attackers flooding two victims at 8 kpps.
std::string fleet_policy() {
  std::string policy = "default deny\n";
  for (int i = 1; i < 32; ++i) {
    policy += "deny tcp from 192.168." + std::to_string(i / 200) + "." +
              std::to_string(i % 200 + 1) + " to 192.168.250.1\n";
  }
  policy += "deny udp from any to any port " + std::to_string(core::kFloodPort) + "\n";
  policy += "allow any from any to any\n";
  return policy;
}

constexpr int kFleetHosts = 1024;
constexpr int kFleetAttackers = 2;
constexpr double kFleetPairBps = 4e6;
constexpr double kFleetFloodPps = 8000.0;
// Slices: the pairs send from 10 ms to about 1.05 s, then only the floods
// and the reports run. 100 slices of 11 ms cover the busy part and 20
// slices of 95 ms the rest, so the median slice is a busy one.
constexpr int kFleetBusySlices = 100;
constexpr int kFleetTailSlices = 20;

PassResult fleet_flood_pass(const PassContext& cx) {
  PassResult out;
  Splices splices;
  Captures capture;
  RunClock clock(cx.tracer);
  const double pool0 = pool_acquisitions();
  // Point 3 of fleet_goodput's full-mode size grid {64, 256, 512, 1024}.
  const std::uint64_t sim_seed = core::derive_point_seed(cx.seed, 3);
  const sim::Duration window = sim::Duration::seconds(1);

  const std::int64_t t0 = now_ns();
  sim::Simulation sim(sim_seed);
  core::LeafSpineSpec spec;
  spec.hosts = kFleetHosts;
  spec.hosts_per_leaf = 16;
  spec.spines = 2;
  spec.batched_links = true;
  spec.nic_for = [](int index) {
    core::NicSpec nic;
    nic.kind = index < kFleetAttackers ? core::FirewallKind::kNone : core::FirewallKind::kAdf;
    return nic;
  };
  auto fabric = core::build_leaf_spine(sim, spec);
  auto parsed = firewall::parse_policy(fleet_policy());
  if (!parsed.ok()) throw std::runtime_error("fleet policy does not parse");
  for (int i = kFleetAttackers; i < kFleetHosts; ++i) {
    fabric->firewall(i)->install_rule_set(*parsed.rule_set);
  }
  const int pairs = (kFleetHosts - kFleetAttackers) / 2;
  const int first_client = kFleetAttackers;
  const int first_server = kFleetAttackers + pairs;
  std::vector<std::unique_ptr<apps::IperfServer>> servers;
  std::vector<std::unique_ptr<apps::IperfClient>> clients;
  std::vector<apps::IperfResult> results(static_cast<std::size_t>(pairs));
  for (int k = 0; k < pairs; ++k) {
    servers.push_back(std::make_unique<apps::IperfServer>(fabric->host(first_server + k)));
    servers.back()->start();
    clients.push_back(std::make_unique<apps::IperfClient>(
        fabric->host(first_client + k), fabric->host(first_server + k).ip()));
  }
  std::vector<std::unique_ptr<apps::FloodGenerator>> floods;
  for (int a = 0; a < kFleetAttackers; ++a) {
    apps::FloodConfig cfg;
    cfg.target = fabric->host(first_server + a).ip();
    cfg.target_port = core::kFloodPort;
    cfg.rate_pps = kFleetFloodPps;
    cfg.spoof_source = true;
    floods.push_back(std::make_unique<apps::FloodGenerator>(fabric->host(a), cfg));
  }
  sim.schedule(sim::Duration::milliseconds(5), [&] {
    for (auto& f : floods) f->start();
  });
  for (int k = 0; k < pairs; ++k) {
    const auto start = sim::Duration::milliseconds(10) + sim::Duration::microseconds(37) * k;
    sim.schedule(start, [&, k] {
      clients[static_cast<std::size_t>(k)]->run(
          apps::IperfClient::Mode::kUdp, window,
          [&, k](apps::IperfResult r) { results[static_cast<std::size_t>(k)] = r; },
          kFleetPairBps);
    });
  }
  const std::int64_t t1 = now_ns();
  out.build_s = seconds_between(t0, t1);
  if (cx.tracer != nullptr) {
    splices.splice(*fabric, *cx.tracer, first_server, &capture.wire, &capture.host);
    cx.tracer->set_active(true);
  }

  const sim::Duration busy = window + sim::Duration::milliseconds(100);
  const sim::Duration tail = sim::Duration::seconds(2) - sim::Duration::milliseconds(100);
  std::vector<sim::TimePoint> ends;
  for (int s = 1; s <= kFleetBusySlices; ++s) {
    ends.push_back(sim::TimePoint::origin() + busy * s / kFleetBusySlices);
  }
  for (int s = 1; s <= kFleetTailSlices; ++s) {
    ends.push_back(sim::TimePoint::origin() + busy + tail * s / kFleetTailSlices);
  }
  for (std::size_t s = 0; s < ends.size(); ++s) {
    if (cx.tracer != nullptr) cx.tracer->set_unit(static_cast<std::uint32_t>(s));
    const std::int64_t u0 = now_ns();
    clock.run_until(sim, ends[s]);
    out.unit_ms.push_back(seconds_between(u0, now_ns()) * 1e3);
  }
  out.wall_s = seconds_between(t0, now_ns());
  if (cx.tracer != nullptr) cx.tracer->set_active(false);

  double victim = 0, clean = 0, completed = 0;
  for (int k = 0; k < pairs; ++k) {
    const apps::IperfResult& r = results[static_cast<std::size_t>(k)];
    if (r.completed) completed += 1;
    (k < kFleetAttackers ? victim : clean) += r.mbps;
  }
  victim /= kFleetAttackers;
  clean /= pairs - kFleetAttackers;
  out.outputs.push_back({"fleet/1024", {victim, clean, completed}});
  double flood_frames = 0;
  for (auto& f : floods) {
    f->stop();
    flood_frames += static_cast<double>(f->packets_sent());
  }
  out.layers.add("apps.flood_frames", flood_frames);
  finish_fabric_pass(sim, *fabric, clock, pool0, first_server, capture, cx, out);
  if (completed != pairs) out.failures.push_back("fleet: not every pair completed");
  if (!(victim > 0 && clean > 0)) out.failures.push_back("fleet: zero goodput");
  return out;
}

// policy_push: a seed-generated 5000-rule policygen corpus pushed by the
// PolicyServer to 1024 EFW agents on the fleet fabric, then pushed again.
constexpr int kPushAgents = 1024;
constexpr int kPushRules = 5000;
const std::vector<std::uint8_t>& push_key() {
  static const std::vector<std::uint8_t> key(32, 0x5c);
  return key;
}

// The generated input: corpus text with the management-plane allow first
// (as bench/policy_shape.cc does; without it a default-deny corpus cuts the
// agent off from its server). Generated once per seed, outside the timing.
const std::string& push_policy_text(std::uint64_t seed) {
  static std::map<std::uint64_t, std::string> cache;
  auto it = cache.find(seed);
  if (it != cache.end()) return it->second;
  firewall::policygen::PolicyCorpusGenerator gen(core::derive_point_seed(seed, 1));
  firewall::policygen::CorpusSpec spec;
  spec.rules = kPushRules;
  std::string text = gen.generate(spec).rules.to_string();
  const std::string mgmt = "allow tcp from any to " + core::fleet_ip(0).to_string() +
                           " port " + std::to_string(firewall::PolicyServer::kDefaultPort) +
                           "\n";
  if (text.starts_with("default")) {
    const auto nl = text.find('\n');
    text.insert(nl == std::string::npos ? text.size() : nl + 1, mgmt);
  } else {
    text.insert(0, mgmt);
  }
  return cache.emplace(seed, std::move(text)).first->second;
}

bool same_rule(const firewall::Rule& a, const firewall::Rule& b) {
  return a.action == b.action && a.protocol == b.protocol && a.src_net == b.src_net &&
         a.src_prefix == b.src_prefix && a.dst_net == b.dst_net &&
         a.dst_prefix == b.dst_prefix && a.src_ports == b.src_ports &&
         a.dst_ports == b.dst_ports && a.bidirectional == b.bidirectional &&
         a.vpg_id == b.vpg_id;
}

// Replays of the control-plane work on the pushed text: DSL parse,
// classifier compile, message encode+verify, and HMAC-SHA256.
void replay_policy(const std::string& text, LayerCounts& L) {
  const double kib = static_cast<double>(text.size()) / 1024.0;
  std::optional<firewall::RuleSet> rules;
  auto [p_ns, p_reps] = repeat_timed([&] {
    auto r = firewall::parse_policy(text);
    const std::uint64_t n = r.ok() ? r.rule_set->size() : 0;
    if (r.ok() && !rules) rules = std::move(*r.rule_set);
    return n;
  }, 20000000);
  L.add("firewall.policy_parse_s.ns", p_ns);
  L.add("firewall.policy_parse_s.ops", p_reps);
  if (rules) {
    auto [c_ns, c_reps] = repeat_timed([&] {
      firewall::CompiledClassifier compiled;
      compiled.rebuild(*rules);
      return static_cast<std::uint64_t>(compiled.match(net::FiveTuple{}).nodes);
    }, 20000000);
    L.add("firewall.policy_compile_s.ns", c_ns);
    L.add("firewall.policy_compile_s.ops", c_reps);
  }
  firewall::PolicyMessage msg;
  msg.type = firewall::PolicyMsgType::kPolicyUpdate;
  msg.seq = 7;
  msg.body = "version 2\n" + text;
  auto [e_ns, e_reps] = repeat_timed([&] {
    const auto wire = firewall::encode_policy_message(msg, push_key());
    firewall::PolicyMessageReader reader;
    reader.append(wire);
    const auto back = reader.next(push_key());
    return static_cast<std::uint64_t>(back ? back->body.size() : 0);
  }, 5000000);
  L.add("firewall.policy_codec_ns_per_kib.ns", e_ns);
  L.add("firewall.policy_codec_ns_per_kib.ops", e_reps * kib);
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  auto [h_ns, h_reps] = repeat_timed([&] {
    return static_cast<std::uint64_t>(crypto::hmac_sha256(push_key(), bytes)[0]);
  }, 5000000);
  L.add("crypto.hmac_ns_per_kib.ns", h_ns);
  L.add("crypto.hmac_ns_per_kib.ops", h_reps * kib);
}

PassResult policy_push_pass(const PassContext& cx) {
  const std::string& text = push_policy_text(cx.seed);
  PassResult out;
  Splices splices;
  Captures capture;
  RunClock clock(cx.tracer);
  const double pool0 = pool_acquisitions();
  const int hosts = kPushAgents + 1;

  const std::int64_t t0 = now_ns();
  sim::Simulation sim(core::derive_point_seed(cx.seed, 0));
  core::LeafSpineSpec spec;
  spec.hosts = hosts;
  spec.hosts_per_leaf = 16;
  spec.spines = 2;
  spec.nic_for = [](int index) {
    core::NicSpec nic;
    nic.kind = index == 0 ? core::FirewallKind::kNone : core::FirewallKind::kEfw;
    return nic;
  };
  auto fabric = core::build_leaf_spine(sim, spec);
  firewall::PolicyServer server(fabric->host(0), push_key());
  server.start();
  std::vector<net::Ipv4Address> agent_ips;
  std::vector<std::unique_ptr<firewall::PolicyAgent>> agents;
  for (int i = 1; i < hosts; ++i) {
    agent_ips.push_back(fabric->host(i).ip());
    agents.push_back(std::make_unique<firewall::PolicyAgent>(
        fabric->host(i), *fabric->firewall(i), fabric->host(0).ip(), push_key()));
    agents.back()->start_after(sim::Duration::milliseconds(10) +
                               sim::Duration::microseconds(523) * (i - 1));
  }
  // Enrollment policy (version 1): a trivial permissive rule-set, so the
  // pushes below measure the update cost of the large one.
  server.set_policy_all(agent_ips, "default deny\nallow any from any to any\n");
  const std::int64_t t1 = now_ns();
  out.build_s = seconds_between(t0, t1);
  // Enrollment: every agent connected and on version 1.
  for (int i = 0; i < 3000 && server.count_acked_at_least(1) < agent_ips.size(); ++i) {
    clock.run_for(sim, sim::Duration::milliseconds(10));
  }
  const std::int64_t t2 = now_ns();
  out.settle_s = seconds_between(t1, t2);
  if (server.count_acked_at_least(1) < agent_ips.size()) {
    throw std::runtime_error("policy_push: fleet did not enroll");
  }
  if (cx.tracer != nullptr) {
    splices.splice(*fabric, *cx.tracer, hosts - 1, &capture.wire, &capture.host);
    cx.tracer->set_active(true);
  }

  // Push, then re-push the same text; t100 is the simulated time until every
  // agent acked the new version, sampled every simulated millisecond.
  std::uint32_t unit = 0;
  std::vector<double> t100;
  for (std::uint64_t version = 2; version <= 3; ++version) {
    const sim::TimePoint pushed = sim.now();
    server.set_policy_all(agent_ips, text);
    std::optional<double> done;
    sim::EventHandle poll = sim.schedule_every(sim::Duration::milliseconds(1), [&] {
      if (!done && server.count_acked_at_least(version) >= agent_ips.size()) {
        done = (sim.now() - pushed).to_seconds();
      }
    });
    for (int s = 0; s < 3000 && !done; ++s) {
      if (cx.tracer != nullptr) cx.tracer->set_unit(unit);
      ++unit;
      const std::int64_t u0 = now_ns();
      clock.run_for(sim, sim::Duration::milliseconds(100));
      out.unit_ms.push_back(seconds_between(u0, now_ns()) * 1e3);
    }
    poll.cancel();
    if (!done) throw std::runtime_error("policy_push: push did not converge");
    t100.push_back(*done);
  }
  out.wall_s = seconds_between(t0, now_ns());
  if (cx.tracer != nullptr) cx.tracer->set_active(false);

  const double push_bytes = static_cast<double>(server.stats().push_bytes);
  out.outputs.push_back({"push/1", {t100[0]}});
  out.outputs.push_back({"push/2", {t100[1], push_bytes}});
  out.layers.add("firewall.push_bytes", push_bytes);
  out.layers.add("firewall.push_t100_sim_s", t100[1]);

  // Every agent's installed rule-set is the pushed policy, rule for rule.
  auto parsed = firewall::parse_policy(text);
  if (!parsed.ok()) throw std::runtime_error("policy_push: corpus does not parse");
  const auto& want = parsed.rule_set->rules();
  double installed = 0;
  for (int i = 1; i < hosts; ++i) {
    const auto& got = fabric->firewall(i)->rule_set().rules();
    installed += static_cast<double>(got.size());
    if (got.size() != want.size() || !std::equal(got.begin(), got.end(), want.begin(), same_rule)) {
      out.failures.push_back("agent " + std::to_string(i) + ": installed rules differ from the push");
      break;
    }
  }
  out.outputs.push_back({"installed_rules", {installed}});
  finish_fabric_pass(sim, *fabric, clock, pool0, hosts - 1, capture, cx, out);
  if (cx.tracer != nullptr) replay_policy(text, out.layers);
  return out;
}

// A slice workload's checks cover the whole pass: if one fails, every unit
// of the pass counts as failed.
PassResult guarded(WorkloadFn fn, const PassContext& cx) {
  PassResult out;
  try {
    out = fn(cx);
  } catch (const std::exception& e) {
    if (cx.tracer != nullptr) {
      cx.tracer->set_active(false);
      cx.tracer->reset_stack();
    }
    out.failures.push_back(e.what());
  }
  out.units = std::max<std::size_t>(1, out.unit_ms.size());
  if (!out.failures.empty()) out.units_failed = out.units;
  return out;
}

PassResult fleet_flood_guarded(const PassContext& cx) { return guarded(fleet_flood_pass, cx); }
PassResult policy_push_guarded(const PassContext& cx) { return guarded(policy_push_pass, cx); }

// An attacker alone on a link that ends in a discarding sink: the host cost
// of crafting and sending flood frames, without a receiver.
class DiscardSink : public link::FrameSink {
 public:
  void deliver(net::Packet) override {}
};

double isolated_flood(const apps::FloodConfig& fc, std::uint64_t seed,
                      std::uint64_t* frames) {
  sim::Simulation sim(seed);
  link::Link wire(sim);
  DiscardSink discard;
  stack::Host attacker(sim, "attacker", net::Ipv4Address(10, 0, 0, 20),
                       std::make_unique<stack::StandardNic>(
                           sim, net::MacAddress({0x02, 0, 0, 0, 0, 0x20}), "attacker-nic"));
  attacker.nic().attach(wire.a());
  wire.b().connect_sink(&discard);
  apps::FloodGenerator generator(attacker, fc);
  const std::int64_t t0 = now_ns();
  generator.start();
  sim.run_until(sim::TimePoint::origin() + sim::Duration::milliseconds(400));
  generator.stop();
  const std::int64_t t1 = now_ns();
  *frames += generator.packets_sent();
  return static_cast<double>(t1 - t0);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"flood_collapse", flood_collapse_pass},
      {"clean_transfer", clean_transfer_pass},
      {"fleet_flood", fleet_flood_guarded},
      {"policy_push", policy_push_guarded},
  };
  return all;
}

double flood_ns_per_frame(const std::string& workload, std::uint64_t seed,
                          std::uint64_t* frames) {
  std::vector<apps::FloodConfig> configs;
  const net::Ipv4Address target(10, 0, 0, 40);
  if (workload == "flood_collapse") {
    for (const TestbedUnit& u : flood_collapse_units()) {
      configs.push_back(flood_config(u.flood, target));
    }
  } else if (workload == "fleet_flood") {
    apps::FloodConfig fc;
    fc.target = core::fleet_ip(kFleetAttackers + (kFleetHosts - kFleetAttackers) / 2);
    fc.target_port = core::kFloodPort;
    fc.rate_pps = kFleetFloodPps;
    fc.spoof_source = true;
    configs.assign(kFleetAttackers, fc);
  }
  double ns = 0;
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ns += isolated_flood(configs[i], core::derive_point_seed(seed, i), &sent);
  }
  *frames = sent;
  return sent == 0 ? 0.0 : ns / static_cast<double>(sent);
}

double timeline_overhead(const std::string& workload, std::uint64_t seed) {
  if (workload != "flood_collapse" && workload != "clean_transfer") return 0.0;
  const bool flood = workload == "flood_collapse";
  const core::TestbedConfig cfg = testbed_config(core::FirewallKind::kAdf, 1);
  core::FloodSpec spec;
  spec.rate_pps = flood ? 30000 : 0;  // the fig3a timeline column
  const core::MeasurementOptions opt = unit_options(core::derive_point_seed(seed, 0));
  std::vector<double> ratios;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    const double plain = flood ? core::measure_bandwidth_under_flood(cfg, spec, opt).mean()
                               : core::measure_available_bandwidth(cfg, opt).mean();
    const std::int64_t t1 = now_ns();
    const double timed = core::record_flood_timeline(cfg, spec, opt).mbps;
    const std::int64_t t2 = now_ns();
    if (plain != timed) return -1.0;  // same experiment, so same goodput
    ratios.push_back(static_cast<double>(t2 - t1) / static_cast<double>(t1 - t0));
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[1];
}

std::vector<std::string> check_against_measure(const std::string& workload,
                                               std::uint64_t seed) {
  std::vector<TestbedUnit> units;
  if (workload == "flood_collapse") units = flood_collapse_units();
  if (workload == "clean_transfer") units = clean_transfer_units();
  std::vector<std::string> mismatches;
  for (const TestbedUnit& u : units) {
    const core::MeasurementOptions opt =
        unit_options(core::derive_point_seed(seed, u.seed_index));
    std::vector<double> want;
    switch (u.kind) {
      case UnitKind::kFlood:
        want = core::measure_bandwidth_under_flood(u.config, u.flood, opt).mbps.samples();
        break;
      case UnitKind::kBandwidth:
        want = core::measure_available_bandwidth(u.config, opt).mbps.samples();
        break;
      case UnitKind::kHttp: {
        const core::HttpPoint p = core::measure_http_performance(u.config, opt);
        want = {static_cast<double>(p.fetches), static_cast<double>(p.errors),
                p.fetches_per_sec, p.mean_connect_ms, p.mean_response_ms};
        break;
      }
    }
    PassResult scratch;
    const std::vector<double> got = run_testbed_unit(u, seed, nullptr, scratch);
    if (got != want) mismatches.push_back(u.id);
  }
  return mismatches;
}

std::string input_digest(const std::string& workload, std::uint64_t seed) {
  std::string out;
  auto line = [&](const std::string& id, std::uint64_t sim_seed) {
    out += id + " seed=" + std::to_string(sim_seed) + "\n";
  };
  if (workload == "flood_collapse" || workload == "clean_transfer") {
    for (const TestbedUnit& u : workload == "flood_collapse" ? flood_collapse_units()
                                                              : clean_transfer_units()) {
      line(u.id, core::derive_point_seed(seed, u.seed_index));
    }
  } else if (workload == "fleet_flood") {
    line("fleet/1024", core::derive_point_seed(seed, 3));
  } else if (workload == "policy_push") {
    line("push", core::derive_point_seed(seed, 0));
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the corpus text
    for (unsigned char c : push_policy_text(seed)) h = (h ^ c) * 1099511628211ULL;
    out += "corpus fnv1a=" + std::to_string(h) + "\n";
  }
  return out;
}

}  // namespace perfbench
