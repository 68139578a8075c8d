#include "fuzz/sim_fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "apps/flood_generator.h"
#include "core/runner.h"
#include "core/testbed.h"
#include "core/topology.h"
#include "firewall/classifier/compiled_classifier.h"
#include "firewall/classifier/flow_cache.h"
#include "firewall/policy.h"
#include "firewall/policygen/policy_corpus.h"
#include "firewall/rule_set.h"
#include "link/fault_injector.h"
#include "link/link.h"
#include "link/tracer.h"
#include "net/packet_builder.h"
#include "net/vpg_header.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "stack/tcp.h"
#include "telemetry/json.h"
#include "testutil/fixtures.h"
#include "testutil/tcp_helpers.h"
#include "util/byte_io.h"

namespace barb::fuzz {
namespace {

// Independent streams per concern so adding draws to one generator never
// shifts another (the scenario stays stable under fuzzer extensions).
constexpr std::uint64_t kScenarioSalt = 0x5ce7a8105ce7a810ULL;
constexpr std::uint64_t kDifferentialSalt = 0xd1ffd1ffd1ffd1ffULL;
constexpr std::uint64_t kSchedulerSalt = 0x5c4edc0de5c4edc0ULL;
constexpr std::uint64_t kStarFaultSalt = 0xfa7e57a2fa7e57a2ULL;
constexpr std::uint64_t kFabricSalt = 0xfab21c05fab21c05ULL;
constexpr std::uint64_t kPolicySalt = 0x9011c7c09011c7c0ULL;

struct Failures {
  std::vector<std::string>* out;
  void operator()(std::string msg) { out->push_back(std::move(msg)); }
};

// ---------------------------------------------------------------------------
// Differential rule-set oracle
// ---------------------------------------------------------------------------

// Reference matcher, written independently of firewall/rule_set.cc from the
// documented semantics: ordered first match; prefix/port/protocol selectors;
// bidirectional rules also try the reversed tuple; VPG-encapsulated frames
// match VPG rules by id only; cleartext frames match VPG rules by selectors;
// default action on fall-through.
std::uint32_t prefix_mask(int prefix) {
  if (prefix <= 0) return 0;
  if (prefix >= 32) return 0xffffffffu;
  return ~0u << (32 - prefix);
}

bool ref_selectors_hit(const firewall::Rule& r, const net::FiveTuple& t) {
  auto directed = [&](net::Ipv4Address src, net::Ipv4Address dst,
                      std::uint16_t sp, std::uint16_t dp) {
    if (r.protocol != 0 && r.protocol != t.protocol) return false;
    const std::uint32_t smask = prefix_mask(r.src_prefix);
    if ((src.value() & smask) != (r.src_net.value() & smask)) return false;
    const std::uint32_t dmask = prefix_mask(r.dst_prefix);
    if ((dst.value() & dmask) != (r.dst_net.value() & dmask)) return false;
    const bool sp_ok = (r.src_ports.lo == 0 && r.src_ports.hi == 0) ||
                       (sp >= r.src_ports.lo && sp <= r.src_ports.hi);
    const bool dp_ok = (r.dst_ports.lo == 0 && r.dst_ports.hi == 0) ||
                       (dp >= r.dst_ports.lo && dp <= r.dst_ports.hi);
    return sp_ok && dp_ok;
  };
  if (directed(t.src, t.dst, t.src_port, t.dst_port)) return true;
  if (r.bidirectional && directed(t.dst, t.src, t.dst_port, t.src_port)) return true;
  return false;
}

firewall::RuleAction ref_match_tuple(const firewall::RuleSet& rs,
                                     const net::FiveTuple& t, int* index) {
  for (std::size_t i = 0; i < rs.rules().size(); ++i) {
    if (ref_selectors_hit(rs.rules()[i], t)) {
      *index = static_cast<int>(i);
      return rs.rules()[i].action;
    }
  }
  *index = -1;
  return rs.default_action();
}

firewall::RuleAction ref_match_frame(const firewall::RuleSet& rs,
                                     const net::FrameView& v, int* index) {
  if (v.vpg) {
    for (std::size_t i = 0; i < rs.rules().size(); ++i) {
      const auto& r = rs.rules()[i];
      if (r.action == firewall::RuleAction::kVpg && r.vpg_id == v.vpg->vpg_id) {
        *index = static_cast<int>(i);
        return r.action;
      }
    }
    *index = -1;
    return rs.default_action();
  }
  const auto tuple = v.five_tuple();
  if (!tuple) {
    *index = -1;
    return rs.default_action();
  }
  return ref_match_tuple(rs, *tuple, index);
}

net::Ipv4Address random_address(sim::Random& rng) {
  // A small universe so prefixes actually overlap with traffic.
  return net::Ipv4Address(10, 0, static_cast<std::uint8_t>(rng.uniform(4)),
                          static_cast<std::uint8_t>(rng.uniform(32)));
}

firewall::Rule random_rule(sim::Random& rng) {
  firewall::Rule r;
  const auto kind = rng.uniform(8);
  r.action = kind == 0   ? firewall::RuleAction::kVpg
             : kind < 4  ? firewall::RuleAction::kDeny
                         : firewall::RuleAction::kAllow;
  if (r.action == firewall::RuleAction::kVpg) {
    r.vpg_id = static_cast<std::uint32_t>(1 + rng.uniform(4));
  }
  const std::uint8_t protos[] = {0, 1, 6, 17};
  r.protocol = protos[rng.uniform(4)];
  if (rng.bernoulli(0.7)) {
    r.src_net = random_address(rng);
    r.src_prefix = static_cast<int>(8 + rng.uniform(25));  // 8..32
  }
  if (rng.bernoulli(0.7)) {
    r.dst_net = random_address(rng);
    r.dst_prefix = static_cast<int>(8 + rng.uniform(25));
  }
  if (rng.bernoulli(0.4)) {
    const auto lo = static_cast<std::uint16_t>(1 + rng.uniform(9999));
    r.src_ports = {lo, static_cast<std::uint16_t>(lo + rng.uniform(100))};
  }
  if (rng.bernoulli(0.4)) {
    const auto lo = static_cast<std::uint16_t>(1 + rng.uniform(9999));
    r.dst_ports = {lo, static_cast<std::uint16_t>(lo + rng.uniform(100))};
  }
  r.bidirectional = rng.bernoulli(0.6);
  return r;
}

net::FiveTuple random_tuple(sim::Random& rng) {
  net::FiveTuple t;
  t.src = random_address(rng);
  t.dst = random_address(rng);
  const std::uint8_t protos[] = {1, 6, 17};
  t.protocol = protos[rng.uniform(3)];
  if (t.protocol != 1) {
    t.src_port = static_cast<std::uint16_t>(1 + rng.uniform(10200));
    t.dst_port = static_cast<std::uint16_t>(1 + rng.uniform(10200));
  }
  return t;
}

// Builds a random frame (TCP/UDP/ICMP/VPG) and returns its raw bytes.
std::vector<std::uint8_t> random_frame(sim::Random& rng) {
  net::IpEndpoints ep;
  ep.src_ip = random_address(rng);
  ep.dst_ip = random_address(rng);
  ep.src_mac = net::MacAddress::from_host_id(1);
  ep.dst_mac = net::MacAddress::from_host_id(2);
  const std::vector<std::uint8_t> payload(rng.uniform(64), 0x77);
  switch (rng.uniform(4)) {
    case 0: {
      net::TcpHeader h;
      h.src_port = static_cast<std::uint16_t>(1 + rng.uniform(10200));
      h.dst_port = static_cast<std::uint16_t>(1 + rng.uniform(10200));
      h.flags = net::TcpFlags::kAck;
      return net::build_tcp_frame(ep, h, payload);
    }
    case 1:
      return net::build_udp_frame(
          ep, static_cast<std::uint16_t>(1 + rng.uniform(10200)),
          static_cast<std::uint16_t>(1 + rng.uniform(10200)), payload);
    case 2:
      return net::build_icmp_frame(ep, 8, 0, 1, payload);
    default: {
      // VPG-encapsulated frame: cleartext header + dummy sealed payload.
      net::VpgHeader vh;
      vh.vpg_id = static_cast<std::uint32_t>(1 + rng.uniform(4));
      vh.seq = rng.next_u64();
      vh.orig_protocol = 17;
      vh.payload_len =
          static_cast<std::uint16_t>(net::VpgHeader::kTagSize + rng.uniform(48));
      std::vector<std::uint8_t> ip_payload;
      ByteWriter w(ip_payload);
      vh.serialize(w);
      for (std::size_t i = 0; i < vh.payload_len; ++i) {
        w.u8(static_cast<std::uint8_t>(rng.uniform(256)));
      }
      return net::build_ipv4_frame(ep, net::IpProtocol::kVpg, ip_payload);
    }
  }
}

// True when the compiled backend reproduced the linear matcher's result
// bit-for-bit (verdict, matched rule, and both traversal counters — the
// counters feed the cost model, so they are part of the contract too).
bool same_match(const firewall::MatchResult& a, const firewall::MatchResult& b) {
  return a.action == b.action && a.matched_index == b.matched_index &&
         a.rules_traversed == b.rules_traversed &&
         a.vpg_rules_traversed == b.vpg_rules_traversed && a.vpg_id == b.vpg_id;
}

std::string describe_match(const firewall::MatchResult& m) {
  return std::string(firewall::to_string(m.action)) + " index=" +
         std::to_string(m.matched_index) + " traversed=" +
         std::to_string(m.rules_traversed) + " vpg_traversed=" +
         std::to_string(m.vpg_rules_traversed) + " vpg_id=" +
         std::to_string(m.vpg_id);
}

std::uint64_t run_differential_oracle(std::uint64_t seed, Failures fail) {
  sim::Random rng(core::derive_point_seed(seed ^ kDifferentialSalt, 0));
  std::uint64_t checks = 0;
  // The flow cache outlives the per-round rule-sets (as it does on a real
  // device across policy pushes); each rebuild bumps its generation, so any
  // hit that surfaces a previous round's verdict is a caught bug.
  firewall::FlowCache cache(firewall::FlowCacheConfig{512, 8});
  firewall::CompiledClassifier compiled;
  // A few rule-sets per seed; >= 10k packets in total. Every packet is
  // checked three ways: naive reference vs RuleSet::match (linear) vs the
  // compiled classifier, plus the flow-cache-assisted compiled path.
  for (int round = 0; round < 4; ++round) {
    firewall::RuleSet rs;
    const int n_rules = static_cast<int>(1 + rng.uniform(24));
    for (int i = 0; i < n_rules; ++i) rs.add(random_rule(rng));
    rs.set_default_action(rng.bernoulli(0.5) ? firewall::RuleAction::kAllow
                                             : firewall::RuleAction::kDeny);
    compiled.rebuild(rs);
    cache.bump_generation();

    for (int i = 0; i < 1500; ++i) {
      const auto t = random_tuple(rng);
      int ref_index = -1;
      const auto ref = ref_match_tuple(rs, t, &ref_index);
      const auto got = rs.match(t);
      ++checks;
      if (got.action != ref || got.matched_index != ref_index) {
        fail("differential(tuple): RuleSet::match says action=" +
             std::string(firewall::to_string(got.action)) + " index=" +
             std::to_string(got.matched_index) + ", reference says action=" +
             std::string(firewall::to_string(ref)) + " index=" +
             std::to_string(ref_index) + " for " + t.to_string() + "\nrule-set:\n" +
             rs.to_string());
        return checks;
      }
      const auto cm = compiled.match(t);
      if (!same_match(cm.result, got)) {
        fail("differential(tuple): compiled says " + describe_match(cm.result) +
             ", linear says " + describe_match(got) + " for " + t.to_string() +
             "\nrule-set:\n" + rs.to_string());
        return checks;
      }
      firewall::MatchResult cached;
      if (cache.lookup(t, &cached)) {
        if (!same_match(cached, got)) {
          fail("differential(tuple): flow cache says " + describe_match(cached) +
               ", linear says " + describe_match(got) + " for " + t.to_string() +
               "\nrule-set:\n" + rs.to_string());
          return checks;
        }
      } else {
        cache.insert(t, cm.result);
      }
    }

    for (int i = 0; i < 1500; ++i) {
      const auto bytes = random_frame(rng);
      const auto view = net::FrameView::parse(bytes);
      if (!view || !view->ip) continue;
      int ref_index = -1;
      const auto ref = ref_match_frame(rs, *view, &ref_index);
      const auto got = rs.match(*view);
      ++checks;
      if (got.action != ref || got.matched_index != ref_index) {
        fail("differential(frame): RuleSet::match says action=" +
             std::string(firewall::to_string(got.action)) + " index=" +
             std::to_string(got.matched_index) + ", reference says action=" +
             std::string(firewall::to_string(ref)) + " index=" +
             std::to_string(ref_index) +
             (view->vpg ? " (vpg frame id=" + std::to_string(view->vpg->vpg_id) + ")"
                        : "") +
             "\nrule-set:\n" + rs.to_string());
        return checks;
      }
      const auto cm = compiled.match(*view);
      if (!same_match(cm.result, got)) {
        fail("differential(frame): compiled says " + describe_match(cm.result) +
             ", linear says " + describe_match(got) +
             (view->vpg ? " (vpg frame id=" + std::to_string(view->vpg->vpg_id) + ")"
                        : "") +
             "\nrule-set:\n" + rs.to_string());
        return checks;
      }
    }
  }
  return checks;
}

// ---------------------------------------------------------------------------
// Policy-corpus family: realistic rule-set shape as a fuzzed dimension
// ---------------------------------------------------------------------------

// One seed generates 1-2 corpora from the shape lattice (Wool-realistic,
// max-depth, heavy-VPG, plus the dirty wildcard-pile and adversarial-overlap
// stress shapes) and checks three oracle layers on each:
//
//  * ground truth — the analyzer must detect every generator-injected error
//    instance at its recorded indices, and a corpus generated clean must
//    produce zero error-class findings (any is a false positive);
//  * DSL round trip — the corpus must survive to_string -> parse_policy ->
//    to_string byte-identically (policies travel to agents as DSL text);
//  * three-way differential — naive reference vs RuleSet::match vs the
//    compiled classifier on tuples drawn from the rules' own address
//    universe (plus perturbed near-misses), with a flow cache shared across
//    the corpora so generation invalidation is exercised under realistic
//    shape too.
//
// Drawn from its own salted stream: legacy scenarios stay stable per seed.

struct PolicyCase {
  firewall::policygen::CorpusSpec spec;
  bool clean = false;  // generated with zero injections (FP oracle applies)
};

PolicyCase generate_policy_case(sim::Random& rng) {
  using firewall::policygen::CorpusShape;
  PolicyCase c;
  const auto shape = rng.uniform(100);
  if (shape < 55) {
    c.spec.shape = CorpusShape::kRealistic;
    c.spec.rules = static_cast<int>(20 + rng.uniform(280));
  } else if (shape < 70) {
    c.spec.shape = CorpusShape::kHeavyVpg;
    c.spec.rules = static_cast<int>(40 + rng.uniform(160));
  } else if (shape < 80) {
    c.spec.shape = CorpusShape::kMaxDepth;
    // Deep but fuzz-sized; the full 2.5k tail belongs to the bench.
    c.spec.rules = static_cast<int>(700 + rng.uniform(500));
  } else if (shape < 90) {
    c.spec.shape = CorpusShape::kAllAnyAny;
  } else {
    c.spec.shape = CorpusShape::kAdversarialOverlap;
  }
  const bool clean_capable = shape < 80;  // dirty shapes ignore injection
  c.clean = clean_capable && rng.bernoulli(0.25);
  if (clean_capable && !c.clean) {
    c.spec.shadowed = static_cast<int>(rng.uniform(3));
    c.spec.redundant = static_cast<int>(rng.uniform(3));
    c.spec.stale = static_cast<int>(rng.uniform(2));
    c.spec.any_any = static_cast<int>(rng.uniform(2));
    c.spec.conflicts = static_cast<int>(rng.uniform(2));
  }
  return c;
}

std::uint64_t run_policy_oracle(std::uint64_t seed, Failures fail,
                                std::string* summary) {
  namespace pg = firewall::policygen;
  sim::Random rng(core::derive_point_seed(seed ^ kPolicySalt, 0));
  pg::PolicyCorpusGenerator gen(core::derive_point_seed(seed ^ kPolicySalt, 1));
  std::uint64_t checks = 0;

  // The cache outlives both corpora, as on a device across policy pushes.
  firewall::FlowCache cache(firewall::FlowCacheConfig{512, 8});
  firewall::CompiledClassifier compiled;

  const int rounds = rng.bernoulli(0.5) ? 2 : 1;
  for (int round = 0; round < rounds; ++round) {
    const PolicyCase pc = generate_policy_case(rng);
    const pg::GeneratedCorpus corpus = gen.generate(pc.spec);
    const std::string what = corpus.summary();
    if (round == 0) *summary += " | policy " + what;

    // Ground truth: every injected instance detected, no FP on clean shapes.
    const pg::AnalysisReport report = pg::RuleSetAnalyzer::analyze(corpus.rules);
    const pg::DetectionOutcome outcome = pg::check_detection(corpus, report);
    checks += corpus.injected.size() + 1;
    if (!outcome.all_detected()) {
      std::string msg = "policy-analyzer: missed " +
                        std::to_string(outcome.injected - outcome.detected) +
                        " of " + std::to_string(outcome.injected) +
                        " injected errors on " + what + ":";
      for (const auto& e : outcome.missed) {
        msg += " " + std::string(pg::to_string(e.kind)) + "@" +
               std::to_string(e.rule_index);
      }
      fail(std::move(msg));
    }
    if (pc.clean && corpus.injected.empty() && report.error_count() != 0) {
      fail("policy-analyzer: " + std::to_string(report.error_count()) +
           " false-positive error findings on clean " + what + "\n" +
           report.to_string());
    }

    // DSL round trip.
    const std::string text = corpus.rules.to_string();
    const auto parsed = firewall::parse_policy(text);
    ++checks;
    if (!parsed.ok()) {
      fail("policy-dsl: generated corpus failed to parse (" +
           (parsed.error ? parsed.error->message : std::string("?")) + ") on " +
           what);
    } else if (parsed.rule_set->to_string() != text) {
      fail("policy-dsl: corpus changed across to_string -> parse -> to_string "
           "on " + what);
    }

    // Three-way differential over universe traffic + perturbed near-misses.
    compiled.rebuild(corpus.rules);
    cache.bump_generation();
    for (int i = 0; i < 2000; ++i) {
      net::FiveTuple t = gen.random_universe_tuple();
      if (rng.bernoulli(0.25)) {
        switch (rng.uniform(3)) {
          case 0:
            t.dst_port = static_cast<std::uint16_t>(1 + rng.uniform(65535));
            break;
          case 1: {
            const std::uint8_t protos[] = {1, 6, 17};
            t.protocol = protos[rng.uniform(3)];
            if (t.protocol == 1) t.src_port = t.dst_port = 0;
            break;
          }
          default:
            std::swap(t.src, t.dst);
            std::swap(t.src_port, t.dst_port);
            break;
        }
      }
      int ref_index = -1;
      const auto ref = ref_match_tuple(corpus.rules, t, &ref_index);
      const auto got = corpus.rules.match(t);
      ++checks;
      if (got.action != ref || got.matched_index != ref_index) {
        fail("policy-differential: RuleSet::match says action=" +
             std::string(firewall::to_string(got.action)) + " index=" +
             std::to_string(got.matched_index) + ", reference says action=" +
             std::string(firewall::to_string(ref)) + " index=" +
             std::to_string(ref_index) + " for " + t.to_string() + " on " +
             what);
        return checks;
      }
      const auto cm = compiled.match(t);
      if (!same_match(cm.result, got)) {
        fail("policy-differential: compiled says " + describe_match(cm.result) +
             ", linear says " + describe_match(got) + " for " + t.to_string() +
             " on " + what);
        return checks;
      }
      firewall::MatchResult cached;
      if (cache.lookup(t, &cached)) {
        if (!same_match(cached, got)) {
          fail("policy-differential: flow cache says " + describe_match(cached) +
               ", linear says " + describe_match(got) + " for " + t.to_string() +
               " on " + what);
          return checks;
        }
      } else {
        cache.insert(t, cm.result);
      }
    }
  }

  const auto& st = cache.stats();
  if (st.lookups != st.hits + st.misses) {
    fail("policy-flow-cache: lookups=" + std::to_string(st.lookups) +
         " != hits=" + std::to_string(st.hits) + " + misses=" +
         std::to_string(st.misses));
  }
  return checks;
}

// ---------------------------------------------------------------------------
// Scheduler monotonicity oracle
// ---------------------------------------------------------------------------

void run_scheduler_oracle(std::uint64_t seed, Failures fail) {
  sim::Random rng(core::derive_point_seed(seed ^ kSchedulerSalt, 0));
  sim::Simulation sim(seed);
  std::vector<std::int64_t> executed;
  executed.reserve(1200);
  // A mix of near and far timestamps, plus events that schedule more events
  // (exercising insertion while draining).
  for (int i = 0; i < 1000; ++i) {
    const auto at = sim::Duration::nanoseconds(
        static_cast<std::int64_t>(rng.uniform(2'000'000'000)));
    sim.schedule(at, [&sim, &executed] { executed.push_back(sim.now().ns()); });
  }
  for (int i = 0; i < 100; ++i) {
    const auto at = sim::Duration::nanoseconds(
        static_cast<std::int64_t>(rng.uniform(1'000'000'000)));
    const auto follow = sim::Duration::nanoseconds(
        static_cast<std::int64_t>(rng.uniform(1'000'000'000)));
    sim.schedule(at, [&sim, &executed, follow] {
      sim.schedule(follow, [&sim, &executed] { executed.push_back(sim.now().ns()); });
    });
  }
  sim.run();
  if (executed.size() != 1100) {
    fail("scheduler: expected 1100 events, ran " + std::to_string(executed.size()));
  }
  for (std::size_t i = 1; i < executed.size(); ++i) {
    if (executed[i] < executed[i - 1]) {
      fail("scheduler: time ran backwards, event at " + std::to_string(executed[i]) +
           "ns executed after " + std::to_string(executed[i - 1]) + "ns");
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Simulated-scenario generation
// ---------------------------------------------------------------------------

struct TransferPlan {
  int from = 0;
  int to = 1;
  std::uint16_t port = 5001;
  std::size_t bytes = 0;
};

struct Scenario {
  std::uint64_t seed = 0;
  bool star = false;

  // Shared.
  bool faults = false;
  link::FaultProfile profile;
  std::vector<TransferPlan> transfers;

  // Testbed family.
  core::TestbedConfig testbed;
  bool flood = false;
  apps::FloodConfig flood_cfg;
  double flood_start_s = 0.1;
  double flood_stop_s = 0.6;
  int pings = 0;

  // Star family.
  int star_hosts = 2;
};

link::FaultProfile random_fault_profile(sim::Random& rng) {
  link::FaultProfile p;
  switch (rng.uniform(4)) {
    case 0:  // plain random loss
      p.loss = rng.uniform_real(0.005, 0.2);
      break;
    case 1:  // burst loss (Gilbert–Elliott)
      p.ge_p_good_to_bad = rng.uniform_real(0.005, 0.05);
      p.ge_p_bad_to_good = rng.uniform_real(0.1, 0.5);
      p.ge_loss_bad = rng.uniform_real(0.5, 0.95);
      p.ge_loss_good = rng.bernoulli(0.3) ? rng.uniform_real(0.0, 0.01) : 0.0;
      break;
    case 2:  // reorder + jitter
      p.reorder = rng.uniform_real(0.02, 0.2);
      p.reorder_window = static_cast<int>(1 + rng.uniform(6));
      p.reorder_hold = sim::Duration::microseconds(
          static_cast<std::int64_t>(200 + rng.uniform(1800)));
      p.jitter_max = sim::Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform(1000)));
      break;
    default:  // everything at once
      p.loss = rng.uniform_real(0.0, 0.1);
      p.duplication = rng.uniform_real(0.0, 0.05);
      p.corruption = rng.uniform_real(0.0, 0.05);
      p.reorder = rng.uniform_real(0.0, 0.1);
      p.reorder_window = static_cast<int>(1 + rng.uniform(4));
      p.jitter_max = sim::Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform(500)));
      break;
  }
  return p;
}

Scenario generate_scenario(std::uint64_t seed) {
  sim::Random rng(core::derive_point_seed(seed ^ kScenarioSalt, 0));
  Scenario s;
  s.seed = seed;
  s.star = rng.bernoulli(0.35);

  s.faults = rng.bernoulli(0.7);
  if (s.faults) s.profile = random_fault_profile(rng);
  if (s.faults && !s.profile.enabled()) s.faults = false;

  if (s.star) {
    s.star_hosts = static_cast<int>(2 + rng.uniform(5));
    const int n_transfers = static_cast<int>(1 + rng.uniform(3));
    for (int i = 0; i < n_transfers; ++i) {
      TransferPlan t;
      t.from = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(s.star_hosts)));
      do {
        t.to = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(s.star_hosts)));
      } while (t.to == t.from);
      t.port = static_cast<std::uint16_t>(6000 + i);
      t.bytes = 10'000 + rng.uniform(120'000);
      s.transfers.push_back(t);
    }
    return s;
  }

  // Testbed family: random firewall configuration on the paper topology.
  const core::FirewallKind kinds[] = {
      core::FirewallKind::kNone, core::FirewallKind::kIptables,
      core::FirewallKind::kEfw, core::FirewallKind::kAdf,
      core::FirewallKind::kAdfVpg};
  s.testbed.firewall = kinds[rng.uniform(5)];
  s.testbed.action_rule_depth = static_cast<int>(1 + rng.uniform(20));
  s.testbed.flood_action = rng.bernoulli(0.5) ? firewall::RuleAction::kAllow
                                              : firewall::RuleAction::kDeny;
  s.testbed.deny_attacker_first = rng.bernoulli(0.25);
  if (s.testbed.firewall == core::FirewallKind::kEfw ||
      s.testbed.firewall == core::FirewallKind::kAdf) {
    if (rng.bernoulli(0.25)) {
      firewall::FloodGuardConfig fg;
      fg.enabled = true;
      s.testbed.flood_guard = fg;
    }
  }
  s.testbed.seed = seed;
  s.testbed.fault_profile = s.faults ? std::optional(s.profile) : std::nullopt;

  if (rng.bernoulli(0.85)) {
    TransferPlan t;
    t.port = 5001;
    t.bytes = 20'000 + rng.uniform(130'000);
    s.transfers.push_back(t);
  }
  s.flood = rng.bernoulli(0.6);
  if (s.flood) {
    const apps::FloodType types[] = {apps::FloodType::kUdp, apps::FloodType::kTcpSyn,
                                     apps::FloodType::kTcpData};
    s.flood_cfg.type = types[rng.uniform(3)];
    s.flood_cfg.target_port = core::kFloodPort;
    s.flood_cfg.rate_pps = 500.0 + static_cast<double>(rng.uniform(3500));
    s.flood_cfg.frame_size = 60 + rng.uniform(340);
    s.flood_cfg.spoof_source = rng.bernoulli(0.3);
    s.flood_start_s = rng.uniform_real(0.02, 0.2);
    s.flood_stop_s = s.flood_start_s + rng.uniform_real(0.2, 1.0);
  }
  s.pings = static_cast<int>(rng.uniform(3));
  return s;
}

std::string scenario_to_json(const Scenario& s) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("seed").value(static_cast<std::uint64_t>(s.seed));
  w.key("family").value(s.star ? "star" : "testbed");
  w.key("faults");
  if (s.faults) {
    w.begin_object();
    w.key("loss").value(s.profile.loss);
    w.key("duplication").value(s.profile.duplication);
    w.key("corruption").value(s.profile.corruption);
    w.key("reorder").value(s.profile.reorder);
    w.key("reorder_window").value(s.profile.reorder_window);
    w.key("jitter_max_ns").value(static_cast<std::int64_t>(s.profile.jitter_max.ns()));
    w.key("ge_p_good_to_bad").value(s.profile.ge_p_good_to_bad);
    w.key("ge_p_bad_to_good").value(s.profile.ge_p_bad_to_good);
    w.key("ge_loss_good").value(s.profile.ge_loss_good);
    w.key("ge_loss_bad").value(s.profile.ge_loss_bad);
    w.end_object();
  } else {
    w.raw("null");
  }
  if (s.star) {
    w.key("hosts").value(s.star_hosts);
  } else {
    w.key("firewall").value(core::to_string(s.testbed.firewall));
    w.key("depth").value(s.testbed.action_rule_depth);
    w.key("flood_action")
        .value(s.testbed.flood_action == firewall::RuleAction::kAllow ? "allow"
                                                                      : "deny");
    w.key("deny_attacker_first").value(s.testbed.deny_attacker_first);
    w.key("flood_guard").value(s.testbed.flood_guard.has_value());
    w.key("flood");
    if (s.flood) {
      w.begin_object();
      w.key("type").value(s.flood_cfg.type == apps::FloodType::kUdp ? "udp"
                          : s.flood_cfg.type == apps::FloodType::kTcpSyn
                              ? "tcp_syn"
                              : "tcp_data");
      w.key("rate_pps").value(s.flood_cfg.rate_pps);
      w.key("frame_size").value(static_cast<std::uint64_t>(s.flood_cfg.frame_size));
      w.key("spoof").value(s.flood_cfg.spoof_source);
      w.key("start_s").value(s.flood_start_s);
      w.key("stop_s").value(s.flood_stop_s);
      w.end_object();
    } else {
      w.raw("null");
    }
    w.key("pings").value(s.pings);
  }
  w.key("transfers").begin_array();
  for (const auto& t : s.transfers) {
    w.begin_object();
    w.key("from").value(t.from);
    w.key("to").value(t.to);
    w.key("port").value(static_cast<std::uint64_t>(t.port));
    w.key("bytes").value(static_cast<std::uint64_t>(t.bytes));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string scenario_summary(const Scenario& s) {
  std::string out = s.star ? "star hosts=" + std::to_string(s.star_hosts)
                           : std::string("testbed fw=") +
                                 core::to_string(s.testbed.firewall) +
                                 " depth=" + std::to_string(s.testbed.action_rule_depth);
  out += " transfers=" + std::to_string(s.transfers.size());
  if (!s.star && s.flood) out += " flood";
  if (s.faults) out += " faults";
  return out;
}

// ---------------------------------------------------------------------------
// Frame taps (ring buffers for the failure dump)
// ---------------------------------------------------------------------------

class RingTap : public link::FrameSink {
 public:
  RingTap(sim::Simulation& sim, std::string name, link::FrameSink* downstream,
          std::size_t cap)
      : sim_(sim), name_(std::move(name)), downstream_(downstream), cap_(cap) {}

  void deliver(net::Packet pkt) override {
    // Stamp with *delivery* time (not pkt.created): the tail then shows when
    // frames actually arrived, and the timestamps double as a scheduler-
    // monotonicity witness — delivery events at one port must execute in
    // nondecreasing event time even when faults reorder the frames.
    const sim::TimePoint at = sim_.now();
    if (frames_.size() == cap_) frames_.pop_front();
    frames_.push_back(link::CapturedFrame{at, pkt.copy_bytes()});
    if (!monotonic_violation_ && frames_.size() >= 2 &&
        frames_.back().at < frames_[frames_.size() - 2].at) {
      monotonic_violation_ = true;
    }
    if (downstream_ != nullptr) downstream_->deliver(std::move(pkt));
  }

  const std::string& name() const { return name_; }
  bool monotonic_violation() const { return monotonic_violation_; }
  std::string tail_text() const {
    std::string out;
    for (const auto& f : frames_) {
      out += link::format_trace_line(f, name_);
      out += '\n';
    }
    return out;
  }

 private:
  sim::Simulation& sim_;
  std::string name_;
  link::FrameSink* downstream_;
  std::size_t cap_;
  std::deque<link::CapturedFrame> frames_;
  bool monotonic_violation_ = false;
};

// Splices a ring tap in front of a port's existing sink.
std::unique_ptr<RingTap> splice_tap(sim::Simulation& sim, link::LinkPort& port,
                                    std::string name, std::size_t cap) {
  auto tap = std::make_unique<RingTap>(sim, std::move(name), port.sink(), cap);
  port.connect_sink(tap.get());
  return tap;
}

// ---------------------------------------------------------------------------
// Shared oracles over a finished run
// ---------------------------------------------------------------------------

// One transfer's observable endpoints.
struct TransferProbe {
  TransferPlan plan;
  std::shared_ptr<stack::TcpConnection> conn;
  testutil::VerifyingReceiver receiver;
  std::unique_ptr<testutil::BulkSender> sender;
};

// Conservation for one direction tx -> rx. The transmit-side injector (if
// any) accounts for frames it swallowed or duplicated on this hop.
void check_direction(const link::LinkPort& tx, const link::LinkPort& rx,
                     const std::string& what, Failures fail) {
  std::uint64_t expected = tx.stats().tx_frames;
  if (const link::FaultInjector* inj = tx.fault_injector()) {
    expected -= inj->stats().lost();
    expected += inj->stats().duplicated;
  }
  if (rx.stats().rx_frames != expected) {
    fail("conservation(" + what + "): transmitted " +
         std::to_string(tx.stats().tx_frames) + " frames, expected " +
         std::to_string(expected) + " deliveries after faults, received " +
         std::to_string(rx.stats().rx_frames));
  }
}

void check_link(link::LinkPort& host_side, const std::string& name, Failures fail) {
  link::LinkPort* peer = host_side.peer();
  if (peer == nullptr) return;
  check_direction(host_side, *peer, name + ":host->switch", fail);
  check_direction(*peer, host_side, name + ":switch->host", fail);
}

void check_nic(stack::Host& host, const std::string& name, Failures fail) {
  const auto& n = host.nic().stats();
  if (n.rx_frames != n.rx_delivered + n.rx_dropped) {
    fail("nic-accounting(" + name + "): rx_frames=" + std::to_string(n.rx_frames) +
         " != rx_delivered=" + std::to_string(n.rx_delivered) + " + rx_dropped=" +
         std::to_string(n.rx_dropped));
  }
  if (n.rx_checksum_drops > n.rx_delivered) {
    fail("nic-accounting(" + name + "): rx_checksum_drops=" +
         std::to_string(n.rx_checksum_drops) + " exceeds rx_delivered=" +
         std::to_string(n.rx_delivered));
  }
}

void check_transfer(const TransferProbe& probe, bool faults, bool contention,
                    Failures fail) {
  const auto& recv = probe.receiver;
  if (recv.mismatches() != 0) {
    fail("tcp-safety: " + std::to_string(recv.mismatches()) +
         " corrupted/misordered bytes reached the application (transfer to port " +
         std::to_string(probe.plan.port) + ")");
  }
  const bool complete = recv.received() == probe.plan.bytes && recv.eof();
  const auto state = probe.conn->state();
  if (complete) return;
  // Incomplete: only acceptable as a clean give-up under injected faults
  // (rto_retries exhausted tears the connection down to CLOSED).
  if (!faults) {
    fail("tcp-safety: fault-free transfer to port " + std::to_string(probe.plan.port) +
         " did not complete (" + std::to_string(recv.received()) + "/" +
         std::to_string(probe.plan.bytes) + " bytes, state=" +
         stack::to_string(state) + ")");
    return;
  }
  if (state != stack::TcpState::kClosed) {
    fail("tcp-safety: transfer to port " + std::to_string(probe.plan.port) +
         " neither completed nor tore down after give-up (state=" +
         stack::to_string(state) + ", " + std::to_string(recv.received()) + "/" +
         std::to_string(probe.plan.bytes) + " bytes)");
  }
  const auto& st = probe.conn->stats();
  if (st.timeouts == 0 && st.retransmissions == 0) {
    fail("tcp-safety: transfer to port " + std::to_string(probe.plan.port) +
         " gave up without a single timeout or retransmission");
  }
  (void)contention;
}

void check_retransmit_consistency(const TransferProbe& probe, bool faults,
                                  bool contention, Failures fail) {
  if (faults || contention) return;
  const auto& st = probe.conn->stats();
  if (st.retransmissions != 0 || st.timeouts != 0) {
    fail("tcp-safety: clean run retransmitted (" +
         std::to_string(st.retransmissions) + " rtx, " + std::to_string(st.timeouts) +
         " timeouts) with no injected loss and no competing traffic");
  }
}

// ---------------------------------------------------------------------------
// Scenario execution
// ---------------------------------------------------------------------------

// Generous: a transfer giving up under sustained loss can back off through
// rto_retries doublings (capped at max_rto) before tearing down. Simulated
// idle time is nearly free — only timer events fire.
constexpr double kQuiescenceCapSeconds = 3600.0;

void run_to_quiescence(sim::Simulation& sim, Failures fail) {
  sim.run_until(sim::TimePoint() + sim::Duration::from_seconds(kQuiescenceCapSeconds));
  if (!sim.scheduler().empty()) {
    fail("quiescence: event queue still busy after " +
         std::to_string(static_cast<int>(kQuiescenceCapSeconds)) +
         " simulated seconds");
    return;
  }
}

void setup_transfer(TransferProbe& probe, stack::Host& sender_host,
                    stack::Host& receiver_host) {
  auto* receiver = &probe.receiver;
  receiver_host.tcp_listen(probe.plan.port,
                           [receiver](std::shared_ptr<stack::TcpConnection> c) {
                             receiver->attach(c);
                           });
  probe.conn = sender_host.tcp_connect(receiver_host.ip(), probe.plan.port);
  probe.sender = std::make_unique<testutil::BulkSender>(probe.conn, probe.plan.bytes);
}

void run_testbed_scenario(const Scenario& s, std::vector<std::string>* failures,
                          std::string* trace_tail, const FuzzOptions& options) {
  Failures fail{failures};
  sim::Simulation sim(s.seed);
  core::Testbed bed(sim, s.testbed);
  bed.settle();

  std::vector<std::unique_ptr<RingTap>> taps;
  stack::Host* hosts[] = {&bed.policy_host(), &bed.attacker(), &bed.client(),
                          &bed.target()};
  const char* names[] = {"policy", "attacker", "client", "target"};
  for (int i = 0; i < 4; ++i) {
    if (auto* port = hosts[i]->nic().port()) {
      taps.push_back(splice_tap(sim, *port, names[i], options.trace_tail));
    }
  }

  std::vector<std::unique_ptr<TransferProbe>> probes;
  for (const auto& plan : s.transfers) {
    auto probe = std::make_unique<TransferProbe>();
    probe->plan = plan;
    setup_transfer(*probe, bed.client(), bed.target());
    probes.push_back(std::move(probe));
  }

  apps::FloodConfig flood_cfg = s.flood_cfg;
  flood_cfg.target = bed.addresses().target;
  std::optional<apps::FloodGenerator> flood;
  if (s.flood) {
    flood.emplace(bed.attacker(), flood_cfg);
    auto* gen = &*flood;
    sim.schedule(sim::Duration::from_seconds(s.flood_start_s),
                 [gen] { gen->start(); });
    sim.schedule(sim::Duration::from_seconds(s.flood_stop_s), [gen] { gen->stop(); });
  }
  for (int i = 0; i < s.pings; ++i) {
    auto* client = &bed.client();
    auto target_ip = bed.addresses().target;
    sim.schedule(sim::Duration::milliseconds(10 + 15 * i), [client, target_ip, i] {
      client->send_echo_request(target_ip, 0x77, static_cast<std::uint16_t>(i), 56);
    });
  }

  run_to_quiescence(sim, fail);

  // Conservation + NIC accounting.
  for (int i = 0; i < 4; ++i) {
    if (auto* port = hosts[i]->nic().port()) {
      check_link(*port, names[i], fail);
    }
    check_nic(*hosts[i], names[i], fail);
  }
  // Monotonicity witness from the taps.
  for (const auto& tap : taps) {
    if (tap->monotonic_violation()) {
      fail("scheduler: deliveries at port " + tap->name() +
           " observed out of time order");
    }
  }
  // TCP safety. Flood traffic shares the target link with the transfers, so
  // congestion loss is expected whenever the flood ran.
  const bool contention = s.flood;
  for (const auto& probe : probes) {
    check_transfer(*probe, s.faults, contention, fail);
    check_retransmit_consistency(*probe, s.faults, contention, fail);
  }

  if (!failures->empty() && trace_tail->empty()) {
    for (const auto& tap : taps) *trace_tail += tap->tail_text();
  }
}

void run_star_scenario(const Scenario& s, std::vector<std::string>* failures,
                       std::string* trace_tail, const FuzzOptions& options) {
  Failures fail{failures};
  sim::Simulation sim(s.seed);
  testutil::StarNetwork net(sim, s.star_hosts);

  // Faults on every access link, both directions, each with its own stream.
  std::vector<std::unique_ptr<link::FaultInjector>> injectors;
  if (s.faults) {
    for (std::size_t i = 0; i < net.links.size(); ++i) {
      for (int side = 0; side < 2; ++side) {
        auto inj = std::make_unique<link::FaultInjector>(
            s.profile,
            core::derive_point_seed(s.seed ^ kStarFaultSalt, 2 * i + side));
        link::LinkPort& port = side == 0 ? net.links[i]->a() : net.links[i]->b();
        port.set_fault_injector(inj.get());
        injectors.push_back(std::move(inj));
      }
    }
  }

  std::vector<std::unique_ptr<RingTap>> taps;
  for (std::size_t i = 0; i < net.hosts.size(); ++i) {
    if (auto* port = net.hosts[i]->nic().port()) {
      taps.push_back(
          splice_tap(sim, *port, "h" + std::to_string(i), options.trace_tail));
    }
  }

  std::vector<std::unique_ptr<TransferProbe>> probes;
  for (const auto& plan : s.transfers) {
    auto probe = std::make_unique<TransferProbe>();
    probe->plan = plan;
    setup_transfer(*probe, *net.hosts[static_cast<std::size_t>(plan.from)],
                   *net.hosts[static_cast<std::size_t>(plan.to)]);
    probes.push_back(std::move(probe));
  }

  run_to_quiescence(sim, fail);

  for (std::size_t i = 0; i < net.hosts.size(); ++i) {
    if (auto* port = net.hosts[i]->nic().port()) {
      check_link(*port, "h" + std::to_string(i), fail);
    }
    check_nic(*net.hosts[i], "h" + std::to_string(i), fail);
    const auto& n = net.hosts[i]->nic().stats();
    if (n.tx_requested != n.tx_sent + n.tx_dropped) {
      fail("nic-accounting(h" + std::to_string(i) + "): tx_requested=" +
           std::to_string(n.tx_requested) + " != tx_sent=" +
           std::to_string(n.tx_sent) + " + tx_dropped=" +
           std::to_string(n.tx_dropped));
    }
  }
  for (const auto& tap : taps) {
    if (tap->monotonic_violation()) {
      fail("scheduler: deliveries at port " + tap->name() +
           " observed out of time order");
    }
  }
  // Several transfers can share a link, so congestion loss is possible even
  // without faults whenever there is more than one transfer.
  const bool contention = s.transfers.size() > 1;
  for (const auto& probe : probes) {
    check_transfer(*probe, s.faults, contention, fail);
    check_retransmit_consistency(*probe, s.faults, contention, fail);
  }

  if (!failures->empty() && trace_tail->empty()) {
    for (const auto& tap : taps) *trace_tail += tap->tail_text();
  }
}

// ---------------------------------------------------------------------------
// Fabric scenarios (multi-switch topologies from TopologyBuilder)
// ---------------------------------------------------------------------------

// A randomized leaf-spine or campus-tree fabric, 2..64 hosts, with TCP
// transfers between random host pairs. Runs under the same conservation /
// NIC-accounting / TCP-safety / monotonicity oracles as the legacy families,
// plus two fabric-specific ones: every switch must hold a route to every
// host (all_hosts_routed), and the batched link engine must reproduce the
// per-frame engine's transfer outcomes exactly.
//
// Drawn from its own salted stream (kFabricSalt): the legacy testbed/star
// generators see zero new draws, so their scenarios stay stable per seed.
struct FabricScenario {
  bool tree = false;  // campus tree vs leaf-spine
  int hosts = 2;
  int group = 4;   // hosts per leaf / per edge switch
  int spines = 1;  // leaf-spine only
  std::vector<core::FirewallKind> nic_kinds;  // per host
  int padding_rules = 0;  // inert deny rules ahead of the allow-all default
  std::vector<TransferPlan> transfers;
};

FabricScenario generate_fabric_scenario(std::uint64_t seed) {
  sim::Random rng(core::derive_point_seed(seed ^ kFabricSalt, 0));
  FabricScenario s;
  s.tree = rng.bernoulli(0.4);
  s.hosts = static_cast<int>(2 + rng.uniform(63));  // 2..64
  const int groups[] = {2, 4, 8, 16};
  s.group = groups[rng.uniform(4)];
  s.spines = static_cast<int>(1 + rng.uniform(3));
  for (int i = 0; i < s.hosts; ++i) {
    const auto k = rng.uniform(4);
    s.nic_kinds.push_back(k == 0   ? core::FirewallKind::kEfw
                          : k == 1 ? core::FirewallKind::kAdf
                                   : core::FirewallKind::kNone);
  }
  s.padding_rules = static_cast<int>(rng.uniform(16));
  const int n_transfers = static_cast<int>(1 + rng.uniform(3));
  for (int i = 0; i < n_transfers; ++i) {
    TransferPlan t;
    t.from = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(s.hosts)));
    do {
      t.to = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(s.hosts)));
    } while (t.to == t.from);
    t.port = static_cast<std::uint16_t>(6000 + i);
    t.bytes = 10'000 + rng.uniform(100'000);
    s.transfers.push_back(t);
  }
  return s;
}

std::unique_ptr<core::Fabric> build_fabric(sim::Simulation& sim,
                                           const FabricScenario& s,
                                           bool batched) {
  auto nic_for = [&s](int index) {
    core::NicSpec nic;
    nic.kind = s.nic_kinds[static_cast<std::size_t>(index)];
    return nic;
  };
  std::unique_ptr<core::Fabric> fabric;
  if (s.tree) {
    core::CampusTreeSpec spec;
    spec.hosts = s.hosts;
    spec.hosts_per_edge = s.group;
    spec.nic_for = nic_for;
    spec.batched_links = batched;
    fabric = core::build_campus_tree(sim, spec);
  } else {
    core::LeafSpineSpec spec;
    spec.hosts = s.hosts;
    spec.hosts_per_leaf = s.group;
    spec.spines = s.spines;
    spec.nic_for = nic_for;
    spec.batched_links = batched;
    fabric = core::build_leaf_spine(sim, spec);
  }
  // Firewalled hosts get a permissive policy with inert padding ahead of the
  // default (a fresh FirewallNic default-denies, which would just stall the
  // transfers; firewall *semantics* are fuzzed by the testbed family).
  firewall::RuleSet permissive;
  for (int i = 0; i < s.padding_rules; ++i) {
    firewall::Rule r;
    r.action = firewall::RuleAction::kDeny;
    r.protocol = 6;
    r.dst_net = net::Ipv4Address(192, 168, 0, static_cast<std::uint8_t>(i + 1));
    r.dst_prefix = 32;
    permissive.add(r);
  }
  permissive.set_default_action(firewall::RuleAction::kAllow);
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    if (auto* fw = fabric->firewall(i)) fw->install_rule_set(permissive);
  }
  return fabric;
}

// One link engine's observable outcome, for the batched-vs-per-frame
// comparison.
struct FabricRun {
  std::vector<std::size_t> received;  // per transfer
  std::vector<bool> complete;
  std::uint64_t access_tx_frames = 0;  // summed over host access links
  std::uint64_t access_rx_frames = 0;
  std::uint64_t nic_rx_delivered = 0;  // summed NIC verdicts over all hosts
  std::uint64_t nic_rx_dropped = 0;
};

FabricRun run_fabric_once(const FabricScenario& s, std::uint64_t seed,
                          bool batched, std::vector<std::string>* failures,
                          std::string* trace_tail, const FuzzOptions& options) {
  Failures fail{failures};
  sim::Simulation sim(seed);
  auto fabric = build_fabric(sim, s, batched);

  if (!fabric->all_hosts_routed()) {
    fail("fabric: a switch is missing a preloaded route to some host (" +
         std::string(s.tree ? "tree" : "leaf-spine") + " hosts=" +
         std::to_string(s.hosts) + ")");
  }

  // Tap only the hosts that carry traffic; an idle 64-host fabric would
  // dominate the tail with silence.
  std::vector<std::unique_ptr<RingTap>> taps;
  std::vector<int> tapped;
  for (const auto& plan : s.transfers) {
    for (int h : {plan.from, plan.to}) {
      if (std::find(tapped.begin(), tapped.end(), h) != tapped.end()) continue;
      tapped.push_back(h);
      if (auto* port = fabric->host(h).nic().port()) {
        taps.push_back(
            splice_tap(sim, *port, "h" + std::to_string(h), options.trace_tail));
      }
    }
  }

  std::vector<std::unique_ptr<TransferProbe>> probes;
  for (const auto& plan : s.transfers) {
    auto probe = std::make_unique<TransferProbe>();
    probe->plan = plan;
    setup_transfer(*probe, fabric->host(plan.from), fabric->host(plan.to));
    probes.push_back(std::move(probe));
  }

  run_to_quiescence(sim, fail);

  FabricRun out;
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    if (auto* port = fabric->host(i).nic().port()) {
      check_link(*port, "fabric-h" + std::to_string(i), fail);
    }
    check_nic(fabric->host(i), "fabric-h" + std::to_string(i), fail);
    const auto& nic = fabric->host(i).nic().stats();
    out.nic_rx_delivered += nic.rx_delivered;
    out.nic_rx_dropped += nic.rx_dropped;
    auto& access = fabric->host_link(i);
    out.access_tx_frames += access.a().stats().tx_frames;
    out.access_rx_frames += access.a().stats().rx_frames;
  }
  for (const auto& tap : taps) {
    if (tap->monotonic_violation()) {
      fail("scheduler: deliveries at fabric port " + tap->name() +
           " observed out of time order");
    }
  }
  const bool contention = s.transfers.size() > 1;
  for (const auto& probe : probes) {
    check_transfer(*probe, /*faults=*/false, contention, fail);
    out.received.push_back(probe->receiver.received());
    out.complete.push_back(probe->receiver.received() == probe->plan.bytes &&
                           probe->receiver.eof());
  }

  if (!failures->empty() && trace_tail->empty()) {
    for (const auto& tap : taps) *trace_tail += tap->tail_text();
  }
  return out;
}

// Compares two link engines' observable outcomes field by field: same
// transfer byte counts and completions (content is covered by the receiver's
// per-byte mismatch oracle inside each run), same access-link frame counts,
// same summed NIC verdicts.
void check_run_identity(const FabricRun& a, const FabricRun& b,
                        const char* oracle, const char* a_name,
                        const char* b_name, Failures fail) {
  if (a.received != b.received || a.complete != b.complete) {
    std::string detail;
    for (std::size_t i = 0; i < a.received.size(); ++i) {
      detail += " transfer" + std::to_string(i) + "=" +
                std::to_string(a.received[i]) + "/" +
                std::to_string(b.received[i]);
    }
    fail(std::string(oracle) + ": " + a_name + " vs " + b_name +
         " transfer outcomes diverged (" + a_name + "/" + b_name + "):" + detail);
  }
  if (a.access_tx_frames != b.access_tx_frames ||
      a.access_rx_frames != b.access_rx_frames) {
    fail(std::string(oracle) + ": access-link frame counts diverged (tx " +
         std::to_string(a.access_tx_frames) + " vs " +
         std::to_string(b.access_tx_frames) + ", rx " +
         std::to_string(a.access_rx_frames) + " vs " +
         std::to_string(b.access_rx_frames) + ")");
  }
  if (a.nic_rx_delivered != b.nic_rx_delivered ||
      a.nic_rx_dropped != b.nic_rx_dropped) {
    fail(std::string(oracle) + ": NIC verdict counts diverged (delivered " +
         std::to_string(a.nic_rx_delivered) + " vs " +
         std::to_string(b.nic_rx_delivered) + ", dropped " +
         std::to_string(a.nic_rx_dropped) + " vs " +
         std::to_string(b.nic_rx_dropped) + ")");
  }
}

void run_fabric_scenario(const FabricScenario& s, std::uint64_t seed,
                         std::vector<std::string>* failures,
                         std::string* trace_tail, const FuzzOptions& options) {
  Failures fail{failures};
  const FabricRun batched = run_fabric_once(s, seed, /*batched=*/true,
                                            failures, trace_tail, options);
  const FabricRun per_frame = run_fabric_once(s, seed, /*batched=*/false,
                                              failures, trace_tail, options);

  // The batched engine is an optimization, not a model change: same frames,
  // same bytes, same completions.
  check_run_identity(batched, per_frame, "batched-identity", "batched",
                     "per-frame", fail);
}

std::string fabric_summary(const FabricScenario& s) {
  return std::string(" | fabric ") + (s.tree ? "tree" : "leaf-spine") +
         " hosts=" + std::to_string(s.hosts) + " transfers=" +
         std::to_string(s.transfers.size());
}

}  // namespace

FuzzOutcome run_seed(std::uint64_t seed, const FuzzOptions& options) {
  FuzzOutcome out;
  out.seed = seed;

  Failures fail{&out.failures};
  if (std::getenv("BARB_FUZZ_FORCE_FAIL") != nullptr) {
    // Exercises the failure-reporting path (seed + scenario dump + trace
    // tail) without a real invariant violation.
    fail("forced failure (BARB_FUZZ_FORCE_FAIL is set)");
  }
  const bool legacy = options.family != FuzzFamily::kPolicy;
  const bool policy = options.family != FuzzFamily::kLegacy;

  if (legacy) {
    out.differential_checks = run_differential_oracle(seed, fail);
    run_scheduler_oracle(seed, fail);

    const Scenario scenario = generate_scenario(seed);
    out.scenario_json = scenario_to_json(scenario);
    out.summary = scenario_summary(scenario);
    if (scenario.star) {
      run_star_scenario(scenario, &out.failures, &out.trace_tail, options);
    } else {
      run_testbed_scenario(scenario, &out.failures, &out.trace_tail, options);
    }

    // Every seed additionally exercises a multi-switch fabric (its own salted
    // stream, so the legacy scenario above is untouched).
    const FabricScenario fabric = generate_fabric_scenario(seed);
    out.summary += fabric_summary(fabric);
    run_fabric_scenario(fabric, seed, &out.failures, &out.trace_tail, options);
  }

  if (policy) {
    out.differential_checks += run_policy_oracle(seed, fail, &out.summary);
  }
  if (out.scenario_json.empty()) {
    // Policy-only runs still need a replayable scenario file: everything is
    // seed-derived, so the seed is the whole scenario.
    telemetry::JsonWriter w;
    w.begin_object();
    w.key("seed").value(static_cast<std::uint64_t>(seed));
    w.key("family").value("policy");
    w.end_object();
    out.scenario_json = w.str();
  }

  out.ok = out.failures.empty();
  return out;
}

bool family_from_name(const std::string& name, FuzzFamily* out) {
  if (name == "all") {
    *out = FuzzFamily::kAll;
  } else if (name == "legacy") {
    *out = FuzzFamily::kLegacy;
  } else if (name == "policy") {
    *out = FuzzFamily::kPolicy;
  } else {
    return false;
  }
  return true;
}

bool seeds_from_file(const std::string& path, std::vector<std::uint64_t>* seeds) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t eol = text.find('\n', i);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(i, eol - i);
    i = eol + 1;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::size_t p = 0;
    while (p < line.size() && (line[p] == ' ' || line[p] == '\t' || line[p] == '\r')) {
      ++p;
    }
    if (p >= line.size()) continue;
    std::uint64_t value = 0;
    bool any = false;
    while (p < line.size() && line[p] >= '0' && line[p] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(line[p] - '0');
      any = true;
      ++p;
    }
    while (p < line.size() && (line[p] == ' ' || line[p] == '\t' || line[p] == '\r')) {
      ++p;
    }
    if (!any || p != line.size()) return false;  // junk on a seed line
    seeds->push_back(value);
  }
  return !seeds->empty();
}

bool seed_from_scenario_file(const std::string& path, std::uint64_t* seed) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  // Scenarios are fully derived from the seed, so extracting the one field
  // is all replay needs (no JSON parser in the tree).
  const auto pos = text.find("\"seed\"");
  if (pos == std::string::npos) return false;
  auto i = text.find(':', pos);
  if (i == std::string::npos) return false;
  ++i;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  std::uint64_t value = 0;
  bool any = false;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
    any = true;
    ++i;
  }
  if (!any) return false;
  *seed = value;
  return true;
}

}  // namespace barb::fuzz
