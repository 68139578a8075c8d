// Fleet-scale headline bench: aggregate goodput and per-victim flood
// tolerance versus fleet size on a leaf-spine fabric, with a per-host memory
// footprint audit and a batched-vs-per-frame delivery engine comparison.
//
// This is the ROADMAP item 2 experiment: the paper's per-host enforcement
// argument (Figure 3) replayed at fleet scale. Every host carries an EFW
// model NIC with a deny-the-flood rule at depth 32; two plain-NIC attackers
// flood two victims with spoofed UDP while every other host pair runs a
// paced UDP bandwidth measurement across the spine. A healthy distributed
// firewall keeps the victims' pairs near the clean pairs' goodput; a
// centralized-chokepoint design would not.
//
// Not a paper figure, but the artifact honours the repo-wide rule: JSON and
// CSV are byte-identical across --jobs and across runs at the same seed, so
// only deterministic quantities go in (simulated goodput, memory audit,
// scheduler event *counts* and their ratio). Wall-clock measurements — which
// vary run to run — print to stderr, like run_sweep's timings.
#include <cstdint>
#include <cstdio>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "apps/flood_generator.h"
#include "apps/iperf.h"
#include "bench_common.h"
#include "core/topology.h"
#include "firewall/policy.h"
#include "stack/arp_table.h"
#include "util/assert.h"

namespace {

using namespace barb;

// Per-host policy: flood denied at the paper's depth-32 action rule,
// everything else admitted by the catch-all right after it.
std::string fleet_policy() {
  std::string policy = "default deny\n";
  for (int i = 1; i < 32; ++i) {
    policy += "deny tcp from 192.168." + std::to_string(i / 200) + "." +
              std::to_string(i % 200 + 1) + " to 192.168.250.1\n";
  }
  policy += "deny udp from any to any port " + std::to_string(7777) + "\n";
  policy += "allow any from any to any\n";
  return policy;
}

struct FleetResult {
  int hosts = 0;
  int pairs = 0;
  int pairs_completed = 0;
  double aggregate_mbps = 0.0;
  double victim_mbps = 0.0;  // mean over the flooded victims' pairs
  double clean_mbps = 0.0;   // mean over the un-flooded pairs
  std::uint64_t events_executed = 0;
  double wall_s = 0.0;
  std::size_t mem_per_host = 0;
  std::size_t mem_directory = 0;
  std::uint64_t fib_evictions = 0;
};

constexpr int kAttackers = 2;
constexpr double kPairRateBps = 4e6;
// Below the calibrated ADF(Deny) depth-32 tolerance threshold (~10.6k pps,
// fig3b): a healthy fleet should hold the victims' goodput near clean.
constexpr double kFloodPps = 8000.0;
constexpr std::uint16_t kFloodPort = 7777;

FleetResult run_fleet(int hosts, std::uint64_t seed, bool batched,
                      sim::Duration window) {
  sim::Simulation sim(seed);

  core::LeafSpineSpec spec;
  spec.hosts = hosts;
  spec.hosts_per_leaf = 16;
  spec.spines = 2;
  spec.batched_links = batched;
  // ADF cards fleet-wide: the flood-tolerant model (an EFW fleet would
  // reproduce the deny-flood lockup and flatline the victims — see fig3b).
  spec.nic_for = [](int index) {
    core::NicSpec nic;
    nic.kind = index < kAttackers ? core::FirewallKind::kNone
                                  : core::FirewallKind::kAdf;
    return nic;
  };
  auto fabric = core::build_leaf_spine(sim, spec);

  // Install the same deny-flood policy on every firewalled host.
  auto parsed = firewall::parse_policy(fleet_policy());
  BARB_ASSERT(parsed.ok());
  for (int i = kAttackers; i < hosts; ++i) {
    fabric->firewall(i)->install_rule_set(*parsed.rule_set);
  }

  // Pairing: clients are the first half of the non-attacker hosts, servers
  // the second half; pair k crosses the spine. The first kAttackers servers
  // are the flood victims (their pairs measure under attack).
  const int pairs = (hosts - kAttackers) / 2;
  const int first_client = kAttackers;
  const int first_server = kAttackers + pairs;

  std::vector<std::unique_ptr<apps::IperfServer>> servers;
  std::vector<std::unique_ptr<apps::IperfClient>> clients;
  std::vector<apps::IperfResult> results(static_cast<std::size_t>(pairs));
  for (int k = 0; k < pairs; ++k) {
    servers.push_back(std::make_unique<apps::IperfServer>(
        fabric->host(first_server + k)));
    servers.back()->start();
    clients.push_back(std::make_unique<apps::IperfClient>(
        fabric->host(first_client + k), fabric->host(first_server + k).ip()));
  }

  std::vector<std::unique_ptr<apps::FloodGenerator>> floods;
  for (int a = 0; a < kAttackers && a < pairs; ++a) {
    apps::FloodConfig cfg;
    cfg.target = fabric->host(first_server + a).ip();
    cfg.target_port = kFloodPort;
    cfg.rate_pps = kFloodPps;
    cfg.spoof_source = true;
    floods.push_back(
        std::make_unique<apps::FloodGenerator>(fabric->host(a), cfg));
  }

  // Floods ramp first; measurements start staggered (a thousand clients must
  // not SYN-chronize) and run one window each.
  sim.schedule(sim::Duration::milliseconds(5), [&] {
    for (auto& f : floods) f->start();
  });
  for (int k = 0; k < pairs; ++k) {
    const auto start = sim::Duration::milliseconds(10) +
                       sim::Duration::microseconds(37) * k;
    sim.schedule(start, [&, k] {
      clients[static_cast<std::size_t>(k)]->run(
          apps::IperfClient::Mode::kUdp, window,
          [&, k](apps::IperfResult r) { results[static_cast<std::size_t>(k)] = r; },
          kPairRateBps);
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(sim::TimePoint::origin() + window + sim::Duration::seconds(2));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  FleetResult out;
  out.hosts = hosts;
  out.pairs = pairs;
  out.events_executed = sim.events_executed();
  out.wall_s = wall;
  double aggregate = 0.0, victim = 0.0, clean = 0.0;
  int victims = 0, cleans = 0;
  for (int k = 0; k < pairs; ++k) {
    const auto& r = results[static_cast<std::size_t>(k)];
    if (r.completed) ++out.pairs_completed;
    aggregate += r.mbps;
    if (k < kAttackers) {
      victim += r.mbps;
      ++victims;
    } else {
      clean += r.mbps;
      ++cleans;
    }
  }
  out.aggregate_mbps = aggregate;
  out.victim_mbps = victims > 0 ? victim / victims : 0.0;
  out.clean_mbps = cleans > 0 ? clean / cleans : 0.0;

  const auto audit = fabric->memory_audit();
  out.mem_per_host = audit.per_host_bytes();
  out.mem_directory = audit.directory_bytes;
  for (int s = 0; s < fabric->num_switches(); ++s) {
    out.fib_evictions += fabric->fabric_switch(s).stats().fib_evictions;
  }
  return out;
}

// What the same fleet's address resolution would cost per host with the
// legacy full-mesh per-host ARP maps (measured on a real ArpTable populated
// with N-1 bindings, not a back-of-envelope guess).
std::size_t fullmesh_arp_bytes_per_host(int hosts) {
  stack::ArpTable table;
  for (int i = 1; i < hosts; ++i) {
    table.add(core::fleet_ip(i), core::fleet_mac(i));
  }
  return table.memory_bytes();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace barb;
  using core::TextTable;
  using core::fmt;
  using core::fmt_int;

  bench::print_header("Fleet goodput & flood tolerance vs. fleet size",
                      "ROADMAP item 2 (fleet-scale extension; not a paper figure)");
  const auto opt = bench::bench_options();
  const sim::Duration window =
      bench::fast_mode() ? sim::Duration::milliseconds(300) : sim::Duration::seconds(1);

  std::vector<int> sizes = bench::fast_mode() ? std::vector<int>{64, 512}
                                              : std::vector<int>{64, 256, 512, 1024};

  auto runner = bench::make_runner(argc, argv, opt);
  std::vector<std::function<std::pair<FleetResult, FleetResult>(const core::SweepPoint&)>>
      tasks;
  for (const int n : sizes) {
    tasks.push_back([n, window](const core::SweepPoint& point) {
      // Same seed through both engines: the simulated results must agree
      // byte-for-byte; only the wall-clock/events-rate columns may differ.
      FleetResult batched = run_fleet(n, point.seed, /*batched=*/true, window);
      FleetResult perframe = run_fleet(n, point.seed, /*batched=*/false, window);
      return std::make_pair(batched, perframe);
    });
  }
  const auto results = bench::run_sweep(runner, "fleet_goodput", std::move(tasks));

  telemetry::BenchArtifact artifact("fleet_goodput");
  bench::set_common_meta(artifact, opt);
  artifact.set_meta("attackers", static_cast<double>(kAttackers));
  artifact.set_meta("flood_pps", kFloodPps);
  artifact.set_meta("pair_rate_mbps", kPairRateBps / 1e6);

  TextTable table({"Hosts", "Pairs", "Aggregate (Mbps)", "Victim (Mbps)",
                   "Clean (Mbps)", "KiB/host", "KiB/host full-mesh",
                   "Events batched", "Events per-frame"});
  bool identical = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FleetResult& b = results[i].first;
    const FleetResult& p = results[i].second;
    if (b.aggregate_mbps != p.aggregate_mbps || b.victim_mbps != p.victim_mbps ||
        b.events_executed == 0) {
      // events differ by design (that is the point); goodput must not.
      if (b.aggregate_mbps != p.aggregate_mbps || b.victim_mbps != p.victim_mbps) {
        identical = false;
      }
    }
    const double x = static_cast<double>(b.hosts);
    const std::size_t fullmesh =
        fullmesh_arp_bytes_per_host(b.hosts) + b.mem_per_host -
        (b.mem_directory / static_cast<std::size_t>(b.hosts));
    // The engine comparison's deterministic half: a batched event delivers a
    // whole busy-period quantum, so batched runs execute fewer (bigger)
    // events for the same simulated work. The event counts and their ratio
    // are exact per seed; wall-clock goes to stderr below.
    const double reduction =
        b.events_executed > 0
            ? static_cast<double>(p.events_executed) /
                  static_cast<double>(b.events_executed)
            : 0;
    table.add_row({fmt_int(x), fmt_int(b.pairs), fmt(b.aggregate_mbps),
                   fmt(b.victim_mbps, 2), fmt(b.clean_mbps, 2),
                   fmt(static_cast<double>(b.mem_per_host) / 1024.0),
                   fmt(static_cast<double>(fullmesh) / 1024.0),
                   fmt_int(static_cast<double>(b.events_executed)),
                   fmt_int(static_cast<double>(p.events_executed))});

    artifact.add_point("aggregate_goodput_mbps", x, b.aggregate_mbps);
    artifact.add_point("victim_goodput_mbps", x, b.victim_mbps);
    artifact.add_point("clean_goodput_mbps", x, b.clean_mbps);
    artifact.add_point("pairs_completed", x, static_cast<double>(b.pairs_completed));
    artifact.add_point("mem_per_host_bytes", x, static_cast<double>(b.mem_per_host));
    artifact.add_point("mem_per_host_fullmesh_bytes", x, static_cast<double>(fullmesh));
    artifact.add_point("events_batched", x, static_cast<double>(b.events_executed));
    artifact.add_point("events_perframe", x, static_cast<double>(p.events_executed));
    artifact.add_point("batched_event_reduction", x, reduction);
    artifact.add_point("fib_evictions", x, static_cast<double>(b.fib_evictions));
  }
  std::printf("%s\n", table.to_string().c_str());
  for (const auto& [b, p] : results) {
    std::fprintf(
        stderr,
        "hosts=%d: batched %llu events / %.2fs vs per-frame %llu events / "
        "%.2fs -> wall speedup %.2fx\n",
        b.hosts, static_cast<unsigned long long>(b.events_executed), b.wall_s,
        static_cast<unsigned long long>(p.events_executed), p.wall_s,
        b.wall_s > 0 ? p.wall_s / b.wall_s : 0.0);
  }
  std::printf("\n");
  bench::maybe_write_csv("fleet_goodput", table);
  bench::write_artifact(artifact);

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: batched and per-frame delivery disagree on simulated "
                 "goodput (engines must be behaviour-identical)\n");
    return 1;
  }
  std::printf("PASS: batched == per-frame simulated goodput at every size\n");
  return 0;
}
