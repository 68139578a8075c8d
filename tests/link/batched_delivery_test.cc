// The link's delivery engine (one armed timer per port direction, TX
// accounting advanced on read) against a brute-force per-frame recurrence
// written out here:
//   serialization start = max(send time, end of the previous serialization)
//   delivery            = end of serialization + propagation
//   drop-tail           on the bytes queued behind the transmitter.
// Randomized send traces with bursts that overflow the queue must give the
// same delivery instants, stats, drops, busy time and sampled queue gauges.
// The same driver, given a fault injector, checks the fault path.
#include "link/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "apps/flood_generator.h"
#include "apps/iperf.h"
#include "core/testbed.h"
#include "link/fault_injector.h"
#include "sim/simulation.h"

namespace barb::link {
namespace {

struct Send {
  sim::TimePoint at;
  std::size_t bytes = 0;
};

// Bursts of 1..4 frames at random microsecond gaps, and now and then a
// burst of 10..30 frames that overflows a small queue.
std::vector<Send> random_trace(std::uint64_t seed, int events) {
  std::mt19937_64 rng(seed);
  auto uniform = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  std::vector<Send> trace;
  sim::TimePoint t;
  for (int e = 0; e < events; ++e) {
    t = t + sim::Duration::microseconds(uniform(0, 300));
    const int burst = uniform(0, 4) == 0 ? uniform(10, 30) : uniform(1, 4);
    for (int i = 0; i < burst; ++i) {
      trace.push_back(Send{t, static_cast<std::size_t>(uniform(42, 1514))});
    }
  }
  return trace;
}

struct RefFrame {
  std::uint64_t index = 0;  // position in the send trace
  sim::TimePoint sent, start, end;
  std::size_t bytes = 0;
};

// The admitted frames, in order; `drops` counts the rest.
std::vector<RefFrame> per_frame_reference(const std::vector<Send>& trace,
                                          const LinkPort& port, std::size_t queue_bytes,
                                          std::uint64_t* drops) {
  std::vector<RefFrame> admitted;
  sim::TimePoint tx_end;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Send& s = trace[i];
    std::size_t queued = 0;
    for (const auto& f : admitted) {
      if (f.start > s.at) queued += f.bytes;
    }
    if (tx_end > s.at && queued + s.bytes > queue_bytes) {
      ++*drops;
      continue;
    }
    const sim::TimePoint start = std::max(s.at, tx_end);
    tx_end = start + port.frame_time(s.bytes);
    admitted.push_back(RefFrame{i, s.at, start, tx_end, s.bytes});
  }
  return admitted;
}

struct EngineRun : FrameSink {
  sim::Simulation* sim = nullptr;
  std::vector<std::pair<sim::TimePoint, std::uint64_t>> deliveries;  // (when, index)
  void deliver(net::Packet pkt) override { deliveries.emplace_back(sim->now(), pkt.id); }
  LinkPortStats tx_stats;
  LinkPortStats rx_stats;
  std::vector<sim::TimePoint> sample_at;
  std::vector<std::size_t> depths;
  std::vector<std::size_t> queued;
  std::uint64_t link_events = 0;  // scheduler events not scheduled by the driver
};

// Sends the trace a -> b (Packet::id = trace index) and samples a's gauges
// 13 ns off the microsecond grid the sends sit on.
EngineRun drive(const std::vector<Send>& trace, const LinkConfig& config,
                FaultInjector* fault = nullptr) {
  sim::Simulation sim(1);
  Link link(sim, config);
  link.a().set_fault_injector(fault);
  EngineRun run;
  run.sim = &sim;
  link.b().connect_sink(&run);
  std::uint64_t driver_events = 0;
  for (std::size_t i = 0; i < trace.size(); ++i, ++driver_events) {
    const Send s = trace[i];
    sim.schedule_at(s.at, [&link, s, i] {
      link.a().send(net::Packet{std::vector<std::uint8_t>(s.bytes, 0xab),
                                sim::TimePoint::origin(), i});
    });
  }
  const sim::TimePoint end = trace.back().at + sim::Duration::milliseconds(5);
  for (sim::TimePoint t = sim::TimePoint() + sim::Duration::nanoseconds(13); t < end;
       t = t + sim::Duration::microseconds(37), ++driver_events) {
    run.sample_at.push_back(t);
    sim.schedule_at(t, [&] {
      run.depths.push_back(link.a().queue_depth());
      run.queued.push_back(link.a().queued_bytes());
    });
  }
  sim.run();

  run.sim = nullptr;
  run.tx_stats = link.a().stats();
  run.rx_stats = link.b().stats();
  run.link_events = sim.scheduler().events_executed() - driver_events;
  return run;
}

// 100 Mbps with a small queue, so bursts overflow it.
const LinkConfig kEdge{100e6, sim::Duration::nanoseconds(500), 8 * 1024};

TEST(BatchedDelivery, TimelineIdenticalToPerFrame) {
  for (const LinkConfig& config :
       {kEdge, LinkConfig{1e9, sim::Duration::microseconds(1), 12 * 1024}}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " rate " << config.rate_bps);
      const std::vector<Send> trace = random_trace(seed, 120);
      const EngineRun run = drive(trace, config);
      sim::Simulation scratch(1);
      Link model(scratch, config);
      std::uint64_t drops = 0;
      const auto ref = per_frame_reference(trace, model.a(), config.queue_bytes, &drops);

      ASSERT_EQ(run.deliveries.size(), ref.size());
      sim::Duration busy;
      std::uint64_t bytes = 0;
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(run.deliveries[k].first, ref[k].end + config.propagation) << "frame " << k;
        EXPECT_EQ(run.deliveries[k].second, ref[k].index) << "frame " << k;
        busy += ref[k].end - ref[k].start;
        bytes += ref[k].bytes;
      }
      EXPECT_GT(drops, 0u);  // the bursts did overflow
      EXPECT_EQ(run.tx_stats.dropped_frames, drops);
      EXPECT_EQ(run.tx_stats.tx_frames, ref.size());
      EXPECT_EQ(run.tx_stats.tx_bytes, bytes);
      EXPECT_EQ(run.tx_stats.busy_time, busy);
      EXPECT_EQ(run.rx_stats.rx_frames, ref.size());
      EXPECT_EQ(run.rx_stats.rx_bytes, bytes);

      for (std::size_t k = 0; k < run.sample_at.size(); ++k) {
        const sim::TimePoint t = run.sample_at[k];
        std::size_t depth = 0, queued = 0;
        for (const RefFrame& f : ref) {
          if (f.sent > t || f.end <= t) continue;  // not sent yet, or on the wire
          ++depth;
          if (f.start > t) queued += f.bytes;
        }
        EXPECT_EQ(run.depths[k], depth) << "at " << t.ns() << " ns";
        EXPECT_EQ(run.queued[k], queued) << "at " << t.ns() << " ns";
      }
    }
  }
}

// A per-frame serializer runs two events per frame (delivery and
// transmitter-free); the engine runs one timer firing per delivery instant.
TEST(BatchedDelivery, ExecutesFewerEvents) {
  const EngineRun run = drive(random_trace(3, 120), kEdge);
  ASSERT_GT(run.rx_stats.rx_frames, 0u);
  EXPECT_LE(run.link_events, run.rx_stats.rx_frames);
  EXPECT_LT(run.link_events, 2 * run.tx_stats.tx_frames);
}

FaultProfile every_fault() {
  FaultProfile p;
  p.loss = 0.05;
  p.ge_p_good_to_bad = 0.02;
  p.ge_p_bad_to_good = 0.3;
  p.ge_loss_bad = 0.8;
  p.corruption = 0.05;
  p.duplication = 0.05;
  p.reorder = 0.1;
  p.jitter_max = sim::Duration::microseconds(20);
  return p;
}

// Fates are decided at admission, which is serialization order, so a fixed
// seed draws exactly the fates that an injector consulted at serialization
// start drew. The counts and the delivery digest were recorded from one.
TEST(BatchedDelivery, FaultFatesMatchRecordedCounts) {
  FaultInjector fault(every_fault(), 2024);
  const EngineRun run = drive(random_trace(5, 200), kEdge, &fault);
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over (index, ns)
  for (const auto& [at, index] : run.deliveries) {
    for (const std::uint64_t v : {index, static_cast<std::uint64_t>(at.ns())}) {
      for (int b = 0; b < 8; ++b) digest = (digest ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  const FaultInjectorStats& st = fault.stats();
  // frames, lost_random, lost_burst, corrupted, duplicated, reordered, jittered
  EXPECT_EQ(std::vector<std::uint64_t>({st.frames, st.lost_random, st.lost_burst, st.corrupted,
                                        st.duplicated, st.reordered, st.jittered}),
            std::vector<std::uint64_t>({526, 22, 19, 26, 21, 44, 485}));
  EXPECT_EQ(run.tx_stats.tx_frames, 526u);
  EXPECT_EQ(run.tx_stats.dropped_frames, 590u);
  EXPECT_EQ(run.rx_stats.rx_frames, 506u);
  EXPECT_EQ(digest, 0x6edabbfa642522ffULL);
}

// Conservation at quiescence on a queueing, overflowing link, whatever the
// profile: every admitted frame was delivered, lost, or duplicated.
TEST(BatchedDelivery, FaultConservationUnderQueueing) {
  FaultProfile duplicate;
  duplicate.duplication = 0.3;
  FaultProfile delay;
  delay.reorder = 0.3;
  delay.jitter_max = sim::Duration::microseconds(300);
  for (const FaultProfile& p : {every_fault(), duplicate, delay}) {
    FaultInjector fault(p, 7);
    const EngineRun run = drive(random_trace(9, 200), kEdge, &fault);
    EXPECT_GT(run.tx_stats.dropped_frames, 0u);
    EXPECT_EQ(fault.stats().frames, run.tx_stats.tx_frames);
    EXPECT_EQ(run.rx_stats.rx_frames,
              run.tx_stats.tx_frames - fault.stats().lost() + fault.stats().duplicated);
    EXPECT_EQ(run.deliveries.size(), run.rx_stats.rx_frames);
  }
}

// A held-back frame is overtaken by the frames admitted behind it, and ties
// at one instant deliver in admission order. Equal frames go out 100 us
// apart on an idle link and a held frame waits exactly 1 ms, so frame i+10
// arrives at the very instant held frame i does.
TEST(BatchedDelivery, ReorderedFrameArrivesAfterLaterAdmissions) {
  FaultProfile p;
  p.reorder = 0.2;
  p.reorder_window = 1;
  p.reorder_hold = sim::Duration::milliseconds(1);
  FaultInjector fault(p, 42);
  std::vector<Send> trace;
  for (int i = 0; i < 300; ++i) {
    trace.push_back(Send{sim::TimePoint() + sim::Duration::microseconds(100) * i, 200});
  }
  const EngineRun run = drive(trace, kEdge, &fault);
  ASSERT_EQ(run.deliveries.size(), trace.size());

  std::vector<std::size_t> position(trace.size());
  std::vector<sim::Duration> latency(trace.size());
  for (std::size_t k = 0; k < run.deliveries.size(); ++k) {
    const auto [at, index] = run.deliveries[k];
    position[index] = k;
    latency[index] = at - trace[index].at;
  }
  const sim::Duration base = *std::min_element(latency.begin(), latency.end());
  std::uint64_t held = 0, ties = 0;
  for (std::size_t i = 0; i + 10 < trace.size(); ++i) {
    if (latency[i] == base) continue;
    ++held;
    EXPECT_EQ(latency[i], base + p.reorder_hold) << "frame " << i;
    for (std::size_t j = i + 1; j < i + 10; ++j) {
      if (latency[j] == base) {
        EXPECT_LT(position[j], position[i]) << j << " behind " << i;
      }
    }
    if (latency[i + 10] == base) {
      ++ties;
      EXPECT_LT(position[i], position[i + 10]) << "tie at " << i;
    }
  }
  EXPECT_GT(ties, 0u);
  EXPECT_LE(held, fault.stats().reordered);
}

// End-to-end pins on the paper topology: the 4-host testbed measures what
// the event-per-frame engine this one replaced measured, to the byte.
TEST(BatchedDelivery, TestbedIperfByteIdentical) {
  sim::Simulation sim(7);
  core::TestbedConfig config;
  config.firewall = core::FirewallKind::kAdf;
  config.action_rule_depth = 16;
  core::Testbed testbed(sim, config);
  testbed.settle();

  apps::IperfServer server(testbed.target());
  server.start();
  apps::IperfClient client(testbed.client(), testbed.addresses().target);
  apps::IperfResult result;
  client.run(apps::IperfClient::Mode::kTcp, sim::Duration::milliseconds(200),
             [&](apps::IperfResult r) { result = r; });
  sim.run();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.bytes, 2070280u);
  EXPECT_EQ(result.mbps, 82.811199999999999);
  EXPECT_EQ(result.retransmissions, 0u);
}

// Fig3-shaped contention: a UDP blast overflows the victim's access link.
TEST(BatchedDelivery, TestbedFloodByteIdentical) {
  sim::Simulation sim(11);
  core::TestbedConfig config;
  config.firewall = core::FirewallKind::kNone;
  core::Testbed testbed(sim, config);
  testbed.settle();

  apps::IperfServer server(testbed.target());
  server.start();
  apps::IperfClient client(testbed.client(), testbed.addresses().target);
  apps::IperfResult result;
  client.run(apps::IperfClient::Mode::kUdp, sim::Duration::milliseconds(200),
             [&](apps::IperfResult r) { result = r; }, 50e6);

  apps::FloodConfig flood_cfg;
  flood_cfg.target = testbed.addresses().target;
  flood_cfg.rate_pps = 20000;
  flood_cfg.frame_size = 1514;  // > line rate: forces queue overflow
  flood_cfg.spoof_source = true;
  apps::FloodGenerator flood(testbed.attacker(), flood_cfg);
  flood.start();
  sim.schedule(sim::Duration::milliseconds(400), [&] { flood.stop(); });
  sim.run();

  const auto& s = testbed.fabric().host_link(3).b().stats();  // toward the target
  EXPECT_EQ(result.bytes, 991340u);
  EXPECT_EQ(s.tx_frames, 4294u);
  EXPECT_EQ(s.dropped_frames, 308u);  // the flood did overflow the queue
}

}  // namespace
}  // namespace barb::link
