// The repository benchmark's driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Runs passes of one workload until --seconds have elapsed (at least one)
// and prints, as the last line of stdout, one JSON object
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). A traced run alternates untraced and traced
// passes of the same seed, so it also reports the tracing overhead and
// checks that tracing left every simulated output unchanged.
//
// Other modes, used by perfbench/test_bench.py and when re-recording the
// reference table:
//   perfbench --print-reference            reference.inc rows for seed 1
//   perfbench --check-measure <workload> --seed <n>
//                                          replica vs core::measure_*
//   perfbench --list-inputs <workload> --seed <n>
//                                          the generated inputs' digest
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/runner.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct ReferenceRow {
  const char* workload;
  const char* unit;
  std::vector<double> values;
};

// Simulated outputs at seed 1, recorded with --print-reference. The
// fig3a/fig2/table1 rows equal the fast-mode paper artifacts
// (BARB_BENCH_FAST=1) point for point.
const std::vector<ReferenceRow>& reference_rows() {
  static const std::vector<ReferenceRow> rows = {
#include "reference.inc"
  };
  return rows;
}

constexpr std::uint64_t kReferenceSeed = 1;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
            num + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Compares a pass's outputs with the reference rows (seed 1 only). A unit
// whose outputs differ counts as failed.
void check_reference(const std::string& workload, PassResult& pass) {
  std::map<std::string, const ReferenceRow*> want;
  for (const ReferenceRow& r : reference_rows()) {
    if (workload == r.workload) want[r.unit] = &r;
  }
  std::uint64_t bad = 0;
  for (const UnitOutput& o : pass.outputs) {
    const auto it = want.find(o.id);
    bool ok = it != want.end() && it->second->values.size() == o.values.size();
    for (std::size_t i = 0; ok && i < o.values.size(); ++i) {
      const double a = o.values[i];
      const double b = it->second->values[i];
      ok = std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
    }
    if (!ok) {
      ++bad;
      pass.failures.push_back(o.id + ": differs from the seed-1 reference");
    }
  }
  if (bad > 0) {
    // Slice workloads judge the pass as a whole.
    pass.units_failed = pass.outputs.size() == pass.units
                            ? std::max(pass.units_failed, bad)
                            : pass.units;
  }
}

bool same_outputs(const PassResult& a, const PassResult& b, std::string* why) {
  if (a.outputs.size() != b.outputs.size()) {
    *why = "different number of outputs";
    return false;
  }
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    if (a.outputs[i].id != b.outputs[i].id || a.outputs[i].values != b.outputs[i].values) {
      *why = a.outputs[i].id;
      return false;
    }
  }
  return true;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  std::string mode = "run";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--print-reference") {
      a.mode = "print-reference";
      continue;
    }
    if ((v = next()) == nullptr) return false;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--check-measure" || k == "--list-inputs") {
      a.mode = k.substr(2);
      a.workload = v;
    } else {
      return false;
    }
  }
  return true;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Calls `pass` until the run has used its seconds: it stops when the next
// pass would end more than half a pass after the deadline. So a run lasts
// about --seconds, and always runs at least one pass.
void repeat_passes(double seconds, const std::function<void()>& pass) {
  const std::int64_t t0 = now_ns();
  double last_s = 0;
  do {
    const std::int64_t p0 = now_ns();
    pass();
    last_s = static_cast<double>(now_ns() - p0) * 1e-9;
  } while (static_cast<double>(now_ns() - t0) * 1e-9 + 0.5 * last_s < seconds);
}

// The host is shared, and it switches between a fast and a slow speed
// (about 1.5x apart), for seconds to minutes at a time. A unit's best or
// median time over the passes snaps to one of the two speeds, so across
// runs it jumps. Its mean over the passes moves smoothly with the share of
// the run spent fast. So the run reports the mean pass time, and percentiles
// across units of each unit's mean time over the passes (see README.md,
// Noise).
int run_end_to_end(const Workload& w, const Args& args) {
  std::vector<PassResult> passes;
  repeat_passes(args.seconds, [&] {
    PassContext cx;
    cx.seed = args.seed;
    passes.push_back(w.run(cx));
    std::fprintf(stderr, "pass %zu: %.3f s\n", passes.size(), passes.back().wall_s);
  });

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup;
  double wall_s = 0, frames = 0, run_s = 0;
  for (PassResult& p : passes) {
    if (args.seed == kReferenceSeed) check_reference(w.name, p);
    for (const std::string& f : p.failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
    attempted += p.units;
    failed += p.units_failed;
    setup.push_back(p.build_s + p.settle_s);
    wall_s += p.wall_s / static_cast<double>(passes.size());
    frames += p.frames;
    run_s += p.run_s;
  }
  // Every pass runs the same units in the same order.
  std::vector<double> unit_ms;
  for (std::size_t u = 0; u < passes.front().unit_ms.size(); ++u) {
    double sum = 0, n = 0;
    for (const PassResult& p : passes) {
      if (u < p.unit_ms.size() && !std::isnan(p.unit_ms[u])) {
        sum += p.unit_ms[u];
        n += 1;
      }
    }
    if (n > 0) unit_ms.push_back(sum / n);
  }
  std::fprintf(stderr, "%s seed=%llu: %zu passes of %zu units\n", w.name,
               static_cast<unsigned long long>(args.seed), passes.size(), unit_ms.size());
  const std::vector<Metric> metrics = {
      {"wall_s", wall_s, "s"},
      {"setup_s", median(setup), "s"},
      {"unit_ms_p50", percentile(unit_ms, 0.5), "ms"},
      {"unit_ms_p90", percentile(unit_ms, 0.9), "ms"},
      {"frames_per_s", ratio(frames, run_s), "frames/s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

int run_traced(const Workload& w, const Args& args) {
  Tracer tracer;
  std::vector<PassResult> plain, traced;
  std::vector<std::string> unit_ids;
  repeat_passes(args.seconds, [&] {
    PassContext cx;
    cx.seed = args.seed;
    plain.push_back(w.run(cx));
    cx.tracer = &tracer;
    traced.push_back(w.run(cx));
    if (unit_ids.empty() && traced.back().outputs.size() == traced.back().units) {
      for (const UnitOutput& o : traced.back().outputs) unit_ids.push_back(o.id);
    }
  });

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    for (PassResult* p : {&plain[i], &traced[i]}) {
      if (args.seed == kReferenceSeed) check_reference(w.name, *p);
      for (const std::string& f : p->failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
      attempted += p->units;
      failed += p->units_failed;
    }
    std::string why;
    if (!same_outputs(plain[i], traced[i], &why)) {
      std::fprintf(stderr, "FAIL tracing changed a simulated output: %s\n", why.c_str());
      correct = false;
    }
  }

  const double n = static_cast<double>(traced.size());
  LayerCounts L;  // per-pass means of the traced passes' counts
  std::vector<double> plain_wall, traced_wall, plain_run, build, settle;
  double traced_run_s = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    for (const auto& [k, v] : traced[i].layers.sum) L.add(k, v / n);
    for (const auto& [k, v] : traced[i].layers.max) L.keep_max(k, v);
    plain_wall.push_back(plain[i].wall_s);
    traced_wall.push_back(traced[i].wall_s);
    plain_run.push_back(plain[i].run_s);
    build.push_back(plain[i].build_s);
    settle.push_back(plain[i].settle_s);
    traced_run_s += traced[i].run_s / n;
  }
  auto self_s = [&](SpanKind k) { return static_cast<double>(tracer.self_ns(k)) * 1e-9 / n; };
  auto per_frame_ns = [&](SpanKind k) {
    return ratio(static_cast<double>(tracer.self_ns(k)), static_cast<double>(tracer.count(k)));
  };
  auto replay = [&](const std::string& name) {
    return ratio(L.get(name + ".ns"), L.get(name + ".ops"));
  };
  const double frames = L.get("link.frames");
  const double events = L.get("sim.events");

  // Reconciliation: the spliced self times plus the residual (the self time
  // of the run_until spans) against the run_until time measured around the
  // calls. The sum is an identity (self times add up to the root spans, which
  // are those calls), so the tolerance only catches gross bookkeeping errors;
  // the real test is that no spliced span ran outside a timed run_until.
  double spans_s = 0;
  for (std::size_t k = 0; k < kSpanKinds; ++k) spans_s += self_s(static_cast<SpanKind>(k));
  const double reconcile = ratio(std::fabs(spans_s - traced_run_s), traced_run_s);
  if (reconcile > 0.03 || tracer.orphan_ns() > 0) {
    std::fprintf(stderr, "FAIL spans do not reconcile with run_until: %.4f (orphans %lld ns)\n",
                 reconcile, static_cast<long long>(tracer.orphan_ns()));
    correct = false;
  }

  std::uint64_t flood_frames = 0;
  const double flood_ns = flood_ns_per_frame(w.name, args.seed, &flood_frames);
  const double timeline = timeline_overhead(w.name, args.seed);
  if (timeline < 0) {
    std::fprintf(stderr, "FAIL record_flood_timeline and measure_* disagree\n");
    correct = false;
  }

  const std::vector<Metric> metrics = {
      {"sim.events", events, "count"},
      {"sim.events_per_s", ratio(events, median(plain_run)), "1/s"},
      {"sim.events_per_frame", ratio(events, frames), "ratio"},
      {"sim.run_s", traced_run_s, "s"},
      {"sim.residual_s", self_s(SpanKind::kRun), "s"},
      {"sim.pending_max", L.get("sim.pending_max"), "count"},
      {"link.frames", frames, "count"},
      {"link.tx_drops", L.get("link.tx_drops"), "count"},
      {"link.switch_s", self_s(SpanKind::kSwitch), "s"},
      {"link.switch_ns_per_frame", per_frame_ns(SpanKind::kSwitch), "ns"},
      {"firewall.nic_rx_s", self_s(SpanKind::kNicRx), "s"},
      {"firewall.rules_per_frame",
       ratio(L.get("fw.rules_traversed"), L.get("fw.frames_processed")), "rules"},
      {"firewall.rx_ring_drops", L.get("firewall.rx_ring_drops"), "count"},
      {"firewall.lockup_drops", L.get("firewall.lockup_drops"), "count"},
      {"firewall.useful_ratio", ratio(L.get("fw.rx_allowed"), L.get("fw.rx_admitted")),
       "ratio"},
      {"firewall.cpu_busy_share", ratio(L.get("fw.cpu_busy_s"), L.get("fw.sim_s")), "ratio"},
      {"firewall.flow_hit_ratio", ratio(L.get("fw.flow_hits"), L.get("fw.flow_lookups")),
       "ratio"},
      {"firewall.match_ns", replay("firewall.match_ns"), "ns"},
      {"firewall.policy_parse_s", replay("firewall.policy_parse_s") * 1e-9, "s"},
      {"firewall.policy_compile_s", replay("firewall.policy_compile_s") * 1e-9, "s"},
      {"firewall.push_bytes", L.get("firewall.push_bytes"), "bytes"},
      {"firewall.policy_codec_ns_per_kib", replay("firewall.policy_codec_ns_per_kib"),
       "ns/KiB"},
      {"firewall.push_t100_sim_s", L.get("firewall.push_t100_sim_s"), "s"},
      {"stack.rx_s", self_s(SpanKind::kStackRx), "s"},
      {"stack.rx_ns_per_frame", per_frame_ns(SpanKind::kStackRx), "ns"},
      {"stack.filter_s", self_s(SpanKind::kFilter), "s"},
      {"stack.tcp_segments_sent", L.get("stack.tcp_segments_sent"), "count"},
      {"stack.tcp_retransmissions", L.get("stack.tcp_retransmissions"), "count"},
      {"stack.tcp_rst_sent", L.get("stack.tcp_rst_sent"), "count"},
      {"stack.ip_rx_dropped", L.get("stack.ip_rx_dropped"), "count"},
      {"net.pool_allocs_per_frame", ratio(L.get("net.pool_allocs"), frames), "ratio"},
      {"net.parse_ns", replay("net.parse_ns"), "ns"},
      {"net.checksum_ns", replay("net.checksum_ns"), "ns"},
      {"apps.flood_frames", L.get("apps.flood_frames"), "count"},
      {"apps.flood_ns_per_frame", flood_ns, "ns"},
      {"apps.http_fetches", L.get("apps.http_fetches"), "count"},
      {"crypto.vpg_frames", L.get("crypto.vpg_frames"), "count"},
      {"crypto.aead_ns_per_kib", replay("crypto.aead_ns_per_kib"), "ns/KiB"},
      {"crypto.hmac_ns_per_kib", replay("crypto.hmac_ns_per_kib"), "ns/KiB"},
      {"core.build_s", median(build), "s"},
      {"core.settle_s", median(settle), "s"},
      {"core.mem_per_host_bytes", L.get("core.mem_per_host_bytes"), "bytes"},
      {"telemetry.timeline_overhead", timeline, "ratio"},
      {"trace.overhead", ratio(median(traced_wall), median(plain_wall)) - 1.0, "ratio"},
      {"trace.reconcile_error", reconcile, "ratio"},
  };
  if (!args.spans.empty()) {
    if (!tracer.write_jsonl(args.spans, unit_ids)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    } else {
      std::fprintf(stderr, "%zu spans written to %s (%llu over the per-unit cap)\n",
                   tracer.records().size(), args.spans.c_str(),
                   static_cast<unsigned long long>(tracer.dropped_records()));
    }
  }
  print_result(correct && failed == 0, attempted, failed, metrics);
  return 0;
}

int print_reference() {
  for (const Workload& w : workloads()) {
    PassContext cx;
    cx.seed = kReferenceSeed;
    const PassResult p = w.run(cx);
    for (const UnitOutput& o : p.outputs) {
      std::printf("{\"%s\", \"%s\", {", w.name, o.id.c_str());
      for (std::size_t i = 0; i < o.values.size(); ++i) {
        std::printf("%s%.17g", i ? ", " : "", o.values[i]);
      }
      std::printf("}},\n");
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The defaults of every engine switch: one simulation thread, the default
  // scheduler and link delivery, no sweep workers.
  for (const char* var : {"BARB_DES_SHARDS", "BARB_SCHED", "BARB_LINK_BATCH", "BARB_JOBS"}) {
    unsetenv(var);
  }
  barb::Logger::instance().set_level(barb::LogLevel::kError);

  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  if (args.mode == "print-reference") return print_reference();
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.mode == "check-measure") {
    const auto bad = check_against_measure(w->name, args.seed);
    for (const std::string& id : bad) std::printf("MISMATCH %s\n", id.c_str());
    std::printf("%zu mismatches\n", bad.size());
    return bad.empty() ? 0 : 1;
  }
  if (args.mode == "list-inputs") {
    std::printf("%s\n", input_digest(w->name, args.seed).c_str());
    return 0;
  }
  return args.trace ? run_traced(*w, args) : run_end_to_end(*w, args);
}
