// The benchmark's four workloads. Each is a batch of units run one after
// another in this process, at one simulation thread with the sharded engine
// off. A pass runs the whole batch once; main.cc repeats passes for the
// requested number of seconds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.h"

namespace perfbench {

// Deterministic counts and replay timings of one pass, keyed by per-layer
// metric name (see README.md). Extensive values are summed over units;
// "*_max" style values take the maximum.
struct LayerCounts {
  std::map<std::string, double> sum;
  std::map<std::string, double> max;
  void add(const std::string& name, double v) { sum[name] += v; }
  void keep_max(const std::string& name, double v) {
    auto [it, fresh] = max.emplace(name, v);
    if (!fresh && v > it->second) it->second = v;
  }
  double get(const std::string& name) const {
    auto it = sum.find(name);
    if (it != sum.end()) return it->second;
    auto mt = max.find(name);
    return mt != max.end() ? mt->second : 0.0;
  }
};

// A unit's simulated outputs, compared against the reference table at the
// default seed and between the traced and untraced pass of a trace run.
struct UnitOutput {
  std::string id;
  std::vector<double> values;
};

struct PassResult {
  double wall_s = 0;    // set-up plus every unit; the checks are not part of it
  double build_s = 0;   // topology/Testbed construction and policy install
  double settle_s = 0;  // settle()/enrollment
  double run_s = 0;     // host time inside the benchmark's run_until calls
  double frames = 0;    // link frames delivered (simulated)
  std::vector<double> unit_ms;  // per unit; NaN for a unit that failed untimed
  std::uint64_t units = 0;  // attempted
  std::uint64_t units_failed = 0;
  std::vector<std::string> failures;
  std::vector<UnitOutput> outputs;
  LayerCounts layers;
};

struct PassContext {
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;  // non-null: spliced, traced pass
};

using WorkloadFn = PassResult (*)(const PassContext&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

const std::vector<Workload>& workloads();

// Host time of the flood generator alone, per frame, for this workload's
// flood configurations (0 when the workload has no flood).
double flood_ns_per_frame(const std::string& workload, std::uint64_t seed,
                          std::uint64_t* frames);

// Host-time ratio of core::record_flood_timeline to the same point through
// core::measure_bandwidth_under_flood (or measure_available_bandwidth when
// the workload has no flood); 0 for the fabric workloads.
double timeline_overhead(const std::string& workload, std::uint64_t seed);

// Replica-faithfulness check: the workload's testbed units run through
// core::measure_* and through the benchmark's own spliceable copy of the
// same calls must give identical results. Returns the mismatches.
std::vector<std::string> check_against_measure(const std::string& workload,
                                               std::uint64_t seed);

// One line per generated input of the workload at this seed: unit ids with
// their simulation seeds, and a digest of the generated policy corpus.
std::string input_digest(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
