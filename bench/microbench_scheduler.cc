// Micro-benchmark: event-engine throughput and steady-state allocations.
//
// Drives a scheduler-shaped workload — hundreds of concurrent self-
// rescheduling event chains with mixed horizons, plus churning far-future
// timers that get cancelled before firing (TCP-retransmit style) — through
// two engines:
//
//   legacy : a faithful in-file replica of the pre-overhaul scheduler
//            (std::function callbacks, one make_shared<bool> cancellation
//            flag per event, binary heap) — the baseline the overhaul is
//            measured against;
//   heap   : sim::Scheduler, the slab-pooled heap with InlineCallback.
//
// Callbacks carry a 40-byte capture, matching the simulator's real frame-
// delivery closures (packet handle + endpoint context): big enough that
// std::function heap-allocates it, small enough that InlineCallback stores
// it inline. The binary's global operator new/delete count every heap
// allocation, so the steady-state measurement window can assert *zero*
// allocations per scheduled event on the new engine.
//
// The two engines run in kReps legacy/heap pairs on fresh schedulers. Within
// a pair the measured window alternates between the engines in short slices,
// so both see the same host load; the speedup is the median of the per-pair
// ratios, so one noisy repetition cannot flip the gate.
//
// Gates (the bench exits nonzero, so the ctest run is a regression gate):
//   median heap/legacy events/sec >= 2x
//   heap steady-state allocations per event == 0 in every repetition
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "bench_common.h"
#include "sim/scheduler.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Single-threaded binary; plain counters suffice.

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using barb::sim::Duration;
using barb::sim::TimePoint;

// ---------------------------------------------------------------------------
// The pre-overhaul engine, reproduced verbatim (minus the unused bits) so the
// speedup is measured against what the simulator actually ran, not a straw
// man. See git history of src/sim/scheduler.h.

class LegacyHandle {
 public:
  LegacyHandle() = default;
  explicit LegacyHandle(std::weak_ptr<bool> state) : state_(std::move(state)) {}
  void cancel() {
    if (auto s = state_.lock()) *s = true;
    state_.reset();
  }

 private:
  std::weak_ptr<bool> state_;
};

class LegacyScheduler {
 public:
  using Callback = std::function<void()>;

  LegacyHandle schedule_at(TimePoint at, Callback fn) {
    auto cancelled = std::make_shared<bool>(false);
    LegacyHandle handle{std::weak_ptr<bool>(cancelled)};
    heap_.push_back(Entry{at, next_seq_++, std::move(fn), std::move(cancelled)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return handle;
  }

  TimePoint now() const { return now_; }

  bool run_one() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Entry e = std::move(heap_.back());
      heap_.pop_back();
      if (*e.cancelled) continue;
      now_ = e.at;
      e.fn();
      return true;
    }
    return false;
  }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Workload: kChains self-rescheduling chains with per-chain xorshift delays
// from sub-microsecond to ~1 ms, plus a far-future cancelled-before-firing
// timer per chain (tombstone churn). Identical event sequence on every
// engine.

constexpr std::uint32_t kChains = 256;

template <class Sched, class Handle>
class Workload {
 public:
  explicit Workload(Sched& sched) : sched_(sched) {
    chains_.resize(kChains);
    timers_.resize(kChains);
    for (std::uint32_t c = 0; c < kChains; ++c) {
      chains_[c].rng = 0x9e3779b97f4a7c15ull ^ (c * 0xbf58476d1ce4e5b9ull);
      spawn(c);
    }
  }

  // Runs until `target` events have executed (across all chains).
  void run_until_count(std::uint64_t target) {
    while (executed_ < target && sched_.run_one()) {
    }
  }

  std::uint64_t executed() const { return executed_; }

 private:
  struct Chain {
    std::uint64_t rng = 0;
    std::uint64_t fires = 0;
  };

  // Capture payload sized like the simulator's frame-delivery closures:
  // exceeds std::function's small-object buffer, fits InlineCallback's.
  struct Payload {
    Workload* w;
    std::uint32_t chain;
    unsigned char packet_ctx[28];
  };
  static_assert(sizeof(Payload) == 40);

  void spawn(std::uint32_t c) {
    Chain& ch = chains_[c];
    ch.rng ^= ch.rng << 13;
    ch.rng ^= ch.rng >> 7;
    ch.rng ^= ch.rng << 17;
    // Mixed horizons: mostly a few microseconds, occasionally a ~1 ms hop.
    const std::uint64_t r = ch.rng;
    Duration delay = Duration::nanoseconds(static_cast<std::int64_t>(r % 4096));
    if ((r & 0xf) == 0) {
      delay = Duration::nanoseconds(static_cast<std::int64_t>(1u << 20) +
                                    static_cast<std::int64_t>(r % 1024));
    }
    Payload p{this, c, {}};
    auto h = sched_.schedule_at(sched_.now() + delay, [p] { p.w->fire(p.chain); });
    static_cast<void>(h);
  }

  void fire(std::uint32_t c) {
    ++executed_;
    Chain& ch = chains_[c];
    ++ch.fires;
    // Retransmit-timer churn: replace this chain's pending far-future timer
    // with a fresh one; the old one never fires.
    if ((ch.fires & 63) == 0) {
      timers_[c].cancel();
      Payload p{this, c, {}};
      timers_[c] = sched_.schedule_at(
          sched_.now() + Duration::nanoseconds(std::int64_t{1} << 26),
          [p] { ++p.w->timers_fired_; });
    }
    spawn(c);
  }

  Sched& sched_;
  std::vector<Chain> chains_;
  std::vector<Handle> timers_;
  std::uint64_t executed_ = 0;
  std::uint64_t timers_fired_ = 0;
};

struct RunResult {
  double events_per_sec = 0;
  double allocs_per_event = 0;
};

// Seconds and allocations spent by one engine across its measured slices.
struct SliceTotals {
  double secs = 0;
  std::uint64_t allocs = 0;
};

template <class W>
void run_slice(W& w, std::uint64_t target, SliceTotals& totals) {
  const std::uint64_t allocs_before = g_alloc_count;
  const auto t0 = std::chrono::steady_clock::now();
  w.run_until_count(target);
  const auto t1 = std::chrono::steady_clock::now();
  totals.allocs += g_alloc_count - allocs_before;
  totals.secs += std::chrono::duration<double>(t1 - t0).count();
}

RunResult to_result(const SliceTotals& t, std::uint64_t measured) {
  RunResult r;
  const double n = static_cast<double>(measured);
  r.events_per_sec = t.secs > 0 ? n / t.secs : 0;
  r.allocs_per_event = static_cast<double>(t.allocs) / n;
  return r;
}

// Runs the legacy and the heap engine side by side on fresh schedulers: both
// warm up, then the measured window is cut into short slices that alternate
// between the engines (and alternate which engine goes first), so a change in
// host load during the run lands on both engines alike instead of skewing
// their ratio.
std::pair<RunResult, RunResult> run_pair(std::uint64_t warmup,
                                         std::uint64_t measured) {
  constexpr std::uint64_t kSlice = 20'000;
  LegacyScheduler legacy;
  barb::sim::Scheduler heap;
  Workload<LegacyScheduler, LegacyHandle> lw(legacy);
  Workload<barb::sim::Scheduler, barb::sim::EventHandle> hw(heap);
  lw.run_until_count(warmup);
  hw.run_until_count(warmup);
  SliceTotals lt, ht;
  bool legacy_first = true;
  for (std::uint64_t done = 0; done < measured; done += kSlice) {
    const std::uint64_t target = warmup + std::min(done + kSlice, measured);
    if (legacy_first) {
      run_slice(lw, target, lt);
      run_slice(hw, target, ht);
    } else {
      run_slice(hw, target, ht);
      run_slice(lw, target, lt);
    }
    legacy_first = !legacy_first;
  }
  return {to_result(lt, lw.executed() - warmup), to_result(ht, hw.executed() - warmup)};
}

}  // namespace

int main() {
  using namespace barb;
  using namespace barb::core;
  bench::print_header("Micro-benchmark: event engine",
                      "scheduler throughput / allocation gate (not a paper figure)");
  const auto opt = bench::bench_options();

  telemetry::BenchArtifact artifact("microbench_scheduler");
  bench::set_common_meta(artifact, opt);
  artifact.set_meta("chains", static_cast<double>(kChains));

  // The warmup must carry every structure past its steady-state high-water
  // mark (slab chunks, heap capacity, tombstone peak) so that the measured
  // window can assert exactly zero allocations.
  const std::uint64_t warmup = 1'000'000;
  const std::uint64_t measured = bench::fast_mode() ? 1'000'000 : 4'000'000;
  constexpr int kReps = 3;

  std::vector<double> legacy_eps, heap_eps, speedups;
  double heap_allocs = 0.0;
  double legacy_allocs = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto [legacy_r, heap_r] = run_pair(warmup, measured);
    legacy_eps.push_back(legacy_r.events_per_sec);
    heap_eps.push_back(heap_r.events_per_sec);
    speedups.push_back(legacy_r.events_per_sec > 0
                           ? heap_r.events_per_sec / legacy_r.events_per_sec
                           : 0.0);
    legacy_allocs = std::max(legacy_allocs, legacy_r.allocs_per_event);
    heap_allocs = std::max(heap_allocs, heap_r.allocs_per_event);
    std::fprintf(stderr, "(rep %d: legacy %.0f ev/s, heap %.0f ev/s, %.2fx)\n",
                 rep + 1, legacy_r.events_per_sec, heap_r.events_per_sec,
                 speedups.back());
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double speedup = median(speedups);

  TextTable table({"Engine", "events/s (median)", "allocs/event (max)"});
  table.add_row({"legacy heap (shared_ptr+std::function)",
                 fmt_int(median(legacy_eps)), fmt(legacy_allocs)});
  table.add_row({"slab heap (sim::Scheduler)", fmt_int(median(heap_eps)),
                 fmt(heap_allocs)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("heap vs legacy speedup (median of %d pairs): %.2fx\n\n", kReps,
              speedup);
  bench::maybe_write_csv("microbench_scheduler", table);

  artifact.add_point("events_per_sec_legacy", 0, median(legacy_eps));
  artifact.add_point("events_per_sec_heap", 0, median(heap_eps));
  artifact.add_point("speedup_vs_legacy", 0, speedup);
  artifact.add_point("allocs_per_event_legacy", 0, legacy_allocs);
  artifact.add_point("allocs_per_event_heap", 0, heap_allocs);
  bench::write_artifact(artifact);

  bool ok = true;
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: heap speedup %.2fx < 2.0x over legacy engine\n",
                 speedup);
    ok = false;
  }
  if (heap_allocs != 0.0) {
    std::fprintf(stderr,
                 "FAIL: heap performed %.6f heap allocations per steady-state "
                 "event (want exactly 0)\n",
                 heap_allocs);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("PASS: %.2fx >= 2.0x vs legacy, 0 steady-state allocs/event\n",
              speedup);
  return 0;
}
