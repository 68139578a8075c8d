// Simulation context: clock, scheduler, and deterministic RNG.
//
// Every simulated component holds a reference to one Simulation and schedules
// all its activity through it. One Simulation == one isolated testbed run.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/random.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace barb::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return scheduler_.now(); }

  // The simulation-wide RNG stream. Draw order is part of the deterministic
  // timeline. Fault injectors have their own per-port streams.
  Random& rng() { return rng_; }
  Scheduler& scheduler() { return scheduler_; }

  // Schedules `fn` after `delay` (>= 0) of simulated time.
  EventHandle schedule(Duration delay, Scheduler::Callback fn) {
    return scheduler_.schedule_at(now() + delay, std::move(fn));
  }

  EventHandle schedule_at(TimePoint at, Scheduler::Callback fn) {
    return scheduler_.schedule_at(at, std::move(fn));
  }

  // Schedules `fn` every `period`, first firing one period from now. The
  // recurrence reuses a single slab record (no per-tick allocation); cancel
  // the returned handle to stop it.
  EventHandle schedule_every(Duration period, Scheduler::Callback fn) {
    return scheduler_.schedule_every(now() + period, period, std::move(fn));
  }

  // Runs until the event queue drains or `stop()` is called.
  void run() {
    stopped_ = false;
    while (!stopped_ && scheduler_.run_one()) {
    }
  }

  // Runs events with timestamps <= `until`, then sets the clock to `until`.
  void run_until(TimePoint until) {
    stopped_ = false;
    while (!stopped_ && !scheduler_.empty() &&
           scheduler_.next_event_time() <= until) {
      scheduler_.run_one();
    }
    if (!stopped_ && scheduler_.now() < until) scheduler_.advance_to(until);
  }

  void run_for(Duration d) { run_until(now() + d); }

  // Stops the run loop after the current event returns.
  void stop() { stopped_ = true; }
  bool stop_requested() const { return stopped_; }

  std::uint64_t events_executed() const { return scheduler_.events_executed(); }

 private:
  Scheduler scheduler_;
  Random rng_;
  bool stopped_ = false;
};

}  // namespace barb::sim
