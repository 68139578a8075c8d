#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/random.h"
#include "sim/simulation.h"

namespace barb::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint::from_ns(30), [&] { order.push_back(3); });
  s.schedule_at(TimePoint::from_ns(10), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::from_ns(20), [&] { order.push_back(2); });
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().ns(), 30);
}

TEST(Scheduler, SameTimeEventsFireInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(5);
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  while (s.run_one()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Regression for the std::push_heap/pop_heap rewrite (the old
// priority_queue needed a const_cast to move from top()): FIFO tie-break
// must hold even when same-time events are interleaved with other times,
// cancellations, and events scheduled from inside callbacks — the shapes
// that actually exercise sift-up/sift-down in the heap.
TEST(Scheduler, TieBreakSurvivesInterleavedSchedulingAndCancellation) {
  Scheduler s;
  std::vector<int> order;
  const auto t5 = TimePoint::from_ns(5);
  const auto t9 = TimePoint::from_ns(9);
  s.schedule_at(t9, [&] { order.push_back(100); });
  s.schedule_at(t5, [&] { order.push_back(0); });
  auto cancelled = s.schedule_at(t5, [&] { order.push_back(-1); });
  s.schedule_at(t5, [&] {
    order.push_back(1);
    // Scheduled mid-execution for the *same* instant: runs after every
    // entry queued for t5 before it, in scheduling order.
    s.schedule_at(t5, [&] { order.push_back(3); });
  });
  s.schedule_at(TimePoint::from_ns(2), [&] { order.push_back(-2); });
  s.schedule_at(t5, [&] { order.push_back(2); });
  s.schedule_at(t9, [&] { order.push_back(101); });
  cancelled.cancel();
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{-2, 0, 1, 2, 3, 100, 101}));
  EXPECT_EQ(s.now().ns(), 9);
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Scheduler, CancelledEventDoesNotRun) {
  Scheduler s;
  bool ran = false;
  auto h = s.schedule_at(TimePoint::from_ns(10), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  while (s.run_one()) {
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  auto h = s.schedule_at(TimePoint::from_ns(1), [] {});
  while (s.run_one()) {
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or disturb anything
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.tombstone_count(), 0u);
}

TEST(Scheduler, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Scheduler, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule_at(s.now() + Duration::nanoseconds(1), chain);
  };
  s.schedule_at(TimePoint::from_ns(0), chain);
  while (s.run_one()) {
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now().ns(), 4);
}

// An event scheduled from inside a callback for the very instant being
// dispatched runs after everything already queued for that instant.
TEST(Scheduler, ScheduleFromWithinCallbackAtSameInstant) {
  Scheduler s;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(100);
  s.schedule_at(t, [&] {
    order.push_back(0);
    s.schedule_at(t, [&] { order.push_back(2); });
  });
  s.schedule_at(t, [&] { order.push_back(1); });
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, CancelDuringDispatchOfSameInstant) {
  Scheduler s;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(7);
  EventHandle victim;
  s.schedule_at(t, [&] {
    order.push_back(0);
    victim.cancel();  // same-instant later event must not run
  });
  victim = s.schedule_at(t, [&] { order.push_back(1); });
  s.schedule_at(t, [&] { order.push_back(2); });
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(s.events_executed(), 2u);
}

// A handle whose record was recycled for an unrelated event must stay inert:
// cancelling it must not kill the new occupant.
TEST(Scheduler, StaleHandleDoesNotCancelRecycledRecord) {
  Scheduler s;
  auto stale = s.schedule_at(TimePoint::from_ns(1), [] {});
  while (s.run_one()) {
  }
  bool ran = false;
  auto fresh = s.schedule_at(TimePoint::from_ns(10), [&] { ran = true; });
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  while (s.run_one()) {
  }
  EXPECT_TRUE(ran);
}

TEST(Scheduler, CancelledEventsCompact) {
  Scheduler s;
  std::vector<EventHandle> handles;
  const auto far = TimePoint::from_ns(std::int64_t{1} << 30);
  handles.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(s.schedule_at(far + Duration::nanoseconds(i), [] {}));
  }
  EXPECT_EQ(s.pending_count(), 1000u);
  for (auto& h : handles) h.cancel();
  EXPECT_EQ(s.pending_count(), 0u);
  // Compaction must have reaped the bulk of the tombstones rather than
  // letting all 1000 linger until dispatch.
  EXPECT_LT(s.tombstone_count(), 128u);
  EXPECT_GE(s.stats().compactions, 1u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, PeriodicEventReschedulesWithoutNewRecord) {
  Scheduler s;
  int fires = 0;
  EventHandle h = s.schedule_every(TimePoint::from_ns(10), Duration::nanoseconds(10),
                                   [&] { ++fires; });
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(s.run_one());
  EXPECT_EQ(fires, 50);
  EXPECT_EQ(s.now().ns(), 500);
  EXPECT_TRUE(h.pending());
  // One periodic recurrence occupies exactly one slab record.
  EXPECT_EQ(s.stats().slab_records, 128u);
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(s.run_one());
  EXPECT_EQ(fires, 50);
}

TEST(Scheduler, PeriodicCancelFromOwnCallbackStopsRecurrence) {
  Scheduler s;
  int fires = 0;
  EventHandle h;
  h = s.schedule_every(TimePoint::from_ns(5), Duration::nanoseconds(5), [&] {
    if (++fires == 3) h.cancel();
  });
  while (s.run_one()) {
  }
  EXPECT_EQ(fires, 3);
}

TEST(Scheduler, PendingCountExcludesTombstones) {
  Scheduler s;
  auto near = s.schedule_at(TimePoint::from_ns(10), [] {});
  auto far = s.schedule_at(TimePoint::from_ns(std::int64_t{1} << 30), [] {});
  EXPECT_EQ(s.pending_count(), 2u);
  EXPECT_EQ(s.tombstone_count(), 0u);
  far.cancel();  // stays in the heap as a tombstone
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.tombstone_count(), 1u);
  EXPECT_EQ(s.next_event_time().ns(), 10);
  near.cancel();
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.tombstone_count(), 2u);
  EXPECT_TRUE(s.empty());
  // Dispatch reaps the tombstones without running anything.
  EXPECT_FALSE(s.run_one());
  EXPECT_EQ(s.tombstone_count(), 0u);
  EXPECT_EQ(s.events_executed(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized trace test: a generated mix of one-shot, periodic, and
// cancelled events runs through sim::Scheduler and through a brute-force
// reference that picks the live event with the smallest (time, seq) by
// linear scan. Dispatch sequences, clocks, and live counts must agree.
// Actions recursively schedule more work, cancel remembered events (including
// periodic ones from inside their own callback), and the run advances in
// run_until-style slices so next_event_time() and advance_to() take part.

// The reference engine. Tokens index `events`; nothing is ever removed, so a
// stale token simply finds its event no longer live.
class ReferenceScheduler {
 public:
  using Token = std::size_t;

  Token schedule(TimePoint at, Duration period, std::function<void()> fn) {
    events_.push_back(Event{at, next_seq_++, period, true, std::move(fn)});
    return events_.size() - 1;
  }
  void cancel(Token t) { events_[t].live = false; }

  TimePoint now() const { return now_; }
  bool empty() const { return pending_count() == 0; }
  std::size_t pending_count() const {
    std::size_t n = 0;
    for (const Event& e : events_) n += e.live && !e.running ? 1 : 0;
    return n;
  }
  TimePoint next_event_time() const { return events_[earliest()].at; }
  void advance_to(TimePoint t) { now_ = t; }

  bool run_one() {
    if (empty()) return false;
    const std::size_t i = earliest();
    now_ = events_[i].at;
    events_[i].running = true;
    auto fn = events_[i].fn;  // the callback may grow `events_`
    fn();
    Event& e = events_[i];
    e.running = false;
    if (e.live && e.period.ns() > 0) {
      e.at = e.at + e.period;
      e.seq = next_seq_++;
    } else {
      e.live = false;
    }
    return true;
  }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    Duration period;
    bool live;
    std::function<void()> fn;
    bool running = false;
  };

  std::size_t earliest() const {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      if (!e.live || e.running) continue;
      if (best == events_.size() || e.at < events_[best].at ||
          (e.at == events_[best].at && e.seq < events_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  TimePoint now_ = TimePoint::origin();
};

// sim::Scheduler behind the same interface.
class EngineUnderTest {
 public:
  using Token = EventHandle;

  template <typename F>
  Token schedule(TimePoint at, Duration period, F fn) {
    return period.ns() > 0 ? sched_.schedule_every(at, period, std::move(fn))
                           : sched_.schedule_at(at, std::move(fn));
  }
  void cancel(Token t) { t.cancel(); }

  TimePoint now() const { return sched_.now(); }
  bool empty() const { return sched_.empty(); }
  std::size_t pending_count() const { return sched_.pending_count(); }
  TimePoint next_event_time() { return sched_.next_event_time(); }
  void advance_to(TimePoint t) { sched_.advance_to(t); }
  bool run_one() { return sched_.run_one(); }

 private:
  Scheduler sched_;
};

struct Dispatch {
  std::uint64_t id;
  std::int64_t at_ns;
  bool operator==(const Dispatch&) const = default;
};

template <class Engine>
class RandomTrace {
 public:
  explicit RandomTrace(std::uint64_t seed) : rng_(seed) {}

  // Runs the trace in `slices` run_until-style slices of `slice` each, then
  // drains. `pending_after_slice` records the live count at every boundary.
  void run(int seed_events, int budget, int slices, Duration slice) {
    budget_ = budget;
    for (int i = 0; i < seed_events; ++i) spawn();
    TimePoint until = TimePoint::origin();
    for (int k = 0; k < slices; ++k) {
      until = until + slice;
      while (!engine.empty() && engine.next_event_time() <= until) {
        engine.run_one();
      }
      if (engine.now() < until) engine.advance_to(until);
      pending_after_slice.push_back(engine.pending_count());
    }
    while (engine.run_one()) {
    }
  }

  Engine engine;
  std::vector<Dispatch> dispatched;
  std::vector<std::size_t> pending_after_slice;

 private:
  Duration random_delay() {
    switch (rng_.uniform(5)) {
      case 0: return Duration::zero();  // same instant
      case 1: return Duration::nanoseconds(static_cast<std::int64_t>(rng_.uniform(8)));
      case 2: return Duration::nanoseconds(static_cast<std::int64_t>(rng_.uniform(1 << 12)));
      case 3: return Duration::nanoseconds(static_cast<std::int64_t>(rng_.uniform(1 << 20)));
      default:
        return Duration::nanoseconds(static_cast<std::int64_t>(rng_.uniform(1u << 26)));
    }
  }

  void spawn() {
    const std::uint64_t id = tokens_.size();
    const TimePoint at = engine.now() + random_delay();
    Duration period = Duration::zero();
    if (rng_.uniform(8) == 0) {
      period = Duration::nanoseconds(1 + static_cast<std::int64_t>(rng_.uniform(1 << 16)));
      periodic_.push_back(id);
    }
    tokens_.push_back(engine.schedule(at, period, [this, id] { on_fire(id); }));
    if (rng_.uniform(4) == 0) cancellable_.push_back(id);
  }

  void on_fire(std::uint64_t id) {
    dispatched.push_back(Dispatch{id, engine.now().ns()});
    const int children = static_cast<int>(rng_.uniform(3));
    for (int i = 0; i < children && budget_ > 0; ++i, --budget_) spawn();
    if (!cancellable_.empty() && rng_.uniform(3) == 0) {
      const auto idx = static_cast<std::size_t>(rng_.uniform(cancellable_.size()));
      engine.cancel(tokens_[cancellable_[idx]]);
      cancellable_.erase(cancellable_.begin() + static_cast<long>(idx));
    }
    // Periodic events stop themselves now and then, and all of them stop
    // once the budget is spent so the trace terminates.
    const bool is_periodic =
        std::find(periodic_.begin(), periodic_.end(), id) != periodic_.end();
    if (is_periodic && (budget_ == 0 || rng_.uniform(16) == 0)) {
      engine.cancel(tokens_[id]);
    }
  }

  Random rng_;
  int budget_ = 0;
  std::vector<typename Engine::Token> tokens_;  // indexed by event id
  std::vector<std::uint64_t> cancellable_;
  std::vector<std::uint64_t> periodic_;
};

// Runs the same seeded trace through sim::Scheduler and the reference, in
// `slices` run_until-style slices of 250 us (0 = one straight drain), and
// requires identical dispatch sequences, slice-boundary live counts and clocks.
void expect_trace_matches_reference(int slices) {
  for (std::uint64_t seed : {1u, 2u, 3u, 12345u}) {
    RandomTrace<EngineUnderTest> engine(seed);
    RandomTrace<ReferenceScheduler> reference(seed);
    engine.run(/*seed_events=*/64, /*budget=*/3000, slices,
               Duration::microseconds(250));
    reference.run(/*seed_events=*/64, /*budget=*/3000, slices,
                  Duration::microseconds(250));
    ASSERT_GT(engine.dispatched.size(), 3000u) << "seed " << seed;
    ASSERT_EQ(engine.dispatched.size(), reference.dispatched.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < engine.dispatched.size(); ++i) {
      ASSERT_EQ(engine.dispatched[i], reference.dispatched[i])
          << "seed " << seed << " diverged at dispatch " << i;
    }
    EXPECT_EQ(engine.pending_after_slice, reference.pending_after_slice)
        << "seed " << seed;
    EXPECT_EQ(engine.engine.now(), reference.engine.now()) << "seed " << seed;
    EXPECT_TRUE(engine.engine.empty());
  }
}

TEST(Scheduler, RandomTraceMatchesReferenceOrder) {
  expect_trace_matches_reference(/*slices=*/200);
}

// The same traces dispatched by run_one() alone, without next_event_time()
// or advance_to() in between.
TEST(Scheduler, RandomTraceDrainMatchesReferenceOrder) {
  expect_trace_matches_reference(/*slices=*/0);
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule(Duration::milliseconds(10), [&] { fired.push_back(1); });
  sim.schedule(Duration::milliseconds(30), [&] { fired.push_back(2); });
  sim.run_until(TimePoint::origin() + Duration::milliseconds(20));
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::milliseconds(20));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(Simulation, EventAtExactBoundaryRuns) {
  Simulation sim;
  bool ran = false;
  sim.schedule(Duration::seconds(1), [&] { ran = true; });
  sim.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_TRUE(ran);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(Duration::nanoseconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  sim.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunForAdvancesRelativeToNow) {
  Simulation sim;
  sim.run_for(Duration::seconds(2));
  EXPECT_EQ(sim.now().to_seconds(), 2.0);
  sim.run_for(Duration::seconds(3));
  EXPECT_EQ(sim.now().to_seconds(), 5.0);
}

}  // namespace
}  // namespace barb::sim
