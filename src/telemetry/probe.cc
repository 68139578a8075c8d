#include "telemetry/probe.h"

#include "util/assert.h"

namespace barb::telemetry {

const ProbeSeries* ProbeRecording::find(const std::string& name,
                                        const std::string& labels) const {
  for (const auto& s : series) {
    if (s.id.name == name && s.id.labels == labels) return &s;
  }
  return nullptr;
}

TimeSeriesProbe::TimeSeriesProbe(sim::Simulation& sim, MetricRegistry& registry,
                                 sim::Duration interval)
    : sim_(sim), registry_(registry), interval_(interval) {
  BARB_ASSERT_MSG(interval.ns() > 0, "probe interval must be positive");
  recording_.interval_s = interval.to_seconds();
}

void TimeSeriesProbe::start() {
  if (running_) return;
  running_ = true;
  sample();
  // One slab record carries the whole recurrence; stop() cancels it.
  next_ = sim_.schedule_every(interval_, [this] { sample(); });
}

void TimeSeriesProbe::stop() {
  running_ = false;
  next_.cancel();
}

void TimeSeriesProbe::sample() {
  const std::size_t n = recording_.timestamps_s.size();
  recording_.timestamps_s.push_back(sim_.now().to_seconds());
  registry_.for_each([&](const MetricRegistry::Entry& entry) {
    auto [it, inserted] = series_index_.try_emplace(entry.id, recording_.series.size());
    if (inserted) {
      ProbeSeries s;
      s.id = entry.id;
      s.kind = entry.kind;
      // Late registration: pad history so all series stay aligned.
      s.values.assign(n, 0.0);
      recording_.series.push_back(std::move(s));
    }
    recording_.series[it->second].values.push_back(entry.sample());
  });
}

}  // namespace barb::telemetry
