// Live time-series recorder: named sim-time series sampled on a fixed
// window while the simulation runs, built on qsa::metrics::TimeSeries and
// streamed row-by-row through a MetricSink.
//
// Two feeding styles:
//   * track(name, probe): the probe is polled once per sample() tick (the
//     harness's --obs-window-ms event), in registration order — used for
//     instantaneous state like event-queue depth, replica counts or cache
//     hit ratios.
//   * push(name, now, value): the producer computes a windowed value itself
//     (e.g. the harness's windowed ψ) and records it directly.
//
// Determinism: registration order, poll order and value computation are all
// functions of the (seeded, single-threaded) simulation, so the recorded
// series — and the CSV row stream a sink sees — are byte-identical across
// runs and ExperimentRunner thread counts. Names must point at static
// storage; the recorder never copies name strings.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "qsa/metrics/timeseries.hpp"
#include "qsa/sim/time.hpp"
#include "qsa/util/inplace_function.hpp"

namespace qsa::obs {

class MetricSink;

class LiveSeries {
 public:
  using Probe = util::InplaceFunction<double(), 32>;

  /// Attaches the streaming row destination (not owned); rows already
  /// recorded are not replayed.
  void set_sink(MetricSink* sink) noexcept { sink_ = sink; }

  /// Registers a polled series. `name` must outlive the recorder.
  void track(std::string_view name, Probe probe);

  /// Records one sample directly (windowed values the producer computes).
  void push(std::string_view name, sim::SimTime now, double value);

  /// Polls every tracked probe once, in registration order.
  void sample(sim::SimTime now);

  /// The recorded series for `name`, or nullptr when nothing was recorded.
  [[nodiscard]] const metrics::TimeSeries* series(
      std::string_view name) const noexcept;

  [[nodiscard]] std::size_t series_count() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] std::uint64_t samples_recorded() const noexcept {
    return samples_;
  }

  /// All recorded rows as `series,time_ms,value` CSV (header included), in
  /// record order — identical to what a StringMetricSink attached from the
  /// start would hold.
  [[nodiscard]] std::string csv() const;

 private:
  struct Entry {
    std::string_view name;
    Probe probe;  ///< empty for push-only series
    metrics::TimeSeries data;
  };

  Entry& entry_for(std::string_view name);

  MetricSink* sink_ = nullptr;
  /// A handful of named series; linear scan, registration-ordered.
  std::vector<Entry> entries_;
  /// Chronological (series, sample) log so csv() replays record order.
  std::vector<std::pair<std::size_t, metrics::Sample>> rows_;
  std::uint64_t samples_ = 0;
};

}  // namespace qsa::obs
