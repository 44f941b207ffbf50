// Event-engine throughput (google-benchmark): the slab/indexed-heap
// EventQueue against the pre-refactor binary-heap engine (a verbatim copy in
// legacy_event_queue.hpp), plus a whole-grid wall-clock row. CI pairs the
// BM_EventQueue*/BM_EventQueueLegacy* rows and gates the ratio with
// tools/check_sim_speedup.py (BENCH_sim.json artifact).
//
// Two steady-state shapes per engine:
//   * Hold/N        — schedule+pop with N events always pending (the
//                     simulator's timer/workload mix),
//   * CancelHeavy/N — every other event is cancelled before it fires (churn
//                     cancelling peer timers; the legacy engine pays the
//                     side-table + skim cost here).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "legacy_event_queue.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/sim/event_queue.hpp"
#include "qsa/sim/time.hpp"

namespace {

using namespace qsa;

// Deterministic pseudo-times: enough spread that heap paths are exercised,
// no RNG in the measured loop.
inline sim::SimTime jittered(std::uint64_t i) {
  return sim::SimTime::millis(
      static_cast<std::int64_t>((i * 2654435761ULL) % 100'000));
}

template <typename Queue>
void hold_steady(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Queue q;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    q.schedule(jittered(i), [&sink] { ++sink; });
  }
  std::uint64_t i = n;
  for (auto _ : state) {
    auto fired = q.pop();
    fired.action();
    q.schedule(fired.time + jittered(i++), [&sink] { ++sink; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

template <typename Queue>
void cancel_heavy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Queue q;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    q.schedule(jittered(i), [&sink] { ++sink; });
  }
  std::uint64_t i = n;
  for (auto _ : state) {
    // Two schedules, one cancel, one fire per iteration: a 1:1
    // cancel-to-fire mix at exactly constant population.
    auto fired = q.pop();
    fired.action();
    q.schedule(fired.time + jittered(i++), [&sink] { ++sink; });
    auto doomed = q.schedule(fired.time + jittered(i++), [&sink] { ++sink; });
    q.cancel(doomed);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 2);
}

void BM_EventQueueHold(benchmark::State& state) {
  hold_steady<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueHold)->Arg(256)->Arg(4096)->Arg(65536);

void BM_EventQueueLegacyHold(benchmark::State& state) {
  hold_steady<bench::legacy::EventQueue>(state);
}
BENCHMARK(BM_EventQueueLegacyHold)->Arg(256)->Arg(4096)->Arg(65536);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  cancel_heavy<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(256)->Arg(4096)->Arg(65536);

void BM_EventQueueLegacyCancelHeavy(benchmark::State& state) {
  cancel_heavy<bench::legacy::EventQueue>(state);
}
BENCHMARK(BM_EventQueueLegacyCancelHeavy)->Arg(256)->Arg(4096)->Arg(65536);

// Whole-grid wall-clock: the fig5-shaped workload at a laptop scale. Not
// paired against a legacy row (the library has one engine); the checker
// prints its events/sec as context and CI archives it in BENCH_sim.json.
void BM_GridWallclock(benchmark::State& state) {
  double events = 0;
  for (auto _ : state) {
    harness::GridConfig cfg;
    cfg.seed = 11;
    cfg.peers = 500;
    cfg.min_providers = 10;
    cfg.max_providers = 20;
    cfg.apps.applications = 5;
    cfg.requests.rate_per_min = static_cast<double>(state.range(0));
    cfg.churn.events_per_min = 6;
    cfg.horizon = sim::SimTime::minutes(10);
    harness::GridSimulation grid(cfg);
    const auto r = grid.run();
    benchmark::DoNotOptimize(r.requests);
    events += static_cast<double>(grid.simulator().executed_events());
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GridWallclock)->Arg(60)->Arg(240)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
