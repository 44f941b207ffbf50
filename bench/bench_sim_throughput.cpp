// Event-engine microbenchmark (google-benchmark): the slab/indexed-heap
// EventQueue in two steady-state shapes. Ungated; run it by hand when
// changing sim/event_queue.{hpp,cpp}.
//
//   * Hold/N        — schedule+pop with N events always pending (the
//                     simulator's timer/workload mix),
//   * CancelHeavy/N — every other event is cancelled before it fires (churn
//                     cancelling peer timers).
#include <benchmark/benchmark.h>

#include <cstdint>

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

void BM_EventQueueHold(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::EventQueue q;
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
BENCHMARK(BM_EventQueueHold)->Arg(256)->Arg(4096)->Arg(65536);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::EventQueue q;
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
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(256)->Arg(4096)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
