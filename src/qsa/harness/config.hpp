// Configuration of one grid simulation, defaulted to the paper's Section 4.1
// setup (10^4 peers, 10 applications, 10-20 instances/service, 40-80
// providers/instance, M = 100, ...).
#pragma once

#include <cstdint>
#include <string>

#include "qsa/core/aggregate.hpp"
#include "qsa/engine/engine.hpp"
#include "qsa/fault/fault.hpp"
#include "qsa/net/network.hpp"
#include "qsa/replica/config.hpp"
#include "qsa/sim/time.hpp"
#include "qsa/workload/apps.hpp"
#include "qsa/workload/churn.hpp"
#include "qsa/workload/generator.hpp"

namespace qsa::harness {

/// The algorithm under test is an engine-level concept (the serving facade
/// constructs it with or without a simulation); the harness re-exports it
/// so existing configs keep reading naturally.
using AlgorithmKind = engine::AlgorithmKind;
using engine::to_string;

/// Which P2P lookup substrate the grid runs on. Section 3.2 names "Chord or
/// CAN"; Pastry is provided as a third structured option.
enum class OverlayKind : std::uint8_t { kChord, kCan, kPastry };

[[nodiscard]] std::string_view to_string(OverlayKind kind);

/// Which discovery backend answers tier-1a candidate lookups. kDirectory is
/// the flat per-service key lookup (the default; golden digests are pinned
/// to it); kDht swaps in the attribute index (qsa::index, DESIGN.md §15) —
/// range predicates pushed into the overlay, soft-state epoch expiry, no
/// requester-side cache.
enum class DiscoveryKind : std::uint8_t { kDirectory, kDht };

[[nodiscard]] std::string_view to_string(DiscoveryKind kind);

struct GridConfig {
  std::uint64_t seed = 42;

  // --- population ---
  std::size_t peers = 10'000;          ///< paper: 10^4

  // --- network model ---
  /// How pair latency/bandwidth derive from the seed: kPaper is the paper's
  /// i.i.d. per-pair hash (the default; golden digests are pinned to it),
  /// kCoords the synthetic-coordinate model (same marginals, geometric
  /// latency locality, per-peer derivation — the million-peer mode). See
  /// qsa/net/network.hpp and DESIGN.md §14.
  net::NetModelKind net_model = net::NetModelKind::kPaper;

  // --- placement ---
  int min_providers = 40;              ///< paper: 40 peers per instance
  int max_providers = 80;              ///< paper: 80

  // --- probing & neighbor maintenance ---
  sim::SimTime probe_period = sim::SimTime::seconds(30);
  std::size_t probe_budget = 100;      ///< M; paper: 100 (1% of peers)
  sim::SimTime neighbor_ttl = sim::SimTime::minutes(90);

  // --- overlay ---
  OverlayKind overlay = OverlayKind::kChord;

  // --- applications & workload ---
  workload::AppCatalogParams apps;     ///< seeds are overridden from `seed`
  workload::RequestParams requests;
  workload::ChurnParams churn;

  // --- algorithm under test ---
  AlgorithmKind algorithm = AlgorithmKind::kQsa;
  core::QsaOptions qsa_options;
  /// Mid-session departure recovery (the paper's future-work extension):
  /// when a provisioning peer leaves, re-select a replacement host and
  /// migrate the reservations instead of aborting. Off by default — the
  /// paper's evaluation runs without it.
  bool enable_recovery = false;
  /// Admission retries: when a reservation fails (stale probe data made
  /// selection pick a peer that is actually full), re-run aggregation up to
  /// this many times excluding the blamed hosts. 0 = the paper's behaviour
  /// (one shot).
  int admission_retries = 0;
  /// Weight on the bandwidth term of Definition 3.1 and the Phi metric
  /// (w_{m+1} = omega_{m+1}); the remaining mass is split evenly across the
  /// end-system resource kinds. Negative = uniform over all m+1 terms (the
  /// paper's experiments distribute importance weights uniformly).
  double bandwidth_weight = -1;

  // --- caches (the aggregation fast path) ---
  /// Attach the compatibility/cost memo tables (qsa/cache) to the algorithm
  /// under test. Both memoize pure functions of immutable catalog state, so
  /// results are bit-identical on or off — on by default.
  bool compose_caches = true;
  /// TTL of the requester-side discovery cache: a fresh entry serves the
  /// last lookup's instance list with zero hops/latency. Zero (the default)
  /// disables it and keeps discovery accounting byte-identical to a build
  /// without the cache. Stale entries within the TTL are caught downstream
  /// (selection/admission), matching the paper's soft-state model.
  sim::SimTime discovery_cache_ttl = sim::SimTime::zero();

  // --- discovery backend (qsa::index; DESIGN.md §15) ---
  /// kDirectory (the default) keeps every knobs-off run byte-identical;
  /// kDht constructs the attribute index and routes candidate lookups
  /// through per-attribute range scans.
  DiscoveryKind discovery = DiscoveryKind::kDirectory;
  /// Republish epochs an index posting survives without a refresh before
  /// the expiry sweep reclaims it (kDht only). 2 tolerates one lost
  /// republish cycle.
  int index_expiry_epochs = 2;

  // --- replication (the third tier; DESIGN.md §10) ---
  /// Demand-driven replica management (see qsa/replica/config.hpp).
  /// Disabled by default: no manager is constructed, no events scheduled,
  /// and output stays byte-identical to a build without the subsystem.
  replica::ReplicaConfig replication;
  /// Provider-load concentration accounting in the session manager (peak
  /// concurrent sessions per host, provider.load* metrics). Implied by
  /// `replication.enabled`; settable on its own to measure the DESIGN §4
  /// hotspot without treating it. Off by default — tracked runs add
  /// load.provider_peak to the result counters and, when observing,
  /// provider.load* metric names.
  bool track_load = false;

  // --- fault injection ---
  /// Message loss/delay/retry knobs (see qsa/fault/fault.hpp). Defaults are
  /// fully off; a disabled config keeps every layer on the perfect-messaging
  /// fast path and the run byte-identical to one without the subsystem.
  fault::FaultConfig faults;

  // --- run control ---
  sim::SimTime horizon = sim::SimTime::minutes(400);
  sim::SimTime sample_period = sim::SimTime::minutes(2);

  /// >1 runs the bootstrap's overlay stabilization on the shared pool
  /// (byte-identical output; see ChordRing::stabilize_all_on). 1 (the
  /// default) never touches the pool.
  std::size_t shards = 1;

  // --- observability ---
  /// Attach the qsa::obs layer: per-request trace spans (Tracer) and the
  /// metrics registry (labeled counters/gauges/histograms). Off by default;
  /// when off, instrumentation compiles down to null-pointer tests and the
  /// run allocates nothing for observability.
  bool observe = false;

  /// Head-based trace sampling: keep 1-in-K finished request traces on the
  /// span sink, decided per request via derive_seed(seed,"obs",request_id)
  /// so the kept set is bit-identical across runs and ExperimentRunner
  /// thread counts. 0 or 1 (the default) keeps every trace. Aggregate
  /// accounting (GridResult failure counters, tracer phase/status counts)
  /// stays exact at any rate.
  std::uint32_t trace_sample = 1;

  /// Failure flight recorder: retain the complete span chains of the last K
  /// failed/recovered requests per failure cause, regardless of sampling.
  /// 0 (the default) disables the recorder.
  std::uint32_t flight_recorder = 0;

  /// Live time-series window: when `observe` is set and this is non-zero,
  /// sample windowed psi, event-queue depth, cache hit rates, replica and
  /// session counts (plus perf timers under `profile`) every window through
  /// obs::LiveSeries. Zero (the default) schedules no sampling event and
  /// keeps the run byte-identical to a build without the recorder.
  sim::SimTime obs_window = sim::SimTime::zero();

  /// Wall-clock phase profiling: times bootstrap and the event loop with the
  /// host's monotonic clock and — when `observe` provides a registry —
  /// exports `perf.wall_ms.{bootstrap,run}`, `perf.events_per_sec` and the
  /// `sim.queue_peak` capacity watermark as gauges. Off by default; the
  /// values are wall-clock (non-deterministic), so the gate keeps knobs-off
  /// output byte-identical.
  bool profile = false;

  /// Scales population-bound knobs (peer count, request rate, churn rate) by
  /// `factor`, preserving per-peer load and churned population fraction so
  /// the figures keep their shape at laptop scale.
  void scale(double factor);

  /// Reads QSA_SCALE (default `def`) and applies it.
  static double env_scale(double def = 1.0);
};

}  // namespace qsa::harness
