#include "qsa/harness/grid.hpp"

#include <chrono>
#include <cstdint>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "qsa/obs/sink.hpp"
#include "qsa/overlay/can_overlay.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/overlay/pastry_overlay.hpp"
#include "qsa/qos/translator.hpp"
#include "qsa/util/expects.hpp"
#include "qsa/util/thread_pool.hpp"
#include "qsa/workload/generator.hpp"

namespace qsa::harness {

namespace {

/// Per-kind capacity tier of every peer, bootstrap and churn arrival alike
/// (paper: [100,100] to [1000,1000]).
constexpr double kMinCapacity = 100;
constexpr double kMaxCapacity = 1000;

}  // namespace

GridSimulation::GridSimulation(GridConfig config)
    : config_(std::move(config)),
      universe_(registry::QosUniverse::standard(interner_)),
      grid_rng_(util::derive_seed(config_.seed, "grid", 0)),
      recovery_rng_(util::derive_seed(config_.seed, "recovery", 0)) {
  // The QoS->resource translator shared by catalog generation.
  translator_ = std::make_unique<qos::AnalyticTranslator>(
      universe_.level, qos::AnalyticTranslator::paper_coefficients());

  // Applications + abstract services + service instances.
  workload::AppCatalogParams app_params = config_.apps;
  app_params.seed = util::derive_seed(config_.seed, "apps-root", 0);
  apps_ = std::make_unique<workload::ApplicationCatalog>(
      catalog_, universe_, *translator_, app_params);

  const net::ProbeClock clock(config_.probe_period);
  peers_ = std::make_unique<net::PeerTable>(qos::ResourceSchema::paper(), clock);
  network_ = std::make_unique<net::NetworkModel>(
      util::derive_seed(config_.seed, "network", 0), clock,
      config_.net_model);
  // Successor-list / replica-set size shared by all three overlays.
  constexpr int kOverlayReplicas = 4;
  switch (config_.overlay) {
    case OverlayKind::kChord:
      ring_ = std::make_unique<overlay::ChordRing>(
          util::derive_seed(config_.seed, "chord", 0), kOverlayReplicas);
      break;
    case OverlayKind::kCan:
      ring_ = std::make_unique<overlay::CanOverlay>(
          util::derive_seed(config_.seed, "can", 0), kOverlayReplicas);
      break;
    case OverlayKind::kPastry:
      ring_ = std::make_unique<overlay::PastryOverlay>(
          util::derive_seed(config_.seed, "pastry", 0),
          kOverlayReplicas);
      break;
  }
  directory_ = std::make_unique<registry::ServiceDirectory>(
      util::derive_seed(config_.seed, "directory", 0), *ring_, catalog_);
  if (config_.discovery == DiscoveryKind::kDht) {
    index::IndexConfig ic;
    ic.expiry_epochs = config_.index_expiry_epochs;
    index_ = std::make_unique<index::AttributeIndex>(
        util::derive_seed(config_.seed, "index", 0), *ring_, catalog_,
        placement_, *peers_, *network_, universe_.level, ic);
    dht_ = std::make_unique<index::DhtDiscovery>(*index_, universe_.level,
                                                 sim_clock_);
  }
  neighbors_ = std::make_unique<probe::NeighborResolution>(
      config_.probe_budget, config_.neighbor_ttl);
  manager_ = std::make_unique<session::SessionManager>(simulator_, *peers_,
                                                       *network_, catalog_);

  if (config_.faults.enabled()) {
    fault_plan_ = std::make_unique<fault::FaultPlan>(
        util::derive_seed(config_.seed, "fault", 0), config_.faults);
    ring_->set_faults(fault_plan_.get());
    neighbors_->set_faults(fault_plan_.get());
    manager_->set_faults(fault_plan_.get());
  }

  // The composition+selection hot path lives in the sim-free serving
  // facade; the simulation is one of its drivers (the serving loop is the
  // other). Constructed before the observe block: the engine sets the
  // directory's cache TTL, which must precede directory_->set_metrics (the
  // cache counters are gated on the TTL cache being enabled).
  {
    engine::EngineConfig ec;
    ec.seed = config_.seed;
    ec.algorithm = config_.algorithm;
    ec.qsa_options = config_.qsa_options;
    ec.bandwidth_weight = config_.bandwidth_weight;
    ec.compose_caches = config_.compose_caches;
    ec.discovery_cache_ttl = config_.discovery_cache_ttl;
    engine::EngineDeps deps;
    deps.catalog = &catalog_;
    deps.placement = &placement_;
    deps.directory = directory_.get();
    deps.discovery = dht_.get();  // null = the directory answers lookups
    deps.peers = peers_.get();
    deps.net = network_.get();
    deps.neighbors = neighbors_.get();
    deps.clock = &sim_clock_;
    engine_ = std::make_unique<engine::ServingEngine>(ec, deps);
  }

  if (config_.observe) {
    obs::TraceConfig tc;
    tc.seed = config_.seed;
    tc.sample_every = config_.trace_sample;
    tc.flight_capacity = config_.flight_recorder;
    tracer_ = std::make_unique<obs::Tracer>(tc);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    // The live recorder exists only when a window is configured: without
    // one, no sampling event is scheduled and no series name is recorded,
    // keeping knobs-off runs byte-identical.
    if (config_.obs_window.as_millis() > 0) {
      series_ = std::make_unique<obs::LiveSeries>();
    }
    // Exactly one backend's lookup metrics register: directory.* names in
    // directory mode, index.* in dht mode — never both.
    if (dht_ != nullptr) {
      dht_->set_metrics(metrics_.get());
    } else {
      directory_->set_metrics(metrics_.get());
    }
    neighbors_->set_metrics(metrics_.get(), network_.get());
    manager_->set_observability(tracer_.get(), metrics_.get());
    lookup_hops_hist_ = &metrics_->histogram("aggregate.lookup_hops");
    setup_latency_hist_ = &metrics_->histogram("aggregate.setup_latency_ms");
    composition_cost_hist_ =
        &metrics_->histogram("aggregate.composition_cost");
    path_length_hist_ = &metrics_->histogram("aggregate.path_length");
    // Gated on the plan so that with faults off no fault.* metric name is
    // ever registered and exported output stays identical.
    if (fault_plan_ != nullptr) fault_plan_->set_metrics(metrics_.get());
    // Same gating for cache.compat.*: the engine only forwards to the memo
    // when it exists.
    engine_->set_metrics(metrics_.get());
  }

  const qos::TupleWeights& weights = engine_->weights();

  // The replication tier listens to the session manager's demand signals
  // and widens hot provider pools through placement + directory publish.
  // Constructed only when enabled: a disabled config schedules nothing and
  // registers no metric names, keeping output byte-identical.
  if (config_.replication.enabled) {
    replica_ = std::make_unique<replica::ReplicaManager>(
        util::derive_seed(config_.seed, "replica", 0), config_.replication,
        catalog_, placement_, discovery(), *peers_, *network_, weights,
        peers_->schema());
    if (metrics_ != nullptr) replica_->set_metrics(metrics_.get());
    manager_->set_demand_callback([this](const session::DemandSignal& sig) {
      const sim::SimTime now = simulator_.now();
      switch (sig.kind) {
        case session::DemandSignal::Kind::kAdmitted:
          replica_->on_admitted(sig.instances, now);
          break;
        case session::DemandSignal::Kind::kRejected:
          replica_->on_rejected(sig.instances, sig.hosts, sig.blamed, now);
          break;
        case session::DemandSignal::Kind::kTeardown:
          replica_->on_session_ended(sig.instances);
          break;
      }
    });
    // The load-balancing half of the tier: selection subtracts each
    // candidate's same-epoch reservations from its probed availability, so
    // sessions admitted within one probe epoch see near-live headroom and
    // spread across the widened pool instead of piling onto the stale
    // snapshot's single Phi maximizer (and then failing at reservation).
    engine_->algorithm().set_load_signal(
        [this](net::PeerId p) { return manager_->epoch_reservations(p); });
  }
  // Concentration accounting rides along with replication (its evaluation
  // metric) and can be requested on its own.
  manager_->set_load_tracking(config_.track_load ||
                              config_.replication.enabled);

  if (config_.enable_recovery) {
    recovery_selector_ = std::make_unique<core::PeerSelector>(
        weights, peers_->schema(), config_.qsa_options.selector);
    manager_->set_recovery([this](const session::Session& s,
                                  std::size_t position, net::PeerId failed) {
      return select_replacement(s, position, failed);
    });
  }

  manager_->set_outcome_callback(
      [this](const session::Session& s, core::FailureCause cause) {
        auto it = pending_window_.find(s.id);
        // Sessions injected directly via sessions().start_session (examples,
        // tests) bypass request accounting and have no arrival window.
        if (it == pending_window_.end()) return;
        const std::size_t window = it->second.window;
        const std::uint64_t trace = it->second.trace;
        pending_window_.erase(it);
        const bool success = cause == core::FailureCause::kNone;
        if (success) {
          record_outcome(window, true);
        } else {
          QSA_ASSERT(cause == core::FailureCause::kDeparture);
          ++result_.failures_departure;
          record_outcome(window, false);
        }
        if (series_ != nullptr) {
          ++obs_window_attempts_;
          if (success) ++obs_window_successes_;
        }
        // The request is over: its running/teardown spans are closed (the
        // manager emits them before this callback), so route the chain and
        // recycle its nodes.
        if (tracer_ != nullptr && trace != 0) tracer_->finish(trace);
      });

  if (config_.profile) {
    const auto t0 = std::chrono::steady_clock::now();
    bootstrap();
    profile_.bootstrap_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  } else {
    bootstrap();
  }
}

GridSimulation::~GridSimulation() = default;

void GridSimulation::bootstrap() {
  using WallClock = std::chrono::steady_clock;
  const auto phase_ms = [](WallClock::time_point t0) {
    return std::chrono::duration<double, std::milli>(WallClock::now() - t0)
        .count();
  };

  // Peers, pre-aged so uptimes are meaningful at t = 0. Deferred joins:
  // nothing routes until the stabilize below, which (re)builds every
  // finger table wholesale — per-join finger computation would be thrown
  // away, and skipping it roughly halves million-peer bootstrap. The RNG
  // draws are a strict sequence, so this loop stays serial at any shard
  // count.
  constexpr double kMaxInitialAgeMin = 180;  // pre-aged uptime at t = 0
  auto t = WallClock::now();
  peers_->reserve(config_.peers);
  for (std::size_t i = 0; i < config_.peers; ++i) {
    const double tier = grid_rng_.uniform(kMinCapacity, kMaxCapacity);
    const double age_min = grid_rng_.uniform(0.0, kMaxInitialAgeMin);
    const net::PeerId id =
        peers_->add_peer(qos::ResourceVector{tier, tier},
                         sim::SimTime::minutes(-age_min));
    ring_->join_deferred(id);
  }
  profile_.bootstrap_peers_ms = phase_ms(t);

  // Finger-table rebuild: per-node state is a pure function of the
  // membership snapshot, so shards>1 fans it out over the shared pool with
  // byte-identical results (the overlay decides whether to bother).
  t = WallClock::now();
  ring_->stabilize_all_on(config_.shards > 1 ? &util::shared_pool() : nullptr);
  profile_.bootstrap_overlay_ms = phase_ms(t);

  // Placement: each instance gets 40-80 distinct random providers.
  t = WallClock::now();
  for (registry::InstanceId inst = 0; inst < catalog_.instance_count();
       ++inst) {
    const int copies = static_cast<int>(grid_rng_.uniform_int(
        config_.min_providers, config_.max_providers));
    const auto& alive = peers_->alive_ids();
    std::unordered_set<net::PeerId> chosen;
    while (static_cast<int>(chosen.size()) <
           std::min<int>(copies, static_cast<int>(alive.size()))) {
      chosen.insert(alive[grid_rng_.index(alive.size())]);
    }
    for (net::PeerId p : chosen) placement_.add_provider(inst, p);
  }
  profile_.bootstrap_placement_ms = phase_ms(t);

  t = WallClock::now();
  discovery().publish_all();
  profile_.bootstrap_publish_ms = phase_ms(t);
}

core::AggregationPlan GridSimulation::submit_request(
    const core::ServiceRequest& request) {
  // Through the clock seam on purpose: the engine reads the adapted
  // simulator clock, so this exercises exactly the serving-loop entry.
  return engine_->serve(request);
}

void GridSimulation::record_outcome(std::size_t window, bool success) {
  if (window >= windows_.size()) windows_.resize(window + 1);
  // attempts were counted at arrival; only successes land here.
  if (success) {
    ++windows_[window].successes;
    ++result_.successes;
  }
}

void GridSimulation::trace_setup(std::uint64_t request_id, sim::SimTime now,
                                 const core::AggregationPlan& plan,
                                 core::FailureCause cause, bool will_retry,
                                 int attempt) {
  using obs::Phase;
  using obs::SpanStatus;
  obs::Tracer& t = *tracer_;
  const auto verdict = [&](core::FailureCause at) {
    return cause == at ? SpanStatus::kFail : SpanStatus::kOk;
  };

  // Setup phases run within one simulator event, so spans are instantaneous
  // in sim time; the modeled latency travels as an annotation.
  const auto discovery = t.instant(
      request_id, Phase::kDiscovery, now, verdict(core::FailureCause::kDiscovery),
      cause == core::FailureCause::kDiscovery ? core::to_string(cause)
                                              : std::string_view{});
  t.annotate(discovery, "hops", static_cast<double>(plan.lookup_hops));
  t.annotate(discovery, "latency_ms",
             static_cast<double>(plan.setup_latency.as_millis()));
  if (cause == core::FailureCause::kDiscovery) return;

  const auto composition = t.instant(
      request_id, Phase::kComposition, now,
      verdict(core::FailureCause::kComposition),
      cause == core::FailureCause::kComposition ? core::to_string(cause)
                                                : std::string_view{});
  if (cause == core::FailureCause::kComposition) return;
  t.annotate(composition, "cost", plan.composition_cost);
  t.annotate(composition, "path_length",
             static_cast<double>(plan.instances.size()));

  const auto selection = t.instant(
      request_id, Phase::kSelection, now, verdict(core::FailureCause::kSelection),
      cause == core::FailureCause::kSelection ? core::to_string(cause)
                                              : std::string_view{});
  if (cause == core::FailureCause::kSelection) return;
  t.annotate(selection, "random_fallback_hops",
             static_cast<double>(plan.random_fallback_hops));

  const SpanStatus admission_status =
      cause == core::FailureCause::kNone
          ? SpanStatus::kOk
          : (will_retry ? SpanStatus::kRetry : SpanStatus::kFail);
  const auto admission = t.instant(
      request_id, Phase::kAdmission, now, admission_status,
      cause == core::FailureCause::kAdmission ? core::to_string(cause)
                                              : std::string_view{});
  t.annotate(admission, "attempt", static_cast<double>(attempt));
}

void GridSimulation::handle_request(const core::ServiceRequest& request) {
  const sim::SimTime now = simulator_.now();
  const auto window = static_cast<std::size_t>(
      now.as_millis() / config_.sample_period.as_millis());
  if (window >= windows_.size()) windows_.resize(window + 1);
  ++windows_[window].attempts;
  ++result_.requests;
  const std::uint64_t rid = result_.requests;  // 1-based trace id

  core::ServiceRequest attempt = request;
  if (tracer_ != nullptr) attempt.trace_id = rid;
  core::FailureCause cause = core::FailureCause::kNone;
  for (int tries = 0; tries <= config_.admission_retries; ++tries) {
    core::AggregationPlan plan;
    if (config_.profile) {
      const auto t0 = std::chrono::steady_clock::now();
      plan = engine_->aggregate(attempt, now);
      profile_.aggregate_ms += std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
    } else {
      plan = engine_->aggregate(attempt, now);
    }
    result_.lookup_hops += static_cast<std::uint64_t>(plan.lookup_hops);
    result_.setup_latency_ms +=
        static_cast<std::uint64_t>(plan.setup_latency.as_millis());
    result_.random_fallback_hops +=
        static_cast<std::uint64_t>(plan.random_fallback_hops);
    cause = plan.failure;
    if (metrics_ != nullptr) {
      lookup_hops_hist_->observe(static_cast<double>(plan.lookup_hops));
      setup_latency_hist_->observe(
          static_cast<double>(plan.setup_latency.as_millis()));
      if (plan.ok()) {
        composition_cost_hist_->observe(plan.composition_cost);
        path_length_hist_->observe(static_cast<double>(plan.instances.size()));
      }
    }
    // Counted once per request, as soon as composition succeeded (whatever
    // selection and admission do afterwards): admission retries recompose
    // the identical (host-independent) plan, and conditioning on the later
    // stages would measure the retry/selection mix rather than the
    // composition objective.
    if (tries == 0 && cause != core::FailureCause::kDiscovery &&
        cause != core::FailureCause::kComposition) {
      composition_cost_sum_ += plan.composition_cost;
      ++composed_;
    }
    if (!plan.ok()) {
      // A selection failure means no provider of some hop had probed
      // headroom — the strongest replication signal there is.
      if (replica_ != nullptr && cause == core::FailureCause::kSelection) {
        replica_->on_selection_failure(plan.instances, now);
      }
      if (tracer_ != nullptr) {
        trace_setup(rid, now, plan, cause, /*will_retry=*/false, tries);
      }
      break;
    }

    net::PeerId blamed = net::kNoPeer;
    if (config_.profile) {
      const auto t0 = std::chrono::steady_clock::now();
      cause = manager_->start_session(attempt, plan, &blamed);
      profile_.admission_ms += std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
    } else {
      cause = manager_->start_session(attempt, plan, &blamed);
    }
    const bool will_retry = cause == core::FailureCause::kAdmission &&
                            blamed != net::kNoPeer &&
                            tries < config_.admission_retries;
    if (tracer_ != nullptr) {
      trace_setup(rid, now, plan, cause, will_retry, tries);
    }
    if (cause != core::FailureCause::kAdmission || blamed == net::kNoPeer) {
      break;
    }
    // Second chance: exclude the peer whose reservation fell short and
    // re-select. Only worthwhile while retries remain.
    if (tries < config_.admission_retries) {
      attempt.excluded_hosts.push_back(blamed);
      result_.counters.add("admission.retries");
    }
  }
  switch (cause) {
    case core::FailureCause::kNone: {
      // Outcome decided later (completion or departure abort). Session ids
      // are handed out sequentially; the one just admitted is the newest.
      const session::SessionId id = manager_->last_session_id();
      pending_window_.emplace(id, Pending{window, rid});
      break;
    }
    case core::FailureCause::kDiscovery:
      ++result_.failures_discovery;
      break;
    case core::FailureCause::kComposition:
      ++result_.failures_composition;
      break;
    case core::FailureCause::kSelection:
      ++result_.failures_selection;
      break;
    case core::FailureCause::kAdmission:
      ++result_.failures_admission;
      break;
    case core::FailureCause::kDeparture:
      ++result_.failures_departure;
      break;
  }
  if (metrics_ != nullptr) {
    if (cause == core::FailureCause::kNone) {
      metrics_->add("request.admitted");
    } else {
      // One terminal failure counter per cause, e.g. request.fail.admission.
      std::string name = "request.fail.";
      name += core::to_string(cause);
      metrics_->add(name);
    }
  }
  // Setup failures are terminal here and now: route the chain out of the
  // tracer and recycle its nodes. Admitted requests finish at their
  // session's outcome callback (or the horizon sweep).
  if (cause != core::FailureCause::kNone) {
    if (series_ != nullptr) ++obs_window_attempts_;
    if (tracer_ != nullptr) tracer_->finish(rid);
  }
}

net::PeerId GridSimulation::select_replacement(const session::Session& s,
                                               std::size_t position,
                                               net::PeerId failed) {
  const auto providers = placement_.providers(s.instances[position]);
  std::vector<net::PeerId> candidates;
  for (net::PeerId p : providers) {
    if (p != failed && peers_->alive(p)) candidates.push_back(p);
  }
  if (candidates.empty()) return net::kNoPeer;

  // The downstream consumer (who notices the stream stopping) selects.
  const net::PeerId detector = position + 1 < s.hosts.size()
                                   ? s.hosts[position + 1]
                                   : s.requester;
  if (!peers_->alive(detector)) return net::kNoPeer;
  const sim::SimTime now = simulator_.now();
  neighbors_->prepare_selection(detector, candidates, 1, /*direct=*/false,
                                now);
  const auto& inst = catalog_.instance(s.instances[position]);
  const auto sel = recovery_selector_->select_hop(
      *peers_, *network_, neighbors_->table(detector), detector, inst,
      candidates, s.end - now, now, recovery_rng_);
  return sel.peer;
}

void GridSimulation::depart_peer(net::PeerId peer) {
  if (!peers_->alive(peer)) return;
  manager_->peer_departed(peer);
  placement_.remove_peer(peer);
  // Replicas hosted on the departed peer die with it (their placement
  // entries just vanished wholesale above).
  if (replica_ != nullptr) replica_->peer_departed(peer);
  ring_->fail(peer);
  neighbors_->drop_peer(peer);
  peers_->remove_peer(peer, simulator_.now());
  // A departure changes what discovery should return (the departed peer's
  // share of the key space is gone): the directory drops cached lookups;
  // the attribute index lets the lost postings age out via the epoch sweep.
  discovery().peer_departed(peer);
}

net::PeerId GridSimulation::arrive_peer() {
  const double tier = grid_rng_.uniform(kMinCapacity, kMaxCapacity);
  const net::PeerId id = peers_->add_peer(qos::ResourceVector{tier, tier},
                                          simulator_.now());
  ring_->join(id);
  // A newcomer contributes a few instance copies.
  constexpr int kArrivalHostedMin = 2;
  constexpr int kArrivalHostedMax = 5;
  const int hosted = static_cast<int>(
      grid_rng_.uniform_int(kArrivalHostedMin, kArrivalHostedMax));
  for (int i = 0; i < hosted && catalog_.instance_count() > 0; ++i) {
    placement_.add_provider(
        static_cast<registry::InstanceId>(
            grid_rng_.index(catalog_.instance_count())),
        id);
  }
  return id;
}

GridResult GridSimulation::run() {
  const sim::SimTime horizon = config_.horizon;

  // Periodic maintenance: overlay stabilization and directory republish.
  constexpr sim::SimTime kStabilizePeriod = sim::SimTime::seconds(30);
  constexpr double kStabilizeFraction = 0.1;
  constexpr sim::SimTime kRepublishPeriod = sim::SimTime::minutes(2);
  simulator_.every(kStabilizePeriod, kStabilizePeriod,
                   [this] { ring_->stabilize_round(kStabilizeFraction); });
  simulator_.every(kRepublishPeriod, kRepublishPeriod,
                   [this] { discovery().publish_all(); });
  // Replica retirement sweep, only when the tier exists (an extra periodic
  // event would otherwise perturb the event count of knobs-off runs).
  if (replica_ != nullptr) {
    const sim::SimTime cooldown = config_.replication.cooldown;
    simulator_.every(cooldown, cooldown,
                     [this] { replica_->sweep(simulator_.now()); });
  }

  // Live time-series: register probes (polled in this order every window)
  // and the sampling event. Gated on the recorder so that without
  // --obs-window-ms no event is scheduled and no series name exists.
  if (series_ != nullptr) {
    series_->track("sim.queue_depth", [this] {
      return static_cast<double>(simulator_.pending_events());
    });
    series_->track("session.active", [this] {
      return static_cast<double>(manager_->active_sessions());
    });
    if (config_.discovery_cache_ttl.as_millis() > 0) {
      series_->track("cache.discovery.hit_rate", [this] {
        const double h =
            static_cast<double>(metrics_->counter("cache.discovery.hits").value);
        const double m = static_cast<double>(
            metrics_->counter("cache.discovery.misses").value);
        return h + m > 0 ? h / (h + m) : 0.0;
      });
    }
    if (engine_->compose_cache() != nullptr) {
      series_->track("cache.compat.hit_rate", [this] {
        const double h =
            static_cast<double>(metrics_->counter("cache.compat.hits").value);
        const double m =
            static_cast<double>(metrics_->counter("cache.compat.misses").value);
        return h + m > 0 ? h / (h + m) : 0.0;
      });
    }
    if (replica_ != nullptr) {
      series_->track("replica.active", [this] {
        return static_cast<double>(replica_->active());
      });
    }
    series_->track("obs.live_spans", [this] {
      return static_cast<double>(tracer_->live_spans());
    });
    if (config_.profile) {
      // Cumulative host wall-clock per phase — non-deterministic values,
      // gated behind --profile like the perf.* gauges.
      series_->track("perf.aggregate_ms",
                     [this] { return profile_.aggregate_ms; });
      series_->track("perf.admission_ms",
                     [this] { return profile_.admission_ms; });
    }
    simulator_.every(config_.obs_window, config_.obs_window, [this] {
      const sim::SimTime now = simulator_.now();
      // Windowed psi first (requests resolved since the last window), then
      // the instantaneous probes in registration order.
      if (obs_window_attempts_ > 0) {
        series_->push("psi.window", now,
                      static_cast<double>(obs_window_successes_) /
                          static_cast<double>(obs_window_attempts_));
        obs_window_attempts_ = obs_window_successes_ = 0;
      }
      series_->sample(now);
    });
  }

  // Workload.
  workload::RequestParams rp = config_.requests;
  rp.seed = util::derive_seed(config_.seed, "requests-root", 0);
  workload::RequestGenerator generator(
      simulator_, *apps_, universe_, *peers_, rp,
      [this](const core::ServiceRequest& req, const workload::Application&,
             workload::QosLevel) { handle_request(req); });
  generator.start(horizon);

  // Churn.
  workload::ChurnParams cp = config_.churn;
  cp.seed = util::derive_seed(config_.seed, "churn-root", 0);
  workload::ChurnProcess churn(
      simulator_, *peers_, cp, [this](net::PeerId p) { depart_peer(p); },
      [this] { arrive_peer(); });
  churn.start(horizon);

  if (config_.profile) {
    // Wall-clock the event loop alone: periodic registration above and the
    // accounting below are one-shot, the loop is where the engine lives.
    const auto t0 = std::chrono::steady_clock::now();
    simulator_.run_until(horizon);
    profile_.run_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  } else {
    simulator_.run_until(horizon);
  }

  // Sessions still healthy at the horizon count as successes. end_open is
  // per-request state, so the unordered sweep is safe; the emission order
  // is fixed afterwards by finish_all()'s ascending request-id drain.
  for (const auto& [id, pending] : pending_window_) {
    record_outcome(pending.window, true);
    if (tracer_ != nullptr && pending.trace != 0) {
      // The running span is still open; the horizon ends it healthy.
      tracer_->end_open(pending.trace, simulator_.now(), obs::SpanStatus::kOk,
                        "horizon");
    }
  }
  pending_window_.clear();
  if (tracer_ != nullptr) {
    tracer_->finish_all();
    if (tracer_->sink() != nullptr) tracer_->sink()->flush();
  }

  // Emit the arrival-bucketed psi series.
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    if (windows_[w].attempts == 0) continue;
    const auto t = sim::SimTime::millis(
        static_cast<std::int64_t>(w + 1) * config_.sample_period.as_millis());
    result_.series.record(t, static_cast<double>(windows_[w].successes) /
                                 static_cast<double>(windows_[w].attempts));
  }

  result_.notification_messages = neighbors_->messages();
  result_.churn_departures = churn.departures();
  result_.churn_arrivals = churn.arrivals();
  result_.avg_composition_cost =
      composed_ == 0 ? 0 : composition_cost_sum_ / static_cast<double>(composed_);
  result_.counters.add("sessions.admitted", manager_->stats().admitted);
  result_.counters.add("sessions.completed", manager_->stats().completed);
  result_.counters.add("sessions.aborted", manager_->stats().aborted);
  result_.counters.add("sessions.recovered", manager_->stats().recovered);
  result_.counters.add("sessions.rejected", manager_->stats().rejected);
  result_.counters.add("events.executed", simulator_.executed_events());
  // Historical name, monotone semantics: distinct pairs ever reserved.
  // Reported via touched_pairs() so ledger eviction (a memory-footprint
  // mechanism) cannot change exported output; the resident ledger size is
  // NetworkModel::active_pairs(), which benches read directly.
  result_.counters.add("net.active_pairs", network_->touched_pairs());

  // Replication / concentration accounting, gated like the fault counters:
  // untracked runs add no counter names.
  if (replica_ != nullptr) {
    const replica::ReplicaStats& rs = replica_->stats();
    result_.counters.add("replica.created", rs.created);
    result_.counters.add("replica.retired", rs.retired);
    result_.counters.add("replica.rejected_no_host", rs.rejected_no_host);
    result_.counters.add("replica.host_departures", rs.host_departures);
    result_.counters.add("replica.active", replica_->active());
  }
  if (config_.track_load || config_.replication.enabled) {
    result_.counters.add("load.provider_peak", manager_->peak_provider_load());
    result_.counters.add("load.concentration_peak",
                         manager_->peak_service_concentration());
    result_.avg_service_concentration =
        manager_->mean_service_concentration();
  }

  // Fault accounting, only when injection is on: with the plan disabled the
  // counter set (and hence any exported output) is unchanged.
  if (fault_plan_ != nullptr) {
    const fault::FaultStats& fs = fault_plan_->stats();
    const auto probe = static_cast<std::size_t>(fault::Channel::kProbe);
    const auto notify = static_cast<std::size_t>(fault::Channel::kNotify);
    const auto lookup = static_cast<std::size_t>(fault::Channel::kLookup);
    const auto resv = static_cast<std::size_t>(fault::Channel::kReservation);
    const std::pair<std::string_view, std::uint64_t> totals[] = {
        {"fault.messages", fs.total_attempts()},
        {"fault.dropped", fs.total_dropped()},
        {"probe.retries", fs.retries[probe] + fs.retries[notify]},
        {"lookup.retries", fs.retries[lookup]},
        {"lookup.rerouted", fs.rerouted},
        {"session.recovery_retries", fs.retries[resv]},
    };
    for (const auto& [name, value] : totals) {
      result_.counters.add(name, value);
      if (metrics_ != nullptr) metrics_->add(name, value);
    }
  }

  // Attribute-index accounting, gated exactly like the fault counters: in
  // directory mode (the default) no index.* counter name ever appears.
  if (index_ != nullptr) {
    const index::IndexStats& is = index_->stats();
    const std::pair<std::string_view, std::uint64_t> totals[] = {
        {"index.publishes", is.publishes},
        {"index.updates", is.updates},
        {"index.expiries", is.expiries},
        {"index.scans", is.scans},
        {"index.scan_segments", is.scan_segments},
        {"index.scan_hops", is.scan_hops},
        {"index.scan_reroutes", is.scan_reroutes},
        {"index.failed_scans", is.failed_scans},
        {"index.scanned_postings", is.scanned_postings},
        {"index.false_positives", is.false_positives},
        {"index.stale_postings", is.stale_postings},
    };
    for (const auto& [name, value] : totals) {
      result_.counters.add(name, value);
      if (metrics_ != nullptr) metrics_->add(name, value);
    }
    // Live postings are a level, not a running total: a counter in the
    // result, a gauge in the registry.
    result_.counters.add("index.postings", index_->postings());
    if (metrics_ != nullptr) {
      metrics_->set("index.postings", static_cast<double>(index_->postings()));
    }
  }

  if (metrics_ != nullptr) {
    metrics_->add("request.total", result_.requests);
    metrics_->add("sim.events_executed", simulator_.executed_events());
    metrics_->set("sim.event_queue_high_water",
                  static_cast<double>(simulator_.max_pending_events()));
    metrics_->set("net.active_pairs",
                  static_cast<double>(network_->touched_pairs()));
    metrics_->add("churn.departures", result_.churn_departures);
    metrics_->add("churn.arrivals", result_.churn_arrivals);
    metrics_->add("session.admitted", manager_->stats().admitted);
    metrics_->add("session.completed", manager_->stats().completed);
    metrics_->add("session.aborted", manager_->stats().aborted);
    metrics_->add("session.recovered", manager_->stats().recovered);
    metrics_->add("session.rejected", manager_->stats().rejected);
    // The bounded-memory witness: resident span count never exceeds the
    // number of in-flight requests, whatever the total request volume.
    metrics_->set("obs.spans_live_high_water",
                  static_cast<double>(tracer_->peak_live_spans()));
    metrics_->add("obs.spans_emitted", tracer_->emitted_spans());
    metrics_->add("obs.requests_finished", tracer_->finished_requests());
    metrics_->add("obs.requests_sampled", tracer_->sampled_requests());
  }

  // Profiling export, gated on its own flag: the values are host wall-clock,
  // so keeping them out of the default metric set preserves byte-identical
  // knobs-off output.
  if (config_.profile) {
    profile_.events = simulator_.executed_events();
    profile_.events_per_sec =
        profile_.run_ms > 0
            ? static_cast<double>(profile_.events) * 1000.0 / profile_.run_ms
            : 0;
    profile_.queue_peak = simulator_.max_pending_events();
    if (metrics_ != nullptr) {
      metrics_->set("perf.wall_ms.bootstrap", profile_.bootstrap_ms);
      metrics_->set("perf.wall_ms.bootstrap_peers",
                    profile_.bootstrap_peers_ms);
      metrics_->set("perf.wall_ms.bootstrap_overlay",
                    profile_.bootstrap_overlay_ms);
      metrics_->set("perf.wall_ms.bootstrap_placement",
                    profile_.bootstrap_placement_ms);
      metrics_->set("perf.wall_ms.bootstrap_publish",
                    profile_.bootstrap_publish_ms);
      metrics_->set("perf.wall_ms.run", profile_.run_ms);
      metrics_->set("perf.wall_ms.aggregate", profile_.aggregate_ms);
      metrics_->set("perf.wall_ms.admission", profile_.admission_ms);
      metrics_->set("perf.events_per_sec", profile_.events_per_sec);
      metrics_->set("sim.queue_peak",
                    static_cast<double>(profile_.queue_peak));
    }
  }
  return result_;
}

}  // namespace qsa::harness
