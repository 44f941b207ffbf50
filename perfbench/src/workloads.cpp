// The three workloads, their correctness checks, and the traced replay.
//
// Everything here drives the library through its public API: GridSimulation
// (construct, run, submit_request), ServingEngine / serve_shard, and — for
// the traced replay — the per-layer calls QsaAlgorithm::aggregate_into
// makes, issued one by one so each can be timed from outside.
#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "qsa/cache/compose_cache.hpp"
#include "qsa/core/aggregate.hpp"
#include "qsa/engine/serve.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/workload/generator.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace qsa;
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class Kind { kGridPaper, kGridChurnDht, kServeWarm };

Kind kind_of(const std::string& name) {
  if (name == "grid_paper") return Kind::kGridPaper;
  if (name == "grid_churn_dht") return Kind::kGridChurnDht;
  if (name == "serve_warm") return Kind::kServeWarm;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

bool is_grid(Kind kind) { return kind != Kind::kServeWarm; }

/// The grid each workload runs (or, for serve_warm, builds its world with).
/// The horizons are those of one timed cell: short, so that a run fits 16 to
/// 20 worlds (README.md, "Cells").
harness::GridConfig grid_config(Kind kind, std::uint64_t seed, double scale) {
  harness::GridConfig c;  // the paper's §4.1 defaults: 10^4 peers, QSA, Chord, M = 100
  c.seed = seed;
  switch (kind) {
    case Kind::kGridPaper:
      c.requests.rate_per_min = 400;
      c.churn.events_per_min = 50;
      c.enable_recovery = true;
      c.admission_retries = 1;
      c.horizon = sim::SimTime::minutes(5);
      break;
    case Kind::kGridChurnDht:
      c.discovery = harness::DiscoveryKind::kDht;
      c.requests.rate_per_min = 200;
      c.churn.events_per_min = 100;
      c.replication.enabled = true;
      c.faults.set_all_loss(0.01);
      c.enable_recovery = true;
      c.admission_retries = 1;
      c.horizon = sim::SimTime::minutes(3);
      break;
    case Kind::kServeWarm:
      break;  // world only: constructed, never run()
  }
  if (scale != 1) c.scale(scale);
  return c;
}

// serve_warm: one shard, frozen clock, warm discovery cache, neighbor
// tables large enough that steady-state refreshes never evict.
constexpr std::size_t kServePool = 512;
constexpr std::uint64_t kServeWarmup = 2 * kServePool;
constexpr std::size_t kServeBatch = 64;
constexpr std::size_t kServeProbeBudget = 4096;
/// Timed serve_shard calls per cell, and requests per call.
constexpr std::size_t kServeSlices = 2;
constexpr std::uint64_t kServeSlice = 8 * kServePool;
/// Single serve_into calls timed per cell for the latency percentiles.
constexpr std::size_t kServeProbes = 2 * kServePool;
/// Requests the traced run serves warm on serve_warm.
constexpr std::uint64_t kServeTraced = 16 * kServePool;
/// Requests the traced run replays on each grid workload.
constexpr std::size_t kGridReplay = 2000;
/// A timed run repeats every cell at least this often (more while its
/// --seconds last) and keeps the interquartile mean time of each slice and
/// probe.
constexpr int kMinRepeats = 2;

/// The seed of cell `k` of a timed run (cell 0 is also the traced run's).
std::uint64_t cell_seed(std::uint64_t seed, int k) {
  return util::derive_seed(seed, "perfbench-cell", static_cast<std::uint64_t>(k));
}

// ---------------------------------------------------------------------------
// Request streams, plan checks, outcome accounting
// ---------------------------------------------------------------------------

struct Arrival {
  sim::SimTime at;
  core::ServiceRequest request;
};

/// The first `count` requests of the workload's request recipe
/// (workload::RequestGenerator) over `grid`'s current population, with
/// arrival times measured from zero.
std::vector<Arrival> sample_requests(harness::GridSimulation& grid,
                                     std::uint64_t stream_seed,
                                     std::size_t count) {
  sim::Simulator sim;
  workload::RequestParams rp = grid.config().requests;
  rp.seed = stream_seed;
  std::vector<Arrival> out;
  out.reserve(count);
  workload::RequestGenerator generator(
      sim, grid.apps(), grid.universe(), grid.peers(), rp,
      [&](const core::ServiceRequest& r, const workload::Application&,
          workload::QosLevel) {
        if (out.size() < count) out.push_back({sim.now(), r});
      });
  // Four times the expected span: the Poisson stream falls short of
  // `count` with negligible probability.
  const auto span = sim::SimTime::minutes(
      4.0 * static_cast<double>(count) / rp.rate_per_min + 1.0);
  generator.start(span);
  sim.run_until(span);
  return out;
}

/// Every host of a successful plan provides the instance it was chosen for.
bool hosts_are_providers(const registry::PlacementMap& placement,
                         const core::AggregationPlan& plan) {
  if (!plan.ok()) return true;
  if (plan.hosts.size() != plan.instances.size()) return false;
  for (std::size_t i = 0; i < plan.hosts.size(); ++i) {
    const auto providers = placement.providers(plan.instances[i]);
    if (std::find(providers.begin(), providers.end(), plan.hosts[i]) ==
        providers.end()) {
      return false;
    }
  }
  return true;
}

/// FNV-1a over every field of a plan: equal digests <=> equal plans, for
/// the replay-vs-engine comparison.
std::uint64_t digest(const core::AggregationPlan& p) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(p.failure));
  for (auto i : p.instances) mix(i);
  mix(~0ull);
  for (auto host : p.hosts) mix(host);
  mix(static_cast<std::uint64_t>(p.lookup_hops));
  mix(static_cast<std::uint64_t>(p.random_fallback_hops));
  mix(static_cast<std::uint64_t>(p.setup_latency.as_millis()));
  std::uint64_t cost = 0;
  std::memcpy(&cost, &p.composition_cost, sizeof cost);
  mix(cost);
  return h;
}

/// The deterministic outcome of one run: identical on every repetition of
/// one workload and seed, or the program has a bug.
struct Outcome {
  std::uint64_t requests = 0;
  std::uint64_t successes = 0;
  std::uint64_t discovery = 0;
  std::uint64_t composition = 0;
  std::uint64_t selection = 0;
  std::uint64_t admission = 0;
  std::uint64_t departure = 0;
  std::uint64_t notifications = 0;
  std::uint64_t hops = 0;
  /// Folded digests of the plans the rep returned to the benchmark.
  std::uint64_t plans = 0;

  bool operator==(const Outcome&) const = default;

  Outcome& operator+=(const Outcome& o) {
    requests += o.requests;
    successes += o.successes;
    discovery += o.discovery;
    composition += o.composition;
    selection += o.selection;
    admission += o.admission;
    departure += o.departure;
    notifications += o.notifications;
    hops += o.hops;
    plans = plans * 31 + o.plans;
    return *this;
  }

  [[nodiscard]] std::uint64_t failures() const {
    return discovery + composition + selection + admission + departure;
  }
  [[nodiscard]] std::string str() const {
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "requests=%llu succeeded=%llu failed: discovery=%llu "
        "composition=%llu selection=%llu admission=%llu departure=%llu | "
        "notifications=%llu hops=%llu",
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(successes),
        static_cast<unsigned long long>(discovery),
        static_cast<unsigned long long>(composition),
        static_cast<unsigned long long>(selection),
        static_cast<unsigned long long>(admission),
        static_cast<unsigned long long>(departure),
        static_cast<unsigned long long>(notifications),
        static_cast<unsigned long long>(hops));
    return buf;
  }
};

Outcome outcome_of(const harness::GridResult& r) {
  Outcome o;
  o.requests = r.requests;
  o.successes = r.successes;
  o.discovery = r.failures_discovery;
  o.composition = r.failures_composition;
  o.selection = r.failures_selection;
  o.admission = r.failures_admission;
  o.departure = r.failures_departure;
  o.notifications = r.notification_messages;
  o.hops = r.lookup_hops;
  return o;
}

Outcome outcome_of(const engine::ServeStats& s) {
  Outcome o;
  o.requests = s.requests;
  o.successes = s.ok;
  o.discovery = s.fail_discovery;
  o.composition = s.fail_composition;
  o.selection = s.fail_selection;
  o.hops = s.lookup_hops;
  return o;
}

/// Checks one repetition's outcome against the first one's; the first call
/// records it.
void check_repeat(Report& report, std::optional<Outcome>& first,
                  const Outcome& now, const char* what) {
  if (!first) {
    first = now;
  } else if (!(*first == now)) {
    report.fail(std::string(what) + " differs between repetitions of one "
                "seed: " + first->str() + " vs " + now.str());
  }
}

/// What one repeat of one timed cell measured.
struct CellRun {
  double setup_s = 0;
  std::vector<double> slice_s;   ///< wall time of each slice of work
  std::vector<double> probe_us;  ///< wall time of each latency probe
  std::uint64_t work = 0;        ///< requests the slices served
  Outcome outcome;
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Counters that exist only in GridResult::counters today (no registry or
/// typed-field twin) are read through here alone, so they can move when
/// the statistics channels are merged.
std::uint64_t legacy_counter(const harness::GridResult& r,
                             std::string_view name) {
  return r.counters.get(name);
}

std::uint64_t counter(const obs::MetricsRegistry& reg, std::string_view name) {
  const auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second.value;
}

double gauge(const obs::MetricsRegistry& reg, std::string_view name) {
  const auto it = reg.gauges().find(name);
  return it == reg.gauges().end() ? 0 : it->second.value;
}

// ---------------------------------------------------------------------------
// Spans and the staged replay
// ---------------------------------------------------------------------------

/// Spans kept in memory for the traced run; written out at exit.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  std::uint32_t open(std::string_view name, std::uint32_t parent,
                     std::uint64_t request) {
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t id) { spans_[id].end_ns = now_ns(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// One span for the lifetime of the scope; a no-op without a log, which is
/// how the untraced replay runs the identical code.
class Scope {
 public:
  Scope(SpanLog* log, std::string_view name, std::uint32_t parent,
        std::uint64_t request)
      : log_(log),
        id_(log != nullptr ? log->open(name, parent, request)
                           : Span::kNoParent) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

/// QsaAlgorithm::aggregate_into taken apart into the public calls it
/// makes, in its order — discovery per path service, QCS composition,
/// register_path, then per hop prepare_selection and select_hop — so that
/// each layer is timed from outside the library. Seeded like the engine's
/// algorithm, its plans equal ServingEngine's bit for bit on a twin world;
/// the traced run checks that request by request.
class StagedReplay {
 public:
  StagedReplay(const core::GridServices& services,
               const qos::TupleWeights& weights,
               const qos::ResourceSchema& schema, std::uint64_t engine_seed,
               std::string_view discover_span)
      : services_(services),
        composer_(*services.catalog, weights, schema),
        selector_(weights, schema),
        rng_(util::derive_seed(util::derive_seed(engine_seed, "algo", 0),
                               "qsa-algorithm", 0)),
        discover_span_(discover_span) {
    composer_.set_cache(&cache_);
  }

  void set_load_signal(core::PeerSelector::LoadSignal load) {
    selector_.set_load_signal(std::move(load));
  }
  void set_metrics(obs::MetricsRegistry* metrics) {
    cache_.set_metrics(metrics);
  }

  void aggregate_into(const core::ServiceRequest& request, sim::SimTime now,
                      core::AggregationPlan& plan, SpanLog* log,
                      std::uint64_t rid) {
    plan.reset();
    const Scope aggregate(log, "engine.aggregate", Span::kNoParent, rid);
    const std::uint32_t parent = aggregate.id();

    const std::size_t services = request.abstract_path.size();
    if (candidates_.size() < services) candidates_.resize(services);
    registry::DiscoveryQuery query;
    query.from = request.requester;
    query.requirement = &request.requirement;
    query.session_duration = request.session_duration;
    for (std::size_t i = 0; i < services; ++i) {
      query.service = request.abstract_path[i];
      query.is_sink = i + 1 == services;
      registry::DiscoveryStats stats;
      {
        const Scope s(log, discover_span_, parent, rid);
        stats = services_.discovery->discover_into(query, services_.net, now,
                                                   candidates_[i]);
      }
      plan.lookup_hops += stats.hops;
      plan.setup_latency += stats.latency;
      if (candidates_[i].empty()) {
        plan.failure = core::FailureCause::kDiscovery;
        return;
      }
    }
    const std::span<const std::vector<registry::InstanceId>> candidates(
        candidates_.data(), services);

    {
      const Scope s(log, "core.compose", parent, rid);
      composer_.compose_into(candidates, request.requirement, comp_);
    }
    if (!comp_.success) {
      plan.failure = core::FailureCause::kComposition;
      return;
    }
    plan.instances = comp_.instances;
    plan.composition_cost = comp_.cost;

    const std::size_t layers = plan.instances.size();
    if (hop_candidates_.size() < layers) hop_candidates_.resize(layers);
    for (std::size_t hop = 1; hop <= layers; ++hop) {
      auto& cands = hop_candidates_[hop - 1];
      cands.clear();
      for (net::PeerId p :
           services_.placement->providers(plan.instances[layers - hop])) {
        if (std::find(request.excluded_hosts.begin(),
                      request.excluded_hosts.end(),
                      p) == request.excluded_hosts.end()) {
          cands.push_back(p);
        }
      }
      if (cands.empty()) {
        plan.failure = core::FailureCause::kSelection;
        return;
      }
    }
    const std::span<const std::vector<net::PeerId>> hop_candidates(
        hop_candidates_.data(), layers);
    {
      const Scope s(log, "probe.register_path", parent, rid);
      services_.neighbors->register_path(request.requester, hop_candidates,
                                         now);
    }

    plan.hosts.assign(layers, net::kNoPeer);
    net::PeerId current = request.requester;
    for (std::size_t hop = 1; hop <= layers; ++hop) {
      const auto& inst =
          services_.catalog->instance(plan.instances[layers - hop]);
      const auto& cands = hop_candidates[hop - 1];
      {
        const Scope s(log, "probe.prepare_selection", parent, rid);
        services_.neighbors->prepare_selection(
            current, cands, static_cast<std::uint8_t>(hop),
            current == request.requester, now);
      }
      core::HopSelection chosen;
      {
        const Scope s(log, "core.select_hop", parent, rid);
        chosen = selector_.select_hop(
            *services_.peers, *services_.net,
            services_.neighbors->table(current), current, inst, cands,
            request.session_duration, now, rng_);
      }
      if (!chosen.ok()) {
        plan.failure = core::FailureCause::kSelection;
        return;
      }
      if (chosen.random_fallback) ++plan.random_fallback_hops;
      plan.hosts[layers - hop] = chosen.peer;
      current = chosen.peer;
    }
  }

 private:
  core::GridServices services_;
  cache::ComposeCache cache_;
  core::QcsComposer composer_;
  core::PeerSelector selector_;
  util::Rng rng_;
  std::string_view discover_span_;
  std::vector<std::vector<registry::InstanceId>> candidates_;
  std::vector<std::vector<net::PeerId>> hop_candidates_;
  core::CompositionResult comp_;
};

/// Per-layer metrics, all always reported (0 where a workload never
/// enters the layer), in this order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"registry.discover_us", "us"},
      {"index.discover_us", "us"},
      {"core.compose_us", "us"},
      {"probe.register_path_us", "us"},
      {"probe.prepare_selection_us", "us"},
      {"core.select_hop_us", "us"},
      {"session.start_us", "us"},
      {"engine.aggregate_us", "us"},
      {"engine.self_share", "ratio"},
      {"engine.steady_allocs", "count"},
      {"harness.aggregate_share", "ratio"},
      {"session.admission_share", "ratio"},
      {"harness.maintenance_share", "ratio"},
      {"net.active_pairs", "count"},
      {"cache.compat_hit_ratio", "ratio"},
      {"cache.discovery_hit_ratio", "ratio"},
      {"index.scans_per_request", "count"},
      {"index.postings_per_scan", "count"},
      {"index.false_positive_ratio", "ratio"},
      {"overlay.lookup_retries_per_request", "count"},
      {"fault.drop_ratio", "ratio"},
      {"replica.created", "count"},
      {"sim.events_per_request", "count"},
      {"sim.queue_peak", "count"},
      {"harness.bootstrap_peers_ms", "ms"},
      {"overlay.stabilize_ms", "ms"},
      {"registry.placement_ms", "ms"},
      {"registry.publish_ms", "ms"},
      {"session.admit_ratio", "ratio"},
      {"session.retries_per_request", "count"},
      {"core.random_fallback_hops_per_request", "count"},
      {"harness.failures_discovery", "count"},
      {"harness.failures_composition", "count"},
      {"harness.failures_selection", "count"},
      {"harness.failures_admission", "count"},
      {"harness.failures_departure", "count"},
      {"trace.replayed_requests", "count"},
      {"trace.replay_untraced_rps", "1/s"},
      {"trace.replay_traced_rps", "1/s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kUnits;
}

/// Reduces a replay's spans to per-layer self time per replayed request.
void add_span_metrics(std::map<std::string, double>& layer,
                      const std::vector<Span>& spans, std::size_t requests) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string_view, double> self_ns;
  double aggregate_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ns[spans[i].name] += static_cast<double>(self[i]);
    if (spans[i].name == "engine.aggregate") {
      aggregate_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  const double per_request_us = 1e-3 / static_cast<double>(requests);
  for (const auto& [name, ns] : self_ns) {
    if (name == "engine.aggregate") continue;
    layer[std::string(name) + "_us"] = ns * per_request_us;
  }
  layer["engine.aggregate_us"] = aggregate_ns * per_request_us;
  layer["engine.self_share"] = ratio(self_ns["engine.aggregate"], aggregate_ns);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"request\":" << s.request << ",\"parent\":"
       << (s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent))
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"self_ns\":" << self[i] << "}\n";
  }
}

void emit_layer_metrics(Report& report,
                        const std::map<std::string, double>& layer) {
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = layer.find(name);
    report.add(name, it == layer.end() ? 0.0 : it->second, unit);
  }
}

// ---------------------------------------------------------------------------
// Grid workloads
// ---------------------------------------------------------------------------

void check_grid_result(Report& report, const harness::GridResult& r) {
  const Outcome o = outcome_of(r);
  if (o.requests != o.successes + o.failures()) {
    ++report.failed;
    report.fail("accounting identity broken: " + o.str());
  }
}

/// One cell of a grid timed run: build the world, run it with one slice
/// per simulated minute, then time single aggregations on the post-run
/// world through the serving entry point the grid exposes.
CellRun run_grid_cell(const harness::GridConfig& cfg, std::size_t probes,
                      Report& report) {
  CellRun run;
  auto t0 = WallClock::now();
  auto grid = std::make_unique<harness::GridSimulation>(cfg);
  run.setup_s = seconds_since(t0);

  // A do-nothing periodic event stamps the wall clock every simulated
  // minute: it adds events to the queue and changes no outcome.
  std::vector<std::int64_t> stamps;
  stamps.reserve(static_cast<std::size_t>(cfg.horizon.as_minutes()) + 2);
  grid->simulator().every(sim::SimTime::minutes(1), sim::SimTime::minutes(1),
                          [s = &stamps] { s->push_back(now_ns()); });
  stamps.push_back(now_ns());
  const harness::GridResult result = grid->run();
  stamps.push_back(now_ns());
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    run.slice_s.push_back(static_cast<double>(stamps[i] - stamps[i - 1]) * 1e-9);
  }
  check_grid_result(report, result);
  run.outcome = outcome_of(result);
  run.work = result.requests;
  report.attempted += result.requests;

  const std::vector<Arrival> sample = sample_requests(
      *grid, util::derive_seed(cfg.seed, "latency-probe", 0), probes);
  for (const Arrival& a : sample) {
    t0 = WallClock::now();
    const core::AggregationPlan plan = grid->submit_request(a.request);
    run.probe_us.push_back(
        std::chrono::duration<double, std::micro>(WallClock::now() - t0)
            .count());
    if (!hosts_are_providers(grid->placement(), plan)) {
      ++report.failed;
      report.fail("plan host is not a provider of its instance");
    }
    run.outcome.plans = run.outcome.plans * 31 + digest(plan);
  }
  report.attempted += sample.size();
  return run;
}

/// One replay pass over a fresh grid world: the workload's first requests
/// at their arrival times, each aggregated (by the engine, or staged) and
/// admitted with the workload's retry policy.
struct ReplayPass {
  std::vector<std::uint64_t> digests;
  double wall_s = 0;
  std::uint64_t steady_allocs = 0;
};

ReplayPass replay_grid(const harness::GridConfig& cfg,
                       const std::vector<Arrival>& arrivals, bool staged,
                       SpanLog* log, Report& report) {
  harness::GridSimulation grid(cfg);
  std::unique_ptr<probe::NeighborResolution> neighbors;
  std::unique_ptr<StagedReplay> replay;
  if (staged) {
    neighbors = std::make_unique<probe::NeighborResolution>(
        cfg.probe_budget, cfg.neighbor_ttl);
    neighbors->set_faults(grid.faults());
    const core::GridServices services{
        &grid.catalog(), &grid.placement(), &grid.discovery(),
        &grid.peers(),   &grid.network(),   neighbors.get()};
    replay = std::make_unique<StagedReplay>(
        services, grid.engine().weights(), grid.peers().schema(), cfg.seed,
        cfg.discovery == harness::DiscoveryKind::kDht ? "index.discover"
                                                      : "registry.discover");
    if (cfg.replication.enabled) {
      // The grid wires the same same-epoch load signal into its engine.
      session::SessionManager& sessions = grid.sessions();
      replay->set_load_signal(
          [&sessions](net::PeerId p) { return sessions.epoch_reservations(p); });
    }
  }

  ReplayPass pass;
  pass.digests.reserve(arrivals.size() * 2);
  core::AggregationPlan plan;
  const auto start = WallClock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::uint64_t rid = i + 1;
    grid.simulator().run_until(arrivals[i].at);
    const sim::SimTime now = grid.simulator().now();
    core::ServiceRequest attempt = arrivals[i].request;
    for (int tries = 0; tries <= cfg.admission_retries; ++tries) {
      if (staged) {
        replay->aggregate_into(attempt, now, plan, log, rid);
      } else {
        const std::uint64_t a0 = heap_allocations();
        grid.engine().serve_into(attempt, plan);
        if (2 * i >= arrivals.size()) pass.steady_allocs += heap_allocations() - a0;
      }
      pass.digests.push_back(digest(plan));
      if (!hosts_are_providers(grid.placement(), plan)) {
        ++report.failed;
        report.fail("replayed plan host is not a provider of its instance");
      }
      if (!plan.ok()) break;
      net::PeerId blamed = net::kNoPeer;
      core::FailureCause cause;
      {
        const Scope s(log, "session.start", Span::kNoParent, rid);
        cause = grid.sessions().start_session(attempt, plan, &blamed);
      }
      if (cause != core::FailureCause::kAdmission || blamed == net::kNoPeer) {
        break;
      }
      if (tries < cfg.admission_retries) attempt.excluded_hosts.push_back(blamed);
    }
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

void check_same_plans(Report& report, const ReplayPass& engine_pass,
                      const ReplayPass& replay_pass, const char* which) {
  const auto& a = engine_pass.digests;
  const auto& b = replay_pass.digests;
  std::size_t mismatches = a.size() > b.size() ? a.size() - b.size()
                                               : b.size() - a.size();
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) ++mismatches;
  }
  if (mismatches > 0) {
    report.failed += mismatches;
    report.fail(std::string(which) + " replay differs from serve_into on " +
                std::to_string(mismatches) + " of " +
                std::to_string(a.size()) + " plans");
  }
}

Report run_grid_traced(Kind kind, const Options& opt) {
  Report report;
  const harness::GridConfig cfg =
      grid_config(kind, cell_seed(opt.seed, 0), opt.scale);
  std::map<std::string, double> layer;

  // 1. The workload with profile + observe, at the full length of its
  //    definition (60 simulated minutes on grid_paper, 30 on
  //    grid_churn_dht; the timed cells are shorter): ProfileReport's phase
  //    split and the metrics registry's counters.
  {
    harness::GridConfig pc = cfg;
    pc.horizon = sim::SimTime::minutes(kind == Kind::kGridPaper ? 60 : 30);
    pc.profile = true;
    pc.observe = true;
    harness::GridSimulation grid(pc);
    const harness::GridResult r = grid.run();
    check_grid_result(report, r);
    report.attempted += r.requests;
    std::printf("profiled run: %s\n", outcome_of(r).str().c_str());
    const harness::ProfileReport& p = grid.profile_report();
    const obs::MetricsRegistry& reg = *grid.metrics();
    const double requests = static_cast<double>(r.requests);
    const double aggregate_share = ratio(p.aggregate_ms, p.run_ms);
    const double admission_share = ratio(p.admission_ms, p.run_ms);
    layer["harness.aggregate_share"] = aggregate_share;
    layer["session.admission_share"] = admission_share;
    layer["harness.maintenance_share"] = 1 - aggregate_share - admission_share;
    layer["sim.events_per_request"] = ratio(static_cast<double>(p.events), requests);
    layer["sim.queue_peak"] = static_cast<double>(p.queue_peak);
    layer["harness.bootstrap_peers_ms"] = p.bootstrap_peers_ms;
    layer["overlay.stabilize_ms"] = p.bootstrap_overlay_ms;
    layer["registry.placement_ms"] = p.bootstrap_placement_ms;
    layer["registry.publish_ms"] = p.bootstrap_publish_ms;
    layer["net.active_pairs"] = gauge(reg, "net.active_pairs");
    const auto hit_ratio = [&reg](std::string_view hits, std::string_view misses) {
      const double h = static_cast<double>(counter(reg, hits));
      return ratio(h, h + static_cast<double>(counter(reg, misses)));
    };
    layer["cache.compat_hit_ratio"] =
        hit_ratio("cache.compat.hits", "cache.compat.misses");
    layer["cache.discovery_hit_ratio"] =
        hit_ratio("cache.discovery.hits", "cache.discovery.misses");
    const double scans = static_cast<double>(counter(reg, "index.scans"));
    const double postings =
        static_cast<double>(counter(reg, "index.scanned_postings"));
    layer["index.scans_per_request"] = ratio(scans, requests);
    layer["index.postings_per_scan"] = ratio(postings, scans);
    layer["index.false_positive_ratio"] = ratio(
        static_cast<double>(counter(reg, "index.false_positives")), postings);
    layer["overlay.lookup_retries_per_request"] =
        ratio(static_cast<double>(counter(reg, "lookup.retries")), requests);
    layer["fault.drop_ratio"] =
        ratio(static_cast<double>(counter(reg, "fault.dropped")),
              static_cast<double>(counter(reg, "fault.messages")));
    layer["replica.created"] = static_cast<double>(counter(reg, "replica.created"));
    const double admitted = static_cast<double>(counter(reg, "session.admitted"));
    layer["session.admit_ratio"] = ratio(
        admitted, admitted + static_cast<double>(counter(reg, "session.rejected")));
    layer["session.retries_per_request"] = ratio(
        static_cast<double>(legacy_counter(r, "admission.retries")), requests);
    layer["core.random_fallback_hops_per_request"] =
        ratio(static_cast<double>(r.random_fallback_hops), requests);
    layer["harness.failures_discovery"] = static_cast<double>(r.failures_discovery);
    layer["harness.failures_composition"] =
        static_cast<double>(r.failures_composition);
    layer["harness.failures_selection"] = static_cast<double>(r.failures_selection);
    layer["harness.failures_admission"] = static_cast<double>(r.failures_admission);
    layer["harness.failures_departure"] = static_cast<double>(r.failures_departure);
  }

  // 2. The staged replay on twin worlds built from the same seed: the
  //    engine's own serve_into (reference), the staged replay traced, and
  //    the staged replay untraced (for the tracing overhead).
  const auto replayed = static_cast<std::size_t>(
      std::max(200.0, static_cast<double>(kGridReplay) * opt.scale));
  std::vector<Arrival> arrivals;
  {
    harness::GridSimulation grid(cfg);
    arrivals = sample_requests(
        grid, util::derive_seed(cfg.seed, "requests-root", 0), replayed);
  }
  const ReplayPass engine_pass =
      replay_grid(cfg, arrivals, /*staged=*/false, nullptr, report);
  SpanLog log;
  log.reserve(arrivals.size() * 32);
  const ReplayPass traced =
      replay_grid(cfg, arrivals, /*staged=*/true, &log, report);
  const ReplayPass untraced =
      replay_grid(cfg, arrivals, /*staged=*/true, nullptr, report);
  check_same_plans(report, engine_pass, traced, "traced");
  check_same_plans(report, engine_pass, untraced, "untraced");
  report.attempted += 3 * arrivals.size();

  add_span_metrics(layer, log.spans(), arrivals.size());
  layer["engine.steady_allocs"] = static_cast<double>(engine_pass.steady_allocs);
  layer["trace.replayed_requests"] = static_cast<double>(arrivals.size());
  layer["trace.replay_traced_rps"] =
      static_cast<double>(arrivals.size()) / traced.wall_s;
  layer["trace.replay_untraced_rps"] =
      static_cast<double>(arrivals.size()) / untraced.wall_s;
  layer["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s;
  write_spans(opt.spans_out, log.spans());
  emit_layer_metrics(report, layer);
  return report;
}

// ---------------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------------

/// One serving shard over a grid world (constructed, never run): the
/// per-requester soft state the engine needs exclusively. The directory
/// seed is the grid's directory label so its keys match what bootstrap
/// published into the ring.
struct ServeShard {
  ServeShard(harness::GridSimulation& world, std::uint64_t seed)
      : directory(util::derive_seed(seed, "directory", 0), world.ring(),
                  world.catalog()),
        neighbors(kServeProbeBudget, world.config().neighbor_ttl) {
    config.seed = util::derive_seed(seed, "serve-shard", 0);
    config.algorithm = engine::AlgorithmKind::kQsa;
    // The clock is frozen, so any positive TTL keeps every cached
    // discovery fresh for the whole run.
    config.discovery_cache_ttl = sim::SimTime::minutes(10);
    deps.catalog = &world.catalog();
    deps.placement = &world.placement();
    deps.directory = &directory;
    deps.peers = &world.peers();
    deps.net = &world.network();
    deps.neighbors = &neighbors;
    deps.clock = &clock;
  }

  registry::ServiceDirectory directory;
  probe::NeighborResolution neighbors;
  engine::ManualClock clock;
  engine::EngineConfig config;
  engine::EngineDeps deps;
};

std::vector<core::ServiceRequest> serve_pool(harness::GridSimulation& world,
                                             std::uint64_t seed) {
  std::vector<core::ServiceRequest> pool;
  for (Arrival& a : sample_requests(
           world, util::derive_seed(seed, "serve-requests", 0), kServePool)) {
    pool.push_back(std::move(a.request));
  }
  return pool;
}

void check_serve_stats(Report& report, const engine::ServeStats& s) {
  if (s.ok + s.fail_discovery + s.fail_composition + s.fail_selection !=
      s.requests) {
    ++report.failed;
    report.fail("serve accounting identity broken: " +
                outcome_of(s).str());
  }
}

/// One cell of a serve_warm timed run: world, shard, engine and warmup
/// (the set-up), then timed serve_shard slices, then per-call latency over
/// the same pool.
CellRun run_serve_cell(const harness::GridConfig& cfg, Report& report) {
  CellRun run;
  const auto t0 = WallClock::now();
  auto world = std::make_unique<harness::GridSimulation>(cfg);
  ServeShard shard(*world, cfg.seed);
  engine::ServingEngine engine(shard.config, shard.deps);
  const std::vector<core::ServiceRequest> pool = serve_pool(*world, cfg.seed);
  engine::ShardLoop loop{&engine, &shard.clock, pool, 0, kServeWarmup,
                         kServeBatch};
  engine::ServeStats window = engine::serve_shard(loop);
  run.setup_s = seconds_since(t0);
  check_serve_stats(report, window);

  loop.requests = kServeSlice;
  for (std::size_t i = 0; i < kServeSlices; ++i) {
    const auto s0 = WallClock::now();
    const engine::ServeStats slice = engine::serve_shard(loop);
    run.slice_s.push_back(seconds_since(s0));
    check_serve_stats(report, slice);
    window.merge(slice);
    run.work += slice.requests;
  }
  // The accounting window (warmup + slices) is deterministic per seed.
  run.outcome = outcome_of(window);
  run.outcome.notifications = shard.neighbors.messages();
  report.attempted += window.requests;

  core::AggregationPlan plan;
  for (std::size_t i = 0; i < kServeProbes; ++i) {
    const auto p0 = WallClock::now();
    engine.serve_into(pool[i % pool.size()], plan);
    run.probe_us.push_back(
        std::chrono::duration<double, std::micro>(WallClock::now() - p0)
            .count());
    if (!hosts_are_providers(world->placement(), plan)) {
      ++report.failed;
      report.fail("served plan host is not a provider of its instance");
    }
    run.outcome.plans = run.outcome.plans * 31 + digest(plan);
  }
  report.attempted += kServeProbes;
  return run;
}

/// Appends one repeat's times: `times[i]` collects slice (or probe) i of
/// every repeat.
void add_repeat(std::vector<std::vector<double>>& times,
                const std::vector<double>& now, Report& report) {
  if (times.empty()) times.resize(now.size());
  if (times.size() != now.size()) {
    report.fail("a cell's slice count differs between repeats");
    return;
  }
  for (std::size_t i = 0; i < now.size(); ++i) times[i].push_back(now[i]);
}

Report run_timed(Kind kind, const Options& opt) {
  Report report;
  const int cells = kind == Kind::kGridChurnDht ? 20 : 16;
  const auto probes = static_cast<std::size_t>(std::max(
      20.0, opt.scale * (kind == Kind::kGridChurnDht ? 100.0 : 250.0)));

  struct Cell {
    std::vector<std::vector<double>> slice_s;   // [slice][repeat]
    std::vector<std::vector<double>> probe_us;  // [probe][repeat]
    std::optional<Outcome> outcome;
    std::uint64_t work = 0;
  };
  std::vector<Cell> cell(static_cast<std::size_t>(cells));
  std::vector<double> setup_s;
  const auto start = WallClock::now();
  double repeat_s = 0;
  int repeats = 0;
  while (repeats < kMinRepeats || seconds_since(start) + repeat_s <= opt.seconds) {
    const auto r0 = WallClock::now();
    for (int k = 0; k < cells; ++k) {
      const harness::GridConfig cfg =
          grid_config(kind, cell_seed(opt.seed, k), opt.scale);
      const CellRun run = is_grid(kind) ? run_grid_cell(cfg, probes, report)
                                        : run_serve_cell(cfg, report);
      Cell& c = cell[static_cast<std::size_t>(k)];
      setup_s.push_back(run.setup_s);
      add_repeat(c.slice_s, run.slice_s, report);
      add_repeat(c.probe_us, run.probe_us, report);
      check_repeat(report, c.outcome, run.outcome, "cell outcome");
      c.work = run.work;
      if (repeats == 0) {
        std::printf("cell %d: %s\n", k, run.outcome.str().c_str());
      }
    }
    ++repeats;
    repeat_s = seconds_since(r0);
    std::printf("repeat %d: %.3f s\n", repeats, repeat_s);
  }

  Outcome total;
  double busy_s = 0;
  std::uint64_t work = 0;
  std::vector<double> latency_us;
  for (const Cell& c : cell) {
    total += *c.outcome;
    work += c.work;
    for (const auto& t : c.slice_s) busy_s += interquartile_mean(t);
    for (const auto& t : c.probe_us) latency_us.push_back(interquartile_mean(t));
  }
  const std::size_t samples = latency_us.size();
  const double p50 = quantile(latency_us, 0.50);
  const double p99 = quantile(latency_us, 0.99);
  std::printf("total: %s\n", total.str().c_str());
  std::printf("%d cells x %d repeats; %llu requests timed in %.3f s "
              "(interquartile mean per slice); %zu latency samples "
              "(interquartile mean per request); %zu set-up samples\n",
              cells, repeats, static_cast<unsigned long long>(work), busy_s,
              samples, setup_s.size());

  const double requests = static_cast<double>(total.requests);
  report.add("requests_per_s", static_cast<double>(work) / busy_s, "1/s");
  report.add("latency_p50_us", p50, "us");
  report.add("latency_p99_us", p99, "us");
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("psi", ratio(static_cast<double>(total.successes), requests),
             "ratio");
  report.add("notifications_per_request",
             ratio(static_cast<double>(total.notifications), requests),
             "count");
  report.add("lookup_hops_per_request",
             ratio(static_cast<double>(total.hops), requests), "count");
  return report;
}

Report run_serve_traced(const Options& opt) {
  Report report;
  std::map<std::string, double> layer;
  harness::GridConfig cfg =
      grid_config(Kind::kServeWarm, cell_seed(opt.seed, 0), opt.scale);
  cfg.profile = true;
  cfg.observe = true;
  harness::GridSimulation world(cfg);
  const harness::ProfileReport& p = world.profile_report();
  layer["harness.bootstrap_peers_ms"] = p.bootstrap_peers_ms;
  layer["overlay.stabilize_ms"] = p.bootstrap_overlay_ms;
  layer["registry.placement_ms"] = p.bootstrap_placement_ms;
  layer["registry.publish_ms"] = p.bootstrap_publish_ms;
  const std::vector<core::ServiceRequest> pool = serve_pool(world, cfg.seed);
  const std::uint64_t counted = kServeTraced;

  // Reference: the engine's own serve_into on a fresh shard.
  std::vector<std::uint64_t> reference;
  reference.reserve(kServeWarmup + counted);
  engine::ServeStats stats;
  std::uint64_t steady_allocs = 0;
  {
    ServeShard shard(world, cfg.seed);
    engine::ServingEngine engine(shard.config, shard.deps);
    core::AggregationPlan plan;
    for (std::uint64_t i = 0; i < kServeWarmup + counted; ++i) {
      const std::uint64_t a0 = heap_allocations();
      engine.serve_into(pool[i % pool.size()], plan);
      if (i >= kServeWarmup) steady_allocs += heap_allocations() - a0;
      reference.push_back(digest(plan));
      stats.count(plan);
      if (!hosts_are_providers(world.placement(), plan)) {
        ++report.failed;
        report.fail("served plan host is not a provider of its instance");
      }
    }
  }
  check_serve_stats(report, stats);

  // The staged replay on twin shards, traced and untraced; spans and the
  // registry cover the counted (warm) requests only.
  SpanLog log;
  log.reserve(counted * 32);
  obs::MetricsRegistry reg;
  const auto replay_pass = [&](SpanLog* pass_log, obs::MetricsRegistry* metrics,
                               const char* which) {
    ServeShard shard(world, cfg.seed);
    shard.directory.set_cache_ttl(shard.config.discovery_cache_ttl);
    const core::GridServices services{&world.catalog(), &world.placement(),
                                      &shard.directory, &world.peers(),
                                      &world.network(),  &shard.neighbors};
    StagedReplay replay(services, world.engine().weights(),
                        world.peers().schema(), shard.config.seed,
                        "registry.discover");
    ReplayPass pass;
    pass.digests.reserve(kServeWarmup + counted);
    core::AggregationPlan plan;
    const sim::SimTime now = shard.clock.now();
    for (std::uint64_t i = 0; i < kServeWarmup; ++i) {
      replay.aggregate_into(pool[i % pool.size()], now, plan, nullptr, 0);
      pass.digests.push_back(digest(plan));
    }
    if (metrics != nullptr) {
      shard.directory.set_metrics(metrics);
      replay.set_metrics(metrics);
    }
    const auto t0 = WallClock::now();
    for (std::uint64_t i = kServeWarmup; i < kServeWarmup + counted; ++i) {
      replay.aggregate_into(pool[i % pool.size()], now, plan, pass_log, i + 1);
      pass.digests.push_back(digest(plan));
    }
    pass.wall_s = seconds_since(t0);
    ReplayPass ref;
    ref.digests = reference;
    check_same_plans(report, ref, pass, which);
    return pass;
  };
  const ReplayPass traced = replay_pass(&log, &reg, "traced");
  const ReplayPass untraced = replay_pass(nullptr, nullptr, "untraced");
  report.attempted += 3 * (kServeWarmup + counted);

  add_span_metrics(layer, log.spans(), counted);
  const auto hit_ratio = [&reg](std::string_view hits, std::string_view misses) {
    const double h = static_cast<double>(counter(reg, hits));
    return ratio(h, h + static_cast<double>(counter(reg, misses)));
  };
  layer["cache.compat_hit_ratio"] =
      hit_ratio("cache.compat.hits", "cache.compat.misses");
  layer["cache.discovery_hit_ratio"] =
      hit_ratio("cache.discovery.hits", "cache.discovery.misses");
  layer["engine.steady_allocs"] = static_cast<double>(steady_allocs);
  layer["core.random_fallback_hops_per_request"] =
      ratio(static_cast<double>(stats.random_fallback_hops),
            static_cast<double>(stats.requests));
  layer["harness.failures_discovery"] = static_cast<double>(stats.fail_discovery);
  layer["harness.failures_composition"] =
      static_cast<double>(stats.fail_composition);
  layer["harness.failures_selection"] = static_cast<double>(stats.fail_selection);
  layer["trace.replayed_requests"] = static_cast<double>(counted);
  layer["trace.replay_traced_rps"] = static_cast<double>(counted) / traced.wall_s;
  layer["trace.replay_untraced_rps"] =
      static_cast<double>(counted) / untraced.wall_s;
  layer["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s;
  std::printf("reference serve_into: %s\n", outcome_of(stats).str().c_str());
  write_spans(opt.spans_out, log.spans());
  emit_layer_metrics(report, layer);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"grid_paper",
                                                  "grid_churn_dht",
                                                  "serve_warm"};
  return kNames;
}

Report run_workload(const Options& opt) {
  const Kind kind = kind_of(opt.workload);
  if (!opt.trace) return run_timed(kind, opt);
  return is_grid(kind) ? run_grid_traced(kind, opt) : run_serve_traced(opt);
}

}  // namespace perfbench
