// Microbenchmarks (google-benchmark) for the core algorithms and hot
// substrate paths:
//   * the eq. 1 satisfy check,
//   * QCS composition vs layer width K (the paper's O(K V^2) bound),
//   * one peer-selection step vs candidate count,
//   * neighbor-table adds at the paper's budget M = 100,
//   * Chord lookups vs ring size (hop counts ~ log N),
//   * event-queue throughput and the pairwise network draw.
#include <benchmark/benchmark.h>

#include <vector>

#include "qsa/core/compose.hpp"
#include "qsa/core/select.hpp"
#include "qsa/net/network.hpp"
#include "qsa/overlay/can_overlay.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/overlay/pastry_overlay.hpp"
#include "qsa/probe/neighbor_table.hpp"
#include "qsa/qos/satisfy.hpp"
#include "qsa/sim/event_queue.hpp"
#include "qsa/util/rng.hpp"

namespace {

using namespace qsa;

constexpr qos::ParamId kLevel = 0;
constexpr qos::ParamId kFormat = 1;

qos::QosVector make_vec(util::Rng& rng) {
  qos::QosVector v;
  const double lo = rng.uniform(0, 80);
  v.set(kLevel, qos::QosValue::range(lo, lo + rng.uniform(1, 20)));
  v.set(kFormat, qos::QosValue::symbol(static_cast<qos::Symbol>(rng.index(4))));
  return v;
}

void BM_SatisfyCheck(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<std::pair<qos::QosVector, qos::QosVector>> pairs;
  for (int i = 0; i < 256; ++i) pairs.emplace_back(make_vec(rng), make_vec(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [out, in] = pairs[i++ & 255];
    benchmark::DoNotOptimize(qos::satisfies(out, in));
  }
}
BENCHMARK(BM_SatisfyCheck);

/// Builds a composable L-layer catalog with K instances per layer.
struct ComposeSetup {
  registry::ServiceCatalog catalog;
  core::CompositionRequest request;

  ComposeSetup(int layers, int k) {
    util::Rng rng(7);
    for (int l = 0; l < layers; ++l) {
      const auto svc = catalog.add_service("svc");
      std::vector<registry::InstanceId> layer;
      for (int i = 0; i < k; ++i) {
        registry::ServiceInstance inst;
        inst.service = svc;
        if (l > 0) {
          inst.qin.set(kLevel, qos::QosValue::range(0, 100));  // accepts all
        }
        const double lo = rng.uniform(10, 80);
        inst.qout.set(kLevel, qos::QosValue::range(lo, lo + 10));
        inst.resources = qos::ResourceVector{rng.uniform(5, 100),
                                             rng.uniform(5, 100)};
        inst.bandwidth_kbps = rng.uniform(40, 400);
        layer.push_back(catalog.add_instance(inst));
      }
      request.candidates.push_back(std::move(layer));
    }
    request.requirement.set(kLevel, qos::QosValue::range(0, 100));
  }
};

void BM_QcsCompose(benchmark::State& state) {
  const int layers = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  ComposeSetup setup(layers, k);
  core::QcsComposer composer(setup.catalog, qos::TupleWeights::uniform(2),
                             qos::ResourceSchema::paper());
  std::size_t edges = 0, nodes_checked = 0;
  for (auto _ : state) {
    const auto result = composer.compose(setup.request);
    edges = result.edges_examined;
    nodes_checked = result.nodes_checked;
    benchmark::DoNotOptimize(result.cost);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["nodes_checked"] = static_cast<double>(nodes_checked);
  state.SetComplexityN(layers * k * k);
}
BENCHMARK(BM_QcsCompose)
    ->Args({2, 10})
    ->Args({3, 15})
    ->Args({5, 15})
    ->Args({5, 20})
    ->Args({5, 40});

/// BM_QcsCompose with the qsa::cache memo tables attached — the steady-state
/// cost of recomposing over a warm catalog (the grid's common case: many
/// requests, one catalog). Compare against BM_QcsCompose per Args row for
/// the cached/uncached throughput ratio.
void BM_QcsComposeCached(benchmark::State& state) {
  const int layers = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  ComposeSetup setup(layers, k);
  core::QcsComposer composer(setup.catalog, qos::TupleWeights::uniform(2),
                             qos::ResourceSchema::paper());
  cache::ComposeCache cache;
  composer.set_cache(&cache);
  std::size_t edges = 0, nodes_checked = 0;
  for (auto _ : state) {
    const auto result = composer.compose(setup.request);
    edges = result.edges_examined;
    nodes_checked = result.nodes_checked;
    benchmark::DoNotOptimize(result.cost);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["nodes_checked"] = static_cast<double>(nodes_checked);
  state.SetComplexityN(layers * k * k);
}
BENCHMARK(BM_QcsComposeCached)
    ->Args({2, 10})
    ->Args({3, 15})
    ->Args({5, 15})
    ->Args({5, 20})
    ->Args({5, 40});

void BM_PeerSelectionStep(benchmark::State& state) {
  const auto candidates_n = static_cast<std::size_t>(state.range(0));
  net::PeerTable peers(qos::ResourceSchema::paper(),
                       net::ProbeClock(sim::SimTime::seconds(30)));
  net::NetworkModel net(1, net::ProbeClock(sim::SimTime::seconds(30)));
  probe::NeighborTable table(candidates_n + 10);
  util::Rng rng(5);

  const net::PeerId me =
      peers.add_peer(qos::ResourceVector{500, 500}, sim::SimTime::minutes(-60));
  std::vector<net::PeerId> candidates;
  for (std::size_t i = 0; i < candidates_n; ++i) {
    const double cap = rng.uniform(100, 1000);
    const auto p = peers.add_peer(qos::ResourceVector{cap, cap},
                                  sim::SimTime::minutes(-rng.uniform(1, 120)));
    table.add(p, 1, probe::NeighborKind::kDirect, sim::SimTime::zero(),
              sim::SimTime::minutes(120));
    candidates.push_back(p);
  }
  registry::ServiceInstance inst;
  inst.resources = qos::ResourceVector{40, 40};
  inst.bandwidth_kbps = 50;
  core::PeerSelector selector(qos::TupleWeights::uniform(2),
                              qos::ResourceSchema::paper());
  for (auto _ : state) {
    const auto sel =
        selector.select_hop(peers, net, table, me, inst, candidates,
                            sim::SimTime::minutes(30), sim::SimTime::zero(), rng);
    benchmark::DoNotOptimize(sel.peer);
  }
}
BENCHMARK(BM_PeerSelectionStep)->Arg(10)->Arg(40)->Arg(80)->Arg(160);

/// One full M = 100 neighbor table taking batches of 180 adds (3 hops x 60
/// candidates, the size of one register_path call); items are adds. The
/// argument picks the batch:
///   0 — rejected: every newcomer ranks below the whole table;
///   1 — evicting: every newcomer ties the table's rank with a later
///       deadline, so each add evicts the stalest entry (FIFO);
///   2 — register_path: the same 3-hop path re-registered each iteration —
///       hop-1 refreshes, hop-2 refreshes plus evictions among equals, hop-3
///       rejections.
void BM_NeighborTableAdd(benchmark::State& state) {
  constexpr std::size_t kBudget = 100;
  constexpr std::size_t kHops = 3;
  constexpr std::size_t kPerHop = 60;
  const auto batch = state.range(0);
  const auto ttl = sim::SimTime::minutes(90);
  const auto kind = probe::NeighborKind::kDirect;
  probe::NeighborTable table(kBudget);
  sim::SimTime now = sim::SimTime::zero();
  net::PeerId fresh = 0;
  for (; fresh < kBudget; ++fresh) table.add(fresh, 2, kind, now, ttl);
  constexpr net::PeerId kOutsider = 1'000'000;  // never admitted in batch 0
  for (auto _ : state) {
    for (std::size_t hop = 1; hop <= kHops; ++hop) {
      for (std::size_t c = 0; c < kPerHop; ++c) {
        bool added = false;
        if (batch == 0) {
          added = table.add(kOutsider + static_cast<net::PeerId>(c), 3, kind,
                            now, ttl);
        } else if (batch == 1) {
          now += sim::SimTime::millis(1);
          added = table.add(fresh++, 2, kind, now, ttl);
        } else {
          added = table.add(
              static_cast<net::PeerId>((hop - 1) * kPerHop + c),
              static_cast<std::uint8_t>(hop), kind, now, ttl);
        }
        benchmark::DoNotOptimize(added);
      }
    }
    if (batch == 2) now += sim::SimTime::seconds(1);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kHops * kPerHop));
  state.SetLabel(batch == 0 ? "rejected" : batch == 1 ? "evicting"
                                                      : "register_path");
}
BENCHMARK(BM_NeighborTableAdd)->Arg(0)->Arg(1)->Arg(2);

void BM_CanLookup(benchmark::State& state) {
  const auto nodes = static_cast<net::PeerId>(state.range(0));
  overlay::CanOverlay can(3, 2);
  for (net::PeerId p = 0; p < nodes; ++p) can.join(p);
  util::Rng rng(9);
  std::int64_t hops = 0, lookups = 0;
  for (auto _ : state) {
    const auto stats =
        can.route(rng(), static_cast<net::PeerId>(rng.index(nodes)));
    hops += stats.hops;
    ++lookups;
    benchmark::DoNotOptimize(stats.owner);
  }
  state.counters["avg_hops"] =
      static_cast<double>(hops) / static_cast<double>(lookups);
}
BENCHMARK(BM_CanLookup)->Arg(128)->Arg(1024)->Arg(8192);

void BM_PastryLookup(benchmark::State& state) {
  const auto nodes = static_cast<net::PeerId>(state.range(0));
  overlay::PastryOverlay pastry(3, 2);
  for (net::PeerId p = 0; p < nodes; ++p) pastry.join(p);
  pastry.stabilize_all();
  util::Rng rng(9);
  std::int64_t hops = 0, lookups = 0;
  for (auto _ : state) {
    const auto stats =
        pastry.route(rng(), static_cast<net::PeerId>(rng.index(nodes)));
    hops += stats.hops;
    ++lookups;
    benchmark::DoNotOptimize(stats.owner);
  }
  state.counters["avg_hops"] =
      static_cast<double>(hops) / static_cast<double>(lookups);
}
BENCHMARK(BM_PastryLookup)->Arg(128)->Arg(1024)->Arg(8192);

void BM_ChordLookup(benchmark::State& state) {
  const auto nodes = static_cast<net::PeerId>(state.range(0));
  overlay::ChordRing ring(3, 2);
  for (net::PeerId p = 0; p < nodes; ++p) ring.join(p);
  ring.stabilize_all();
  util::Rng rng(9);
  std::int64_t hops = 0, lookups = 0;
  for (auto _ : state) {
    const auto stats = ring.route(rng(), static_cast<net::PeerId>(rng.index(nodes)));
    hops += stats.hops;
    ++lookups;
    benchmark::DoNotOptimize(stats.owner);
  }
  state.counters["avg_hops"] =
      static_cast<double>(hops) / static_cast<double>(lookups);
}
BENCHMARK(BM_ChordLookup)->Arg(128)->Arg(1024)->Arg(8192);

void BM_EventQueueThroughput(benchmark::State& state) {
  sim::EventQueue q;
  util::Rng rng(11);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.schedule(sim::SimTime::millis(t + static_cast<std::int64_t>(rng.index(1000))),
                 [] {});
    }
    for (int i = 0; i < 64; ++i) {
      auto fired = q.pop();
      t = fired.time.as_millis();
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_NetworkPairDraw(benchmark::State& state) {
  net::NetworkModel net(1, net::ProbeClock(sim::SimTime::seconds(30)));
  util::Rng rng(13);
  for (auto _ : state) {
    const auto a = static_cast<net::PeerId>(rng.index(10'000));
    const auto b = static_cast<net::PeerId>(rng.index(10'000));
    benchmark::DoNotOptimize(net.capacity_kbps(a, b));
    benchmark::DoNotOptimize(net.latency(a, b));
  }
}
BENCHMARK(BM_NetworkPairDraw);

}  // namespace

BENCHMARK_MAIN();
