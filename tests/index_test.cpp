// qsa::index — the attribute-indexed discovery backend (DESIGN.md §15).
// Four properties are under test:
//
//  1. the key encoding is order-preserving: monotone bucket functions map a
//     range predicate onto one contiguous bucket span, and arcs of distinct
//     (attribute, service) pairs do not collide;
//  2. maintenance follows the soft-state contract: publish mints one posting
//     per attribute per live provider, republish re-buckets drifted values,
//     retirement erases eagerly, and departed providers age out after
//     `expiry_epochs` missed republishes — nothing else removes them;
//  3. a range query is *conservatively exact*: the routed bucket scans plus
//     the client-side re-check return precisely the brute-force answer over
//     the published records (false positives dropped and counted, nothing
//     qualifying ever missed), and under fault injection a lost mid-scan
//     segment is rerouted or the whole query fails — a non-failed result is
//     never a truncated candidate set;
//  4. the grid-level backend seam: --discovery=dht runs are deterministic
//     under churn and faults on all three overlays, index.* counters are
//     exported only when the backend is enabled, and the end-of-run index.*
//     and fault.* totals read the same in GridResult and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "qsa/fault/fault.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/index/attribute_index.hpp"
#include "qsa/index/keys.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/registry/placement.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::index {
namespace {

using sim::SimTime;

// ------------------------------------------------------------ key encoding

TEST(IndexKeys, BucketFunctionsAreMonotone) {
  for (double lo = 0; lo < 1600; lo += 7) {
    EXPECT_LE(cpu_bucket(lo), cpu_bucket(lo + 7));
  }
  for (int tier = 0; tier < 3; ++tier) {
    // Flipped: a *smaller* tier (faster link) gets a *larger* bucket.
    EXPECT_GT(bandwidth_bucket(tier), bandwidth_bucket(tier + 1));
  }
  for (double m = 0; m < 20000; m += 37) {
    EXPECT_LE(uptime_bucket(SimTime::minutes(m)),
              uptime_bucket(SimTime::minutes(m + 37)));
  }
  for (double level = 0; level < 100; level += 0.5) {
    EXPECT_LE(level_bucket(level), level_bucket(level + 0.5));
  }
}

TEST(IndexKeys, BucketFunctionsClampToTheArc) {
  EXPECT_EQ(cpu_bucket(-5), 0);
  EXPECT_EQ(cpu_bucket(1e9), kBuckets - 1);
  EXPECT_EQ(bandwidth_bucket(99), 0);
  EXPECT_EQ(bandwidth_bucket(-1), 3);
  EXPECT_EQ(uptime_bucket(SimTime::zero()), 0);
  EXPECT_EQ(level_bucket(-1), 0);
  EXPECT_EQ(level_bucket(1000), kBuckets - 1);
}

TEST(IndexKeys, ConsecutiveBucketsAreConsecutiveKeys) {
  for (int b = 0; b + 1 < kBuckets; ++b) {
    EXPECT_EQ(index_key(42, Attribute::kCpu, 3, b + 1) -
                  index_key(42, Attribute::kCpu, 3, b),
              kBucketStride);
  }
}

TEST(IndexKeys, ArcsOfDistinctAttributeServicePairsDiffer) {
  std::set<overlay::Key> bases;
  for (int a = 0; a < kAttributeCount; ++a) {
    for (registry::ServiceId s = 0; s < 50; ++s) {
      bases.insert(arc_base(42, static_cast<Attribute>(a), s));
    }
  }
  EXPECT_EQ(bases.size(), 4u * 50u);
}

TEST(IndexKeys, PostingPackRoundTrips) {
  const Posting p = pack_posting(0x1234'5678u, 0x9abc'def0u);
  EXPECT_EQ(posting_instance(p), 0x1234'5678u);
  EXPECT_EQ(posting_provider(p), 0x9abc'def0u);
}

// ------------------------------------------------------------- maintenance

/// A hand-built world: 64 peers on a Chord ring, one service, instances and
/// placements added per test. Peer p gets capacity 100 + 14p (so cpu
/// buckets spread) and joins at t = -p minutes (pre-aged uptime).
struct IndexFixture : ::testing::Test {
  static constexpr qos::ParamId kLevel = 0;
  static constexpr std::uint64_t kSeed = 9;

  IndexFixture()
      : peers(qos::ResourceSchema::paper(),
              net::ProbeClock(SimTime::seconds(30))),
        net(kSeed, net::ProbeClock(SimTime::seconds(30))),
        ring(kSeed, 3) {}

  void SetUp() override {
    for (net::PeerId p = 0; p < 64; ++p) {
      const double cpu = 100 + 14.0 * p;
      peers.add_peer(qos::ResourceVector{cpu, cpu},
                     SimTime::minutes(-static_cast<double>(p)));
      ring.join(p);
    }
    ring.stabilize_all();
    s0 = catalog.add_service("svc");
  }

  registry::InstanceId add_instance(double level,
                                    std::vector<net::PeerId> providers) {
    registry::ServiceInstance inst;
    inst.service = s0;
    inst.qout.set(kLevel, qos::QosValue::range(level, level + 5));
    inst.resources = qos::ResourceVector{10, 10};
    inst.bandwidth_kbps = 100;
    const auto id = catalog.add_instance(inst);
    for (const auto p : providers) placement.add_provider(id, p);
    return id;
  }

  AttributeIndex make_index(IndexConfig config = {}) {
    return AttributeIndex(kSeed, ring, catalog, placement, peers, net,
                          kLevel, config);
  }

  /// Brute force over the published records — what the scan + exact
  /// re-check must reproduce. Mirrors the publish-time snapshot: capacity,
  /// uptime at `published_at`, access tier, Qout level floor.
  std::vector<registry::InstanceId> oracle(const RangeQuery& q,
                                           SimTime published_at) const {
    std::set<registry::InstanceId> hit;
    for (registry::InstanceId i = 0;
         i < static_cast<registry::InstanceId>(catalog.instance_count());
         ++i) {
      if (catalog.instance(i).service != q.service) continue;
      const double level = catalog.instance(i).qout.get(kLevel)->lo();
      for (const auto p : placement.providers(i)) {
        if (!peers.alive(p)) continue;
        const auto peer = peers.peer(p);
        if (q.min_cpu && peer.capacity()[0] < *q.min_cpu) continue;
        if (q.max_tier && net.access_tier(p) > *q.max_tier) continue;
        if (q.min_uptime_min &&
            peer.uptime(published_at).as_minutes() < *q.min_uptime_min) {
          continue;
        }
        if (q.min_level && level < *q.min_level) continue;
        hit.insert(i);
        break;
      }
    }
    return {hit.begin(), hit.end()};
  }

  net::PeerTable peers;
  net::NetworkModel net;
  overlay::ChordRing ring;
  registry::ServiceCatalog catalog;
  registry::PlacementMap placement;
  registry::ServiceId s0 = 0;
};

TEST_F(IndexFixture, PublishMintsOnePostingPerAttributePerProvider) {
  const auto i0 = add_instance(50, {3, 7, 11});
  auto index = make_index();
  index.publish(i0, SimTime::minutes(10));

  EXPECT_EQ(index.stats().publishes, 3u);
  EXPECT_EQ(index.postings(), 3u);
  for (const net::PeerId p : {3, 7, 11}) {
    const Posting posting = pack_posting(i0, static_cast<net::PeerId>(p));
    const auto peer = peers.peer(static_cast<net::PeerId>(p));
    const overlay::Key cpu_key =
        index_key(kSeed, Attribute::kCpu, s0, cpu_bucket(peer.capacity()[0]));
    const auto at_cpu = ring.values(cpu_key);
    EXPECT_TRUE(std::find(at_cpu.begin(), at_cpu.end(), posting) !=
                at_cpu.end());
    const overlay::Key level_key =
        index_key(kSeed, Attribute::kLevel, s0, level_bucket(50));
    const auto at_level = ring.values(level_key);
    EXPECT_TRUE(std::find(at_level.begin(), at_level.end(), posting) !=
                at_level.end());
  }
}

TEST_F(IndexFixture, RepublishReBucketsDriftedValuesOnce) {
  add_instance(50, {5});
  auto index = make_index();

  // At t=2min peer 5 has 7 minutes of uptime (bucket 3); at t=60min it has
  // 65 (bucket 6) — the posting must move arcs exactly once.
  index.publish_all(SimTime::minutes(2));
  EXPECT_EQ(index.stats().publishes, 1u);
  const overlay::Key old_key =
      index_key(kSeed, Attribute::kUptime, s0, uptime_bucket(SimTime::minutes(7)));
  EXPECT_EQ(ring.values(old_key).size(), 1u);

  index.publish_all(SimTime::minutes(60));
  EXPECT_EQ(index.stats().updates, 1u);
  EXPECT_EQ(index.postings(), 1u);  // moved, not duplicated
  EXPECT_TRUE(ring.values(old_key).empty());
  const overlay::Key new_key =
      index_key(kSeed, Attribute::kUptime, s0, uptime_bucket(SimTime::minutes(65)));
  EXPECT_EQ(ring.values(new_key).size(), 1u);
}

TEST_F(IndexFixture, UnpublishAndRemoveEraseEagerly) {
  const auto i0 = add_instance(50, {3, 7});
  const auto i1 = add_instance(60, {7});
  auto index = make_index();
  index.publish_all(SimTime::minutes(1));
  ASSERT_EQ(index.postings(), 3u);

  // Replica retirement: one (instance, provider) posting, nothing else.
  index.remove(i0, 7);
  EXPECT_EQ(index.postings(), 2u);
  std::vector<registry::InstanceId> out;
  RangeQuery q;
  q.service = s0;
  (void)index.query_into(q, 0, nullptr, out);
  EXPECT_EQ(out, (std::vector<registry::InstanceId>{i0, i1}));

  index.unpublish(i0);
  EXPECT_EQ(index.postings(), 1u);
  (void)index.query_into(q, 0, nullptr, out);
  EXPECT_EQ(out, (std::vector<registry::InstanceId>{i1}));
}

TEST_F(IndexFixture, DepartedProvidersAgeOutAfterExpiryEpochs) {
  const auto i0 = add_instance(50, {3, 7});
  auto index = make_index(IndexConfig{2});
  index.publish_all(SimTime::minutes(1));
  ASSERT_EQ(index.postings(), 2u);

  // Peer 7 departs. Its placement row would be pruned by the grid; here we
  // only kill liveness — publish must skip it either way.
  peers.remove_peer(7, SimTime::minutes(2));

  // One missed refresh: within expiry_epochs, the posting lingers (and a
  // query still returns it, counted stale — the soft-state window).
  index.publish_all(SimTime::minutes(3));
  EXPECT_EQ(index.postings(), 2u);
  std::vector<registry::InstanceId> out;
  RangeQuery q;
  q.service = s0;
  const auto qs = index.query_into(q, 0, nullptr, out);
  EXPECT_EQ(out, (std::vector<registry::InstanceId>{i0}));
  EXPECT_EQ(qs.stale, 1);

  // Second missed refresh reaches the expiry horizon: swept.
  index.publish_all(SimTime::minutes(5));
  EXPECT_EQ(index.postings(), 1u);
  EXPECT_EQ(index.stats().expiries, 1u);
  const auto qs2 = index.query_into(q, 0, nullptr, out);
  EXPECT_EQ(out, (std::vector<registry::InstanceId>{i0}));
  EXPECT_EQ(qs2.stale, 0);
}

// ------------------------------------------------- query vs. brute force

TEST_F(IndexFixture, RangeQueriesMatchTheBruteForceOracle) {
  // A populated world: 10 instances, each hosted by a pseudo-random subset
  // of the 64 peers, levels spread over [10, 95].
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    std::vector<net::PeerId> providers;
    for (net::PeerId p = 0; p < 64; ++p) {
      if (rng.uniform() < 0.25) providers.push_back(p);
    }
    if (providers.empty()) providers.push_back(static_cast<net::PeerId>(i));
    add_instance(10 + 85.0 * rng.uniform(), std::move(providers));
  }
  auto index = make_index();
  const auto published_at = SimTime::minutes(30);
  index.publish_all(published_at);

  // Sweep single- and multi-attribute predicate combinations, including
  // thresholds off bucket boundaries (false positives) and unsatisfiable
  // floors (empty answers).
  std::vector<RangeQuery> queries;
  for (const double cpu : {0.0, 137.0, 400.0, 811.0, 2000.0}) {
    for (const double level : {0.0, 33.3, 62.0, 99.0}) {
      RangeQuery q;
      q.service = s0;
      if (cpu > 0) q.min_cpu = cpu;
      if (level > 0) q.min_level = level;
      queries.push_back(q);
    }
  }
  for (const int tier : {0, 1, 2}) {
    RangeQuery q;
    q.service = s0;
    q.max_tier = tier;
    q.min_uptime_min = 17;
    queries.push_back(q);
    q.min_cpu = 300;
    q.min_level = 40;
    queries.push_back(q);
  }

  std::uint64_t total_false_positives = 0;
  for (const auto& q : queries) {
    std::vector<registry::InstanceId> out;
    const auto qs = index.query_into(q, 19, nullptr, out);
    EXPECT_FALSE(qs.failed);
    EXPECT_EQ(out, oracle(q, published_at));
    EXPECT_GE(qs.scanned, static_cast<int>(out.size()));
    total_false_positives += static_cast<std::uint64_t>(qs.false_positives);
  }
  // Off-boundary thresholds must have produced (and dropped) some
  // quantization false positives — otherwise the re-check is vacuous.
  EXPECT_GT(total_false_positives, 0u);
  EXPECT_EQ(index.stats().false_positives, total_false_positives);
}

TEST_F(IndexFixture, ScanCostIsLogNPlusSpanNotPerBucketLookups) {
  const auto i0 = add_instance(50, {3, 7, 11, 13});
  (void)i0;
  auto index = make_index();
  index.publish_all(SimTime::minutes(1));

  // A one-bucket scan pays the O(log N) routing leg once.
  RangeQuery narrow;
  narrow.service = s0;
  narrow.min_level = 50;  // level 50 -> bucket 32; span [32, 63]
  std::vector<registry::InstanceId> out;
  const auto qs_narrow = index.query_into(narrow, 40, nullptr, out);

  // The full-arc membership scan routes 64 segments but walks on-arc:
  // consecutive bucket keys land on the same or adjacent owners, so the
  // total stays a small constant per segment on top of the first leg —
  // nowhere near 64 independent O(log N) lookups.
  RangeQuery membership;
  membership.service = s0;
  const auto qs_full = index.query_into(membership, 40, nullptr, out);
  EXPECT_EQ(qs_full.segments, kBuckets);
  const double log_n = std::log2(64.0);
  EXPECT_LT(qs_full.hops, 2 * log_n + 2.0 * kBuckets);
  EXPECT_LT(qs_full.hops - qs_narrow.hops, 2.0 * kBuckets);
}

// ------------------------------------------- fault injection (satellite 3)

TEST_F(IndexFixture, MidScanLossReroutesOrFailsNeverTruncates) {
  util::Rng rng(13);
  for (int i = 0; i < 6; ++i) {
    std::vector<net::PeerId> providers;
    for (net::PeerId p = 0; p < 64; ++p) {
      if (rng.uniform() < 0.3) providers.push_back(p);
    }
    if (providers.empty()) providers.push_back(static_cast<net::PeerId>(i));
    add_instance(10 + 85.0 * rng.uniform(), std::move(providers));
  }
  auto index = make_index();
  const auto published_at = SimTime::minutes(30);
  index.publish_all(published_at);

  RangeQuery q;
  q.service = s0;
  q.min_level = 20;
  const auto expected = oracle(q, published_at);
  ASSERT_FALSE(expected.empty());

  // No per-send retries and heavy loss: each hop message survives with
  // probability 0.65 and the overlay's own alternate-neighbor reroute is
  // the only internal recovery, so segment losses actually reach the
  // index's requester-side reroute (and some exhaust it).
  fault::FaultConfig fc;
  fc.lookup_loss = 0.35;
  fc.max_retries = 0;
  const fault::FaultPlan plan(kSeed, fc);
  ring.set_faults(&plan);

  // Drive the same scan from every peer. The invariant: a non-failed query
  // returns the complete oracle answer (a lost segment was rerouted), a
  // failed query returns nothing — never a truncated posting set passed
  // off as complete.
  int failed = 0, rerouted_ok = 0;
  for (net::PeerId from = 0; from < 64; ++from) {
    std::vector<registry::InstanceId> out;
    const auto qs = index.query_into(q, from, nullptr, out);
    if (qs.failed) {
      ++failed;
      EXPECT_TRUE(out.empty());
    } else {
      EXPECT_EQ(out, expected);
      if (qs.rerouted > 0) ++rerouted_ok;
    }
  }
  ring.set_faults(nullptr);

  // At 35% hop loss over the scanned span, all three outcomes must occur:
  // clean scans, scans saved by the requester-side reroute, and scans lost
  // even after it.
  EXPECT_GT(failed, 0);
  EXPECT_GT(rerouted_ok, 0);
  EXPECT_LT(failed, 64);
  EXPECT_EQ(index.stats().failed_scans, static_cast<std::uint64_t>(failed));
  EXPECT_GT(index.stats().scan_reroutes, 0u);
}

// --------------------------------------------------- grid-level seam

harness::GridConfig dht_config(harness::OverlayKind overlay) {
  harness::GridConfig c;
  c.seed = 11;
  c.peers = 300;
  c.min_providers = 15;
  c.max_providers = 30;
  c.apps.applications = 6;
  c.requests.rate_per_min = 20;
  c.horizon = sim::SimTime::minutes(15);
  c.sample_period = sim::SimTime::minutes(2);
  c.overlay = overlay;
  c.discovery = harness::DiscoveryKind::kDht;
  c.churn.events_per_min = 4;
  c.faults.lookup_loss = 0.02;
  return c;
}

TEST(IndexGrid, DhtDiscoveryIsDeterministicUnderChurnOnAllOverlays) {
  for (const auto overlay :
       {harness::OverlayKind::kChord, harness::OverlayKind::kCan,
        harness::OverlayKind::kPastry}) {
    auto run_once = [overlay] {
      harness::GridSimulation grid(dht_config(overlay));
      return grid.run();
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_GT(a.requests, 100u);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.lookup_hops, b.lookup_hops);
    EXPECT_EQ(a.setup_latency_ms, b.setup_latency_ms);
    EXPECT_EQ(a.churn_departures, b.churn_departures);
    EXPECT_EQ(a.counters.all(), b.counters.all());
    // The index answered every tier-1a lookup and the run stayed healthy.
    EXPECT_GT(a.counters.get("index.scans"), 0u);
    EXPECT_GT(a.success_ratio(), 0.3)
        << "overlay " << harness::to_string(overlay);
  }
}

TEST(IndexGrid, IndexCountersAppearOnlyWhenBackendEnabled) {
  auto cfg = dht_config(harness::OverlayKind::kChord);
  cfg.discovery = harness::DiscoveryKind::kDirectory;
  harness::GridSimulation directory_grid(cfg);
  const auto directory_run = directory_grid.run();
  for (const auto& [name, value] : directory_run.counters.all()) {
    EXPECT_NE(name.substr(0, 6), "index.") << name;
  }

  cfg.discovery = harness::DiscoveryKind::kDht;
  harness::GridSimulation dht_grid(cfg);
  const auto dht_run = dht_grid.run();
  EXPECT_GT(dht_run.counters.get("index.publishes"), 0u);
  EXPECT_GT(dht_run.counters.get("index.scans"), 0u);
  EXPECT_GT(dht_run.counters.get("index.scan_hops"), 0u);
}

TEST(IndexGrid, EndOfRunTotalsAgreeAcrossResultAndRegistry) {
  auto cfg = dht_config(harness::OverlayKind::kChord);
  cfg.faults.set_all_loss(0.01);
  cfg.observe = true;
  harness::GridSimulation grid(cfg);
  const auto r = grid.run();
  ASSERT_NE(grid.metrics(), nullptr);
  const obs::MetricsRegistry& m = *grid.metrics();
  ASSERT_GT(r.counters.get("fault.dropped"), 0u);
  ASSERT_GT(r.counters.get("index.scans"), 0u);

  const auto is_total = [](std::string_view name) {
    return name.starts_with("fault.") || name.starts_with("index.");
  };
  std::set<std::string> result_names;
  for (const auto& [name, value] : r.counters.all()) {
    if (!is_total(name)) continue;
    result_names.emplace(name);
    if (name == "index.postings") {
      const auto g = m.gauges().find(name);
      ASSERT_NE(g, m.gauges().end());
      EXPECT_EQ(g->second.value, static_cast<double>(value));
    } else {
      const auto c = m.counters().find(name);
      ASSERT_NE(c, m.counters().end()) << name;
      EXPECT_EQ(c->second.value, value) << name;
    }
  }
  // index.lookups is DhtDiscovery's live registry counter, not an
  // end-of-run total, so it has no GridResult twin.
  std::set<std::string> registry_names;
  for (const auto& [name, c] : m.counters()) {
    if (is_total(name) && name != "index.lookups") registry_names.insert(name);
  }
  for (const auto& [name, g] : m.gauges()) {
    if (is_total(name)) registry_names.insert(name);
  }
  EXPECT_EQ(result_names, registry_names);

  // The fault block's unprefixed retry totals land in both channels too.
  for (const std::string_view name :
       {"probe.retries", "lookup.retries", "lookup.rerouted",
        "session.recovery_retries"}) {
    const auto c = m.counters().find(name);
    ASSERT_NE(c, m.counters().end()) << name;
    EXPECT_EQ(c->second.value, r.counters.get(name)) << name;
  }
}

}  // namespace
}  // namespace qsa::index
