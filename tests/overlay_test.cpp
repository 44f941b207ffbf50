#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "qsa/net/network.hpp"
#include "qsa/overlay/chord_id.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::overlay {
namespace {

std::vector<std::uint64_t> as_vector(std::span<const std::uint64_t> values) {
  return {values.begin(), values.end()};
}

// ------------------------------------------------------- ring intervals

TEST(ChordInterval, OpenClosedBasic) {
  EXPECT_TRUE(in_interval_oc(10, 20, 15));
  EXPECT_TRUE(in_interval_oc(10, 20, 20));
  EXPECT_FALSE(in_interval_oc(10, 20, 10));
  EXPECT_FALSE(in_interval_oc(10, 20, 25));
}

TEST(ChordInterval, OpenClosedWraps) {
  EXPECT_TRUE(in_interval_oc(~0ull - 5, 5, 0));
  EXPECT_TRUE(in_interval_oc(~0ull - 5, 5, 5));
  EXPECT_TRUE(in_interval_oc(~0ull - 5, 5, ~0ull));
  EXPECT_FALSE(in_interval_oc(~0ull - 5, 5, 6));
  EXPECT_FALSE(in_interval_oc(~0ull - 5, 5, ~0ull - 5));
}

TEST(ChordInterval, DegenerateIsWholeRing) {
  EXPECT_TRUE(in_interval_oc(7, 7, 0));
  EXPECT_TRUE(in_interval_oc(7, 7, 7));
}

TEST(ChordInterval, OpenOpenBasic) {
  EXPECT_TRUE(in_interval_oo(10, 20, 15));
  EXPECT_FALSE(in_interval_oo(10, 20, 10));
  EXPECT_FALSE(in_interval_oo(10, 20, 20));
  EXPECT_TRUE(in_interval_oo(20, 10, 25));
  EXPECT_TRUE(in_interval_oo(20, 10, 5));
  EXPECT_FALSE(in_interval_oo(20, 10, 15));
}

TEST(ChordKeys, NodeAndDataKeysAreStable) {
  EXPECT_EQ(node_key(1, 7), node_key(1, 7));
  EXPECT_NE(node_key(1, 7), node_key(1, 8));
  EXPECT_NE(node_key(1, 7), node_key(2, 7));
  EXPECT_EQ(data_key(1, "svc"), data_key(1, "svc"));
  EXPECT_NE(data_key(1, "svc"), data_key(1, "svc2"));
  EXPECT_NE(data_key(1, std::uint64_t{3}), data_key(1, std::uint64_t{4}));
}

// ------------------------------------------------------------- ChordRing

ChordRing make_ring(std::size_t nodes, std::uint64_t seed = 1,
                    int replicas = 2) {
  ChordRing ring(seed, replicas);
  for (net::PeerId p = 0; p < nodes; ++p) ring.join(p);
  ring.stabilize_all();
  return ring;
}

TEST(ChordRing, JoinGrowsRing) {
  ChordRing ring(1);
  EXPECT_EQ(ring.size(), 0u);
  ring.join(0);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring.contains(0));
  EXPECT_FALSE(ring.contains(1));
}

TEST(ChordRing, SingleNodeOwnsEverything) {
  auto ring = make_ring(1);
  EXPECT_EQ(ring.owner_of(0), 0u);
  EXPECT_EQ(ring.owner_of(~0ull), 0u);
  const auto stats = ring.route(12345, 0);
  EXPECT_EQ(stats.owner, 0u);
  EXPECT_EQ(stats.hops, 0);
}

TEST(ChordRing, RouteFindsOwner) {
  auto ring = make_ring(64);
  util::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const ChordKey key = rng();
    const net::PeerId oracle = ring.owner_of(key);
    for (net::PeerId from : {net::PeerId{0}, net::PeerId{17}, net::PeerId{63}}) {
      const auto stats = ring.route(key, from);
      EXPECT_EQ(stats.owner, oracle) << "key=" << key << " from=" << from;
    }
  }
}

TEST(ChordRing, RouteHopsAreLogarithmic) {
  auto ring = make_ring(256);
  util::Rng rng(10);
  double total_hops = 0;
  constexpr int kLookups = 500;
  for (int i = 0; i < kLookups; ++i) {
    const auto stats =
        ring.route(rng(), static_cast<net::PeerId>(rng.index(256)));
    total_hops += stats.hops;
    EXPECT_LE(stats.hops, 2 * 8 + 4);  // generous O(log 256) bound
  }
  EXPECT_LE(total_hops / kLookups, 8.0);  // ~ (log2 256)/2 = 4 expected
  EXPECT_GE(total_hops / kLookups, 1.0);
}

TEST(ChordRing, RouteAccumulatesLatency) {
  auto ring = make_ring(32);
  net::NetworkModel net(5, net::ProbeClock(sim::SimTime::seconds(30)));
  util::Rng rng(11);
  bool some_latency = false;
  for (int i = 0; i < 50; ++i) {
    const auto stats = ring.route(rng(), 0, &net);
    if (stats.hops > 0) {
      EXPECT_GE(stats.latency.as_millis(), stats.hops * 1);  // >= 1ms per hop
      some_latency = some_latency || stats.latency > sim::SimTime::zero();
    }
  }
  EXPECT_TRUE(some_latency);
}

TEST(ChordRing, InsertAndGet) {
  auto ring = make_ring(16);
  const ChordKey key = data_key(1, "service-a");
  ring.insert(key, 100);
  ring.insert(key, 200);
  const auto values = ring.values(key);
  EXPECT_EQ(as_vector(values), (std::vector<std::uint64_t>{100, 200}));
}

TEST(ChordRing, InsertIsIdempotent) {
  auto ring = make_ring(16);
  const ChordKey key = data_key(1, "svc");
  ring.insert(key, 5);
  ring.insert(key, 5);
  EXPECT_EQ(ring.values(key).size(), 1u);
}

TEST(ChordRing, EraseRemovesValue) {
  auto ring = make_ring(16);
  const ChordKey key = data_key(1, "svc");
  ring.insert(key, 5);
  ring.insert(key, 6);
  ring.erase(key, 5);
  EXPECT_EQ(as_vector(ring.values(key)), (std::vector<std::uint64_t>{6}));
  ring.erase(key, 6);
  EXPECT_TRUE(ring.values(key).empty());
}

TEST(ChordRing, GetMissingKeyIsEmpty) {
  auto ring = make_ring(8);
  EXPECT_TRUE(ring.values(data_key(1, "nothing")).empty());
}

TEST(ChordRing, GracefulLeaveHandsOffKeys) {
  auto ring = make_ring(32);
  util::Rng rng(12);
  std::vector<ChordKey> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(rng());
    ring.insert(keys.back(), static_cast<std::uint64_t>(i));
  }
  // Gracefully remove half the nodes.
  for (net::PeerId p = 0; p < 16; ++p) ring.leave(p);
  ring.stabilize_all();
  for (int i = 0; i < 64; ++i) {
    const auto values = ring.values(keys[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(std::find(values.begin(), values.end(),
                          static_cast<std::uint64_t>(i)) != values.end())
        << "key " << i << " lost after graceful leaves";
  }
}

TEST(ChordRing, AbruptFailureSurvivedByReplicas) {
  // With replication 3, any single failure keeps every value readable.
  auto ring = make_ring(32, /*seed=*/2, /*replicas=*/3);
  util::Rng rng(13);
  std::vector<ChordKey> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(rng());
    ring.insert(keys.back(), static_cast<std::uint64_t>(i));
  }
  ring.fail(7);
  ring.stabilize_all();
  for (int i = 0; i < 64; ++i) {
    const auto values = ring.values(keys[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(std::find(values.begin(), values.end(),
                          static_cast<std::uint64_t>(i)) != values.end())
        << "key " << i << " lost after one abrupt failure";
  }
}

TEST(ChordRing, LeaveUnknownPeerIsNoop) {
  auto ring = make_ring(4);
  ring.leave(99);
  ring.fail(99);
  EXPECT_EQ(ring.size(), 4u);
}

TEST(ChordRing, RouteWorksWithStaleFingersAfterChurn) {
  auto ring = make_ring(128);
  util::Rng rng(14);
  // Fail a quarter of the nodes *without* stabilizing: fingers go stale,
  // but routing must still reach the right owner via successor fallback.
  for (net::PeerId p = 0; p < 32; ++p) ring.fail(p);
  for (int i = 0; i < 100; ++i) {
    const ChordKey key = rng();
    const net::PeerId from = static_cast<net::PeerId>(rng.uniform_int(32, 127));
    const auto stats = ring.route(key, from);
    EXPECT_EQ(stats.owner, ring.owner_of(key));
  }
}

TEST(ChordRing, StabilizeRoundRefreshesIncrementally) {
  auto ring = make_ring(64);
  for (net::PeerId p = 0; p < 16; ++p) ring.fail(p);
  // Ten 10% rounds cover the whole ring.
  for (int i = 0; i < 10; ++i) ring.stabilize_round(0.1);
  util::Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    const ChordKey key = rng();
    const auto stats =
        ring.route(key, static_cast<net::PeerId>(rng.uniform_int(16, 63)));
    EXPECT_EQ(stats.owner, ring.owner_of(key));
    EXPECT_LE(stats.hops, 20);  // refreshed fingers keep routes short
  }
}

TEST(ChordRing, JoinAfterDataMovesResponsibility) {
  ChordRing ring(3, 1);  // replicas=1: ownership movement is observable
  for (net::PeerId p = 0; p < 8; ++p) ring.join(p);
  ring.stabilize_all();
  util::Rng rng(16);
  std::vector<std::pair<ChordKey, std::uint64_t>> data;
  for (int i = 0; i < 40; ++i) {
    data.emplace_back(rng(), static_cast<std::uint64_t>(i));
    ring.insert(data.back().first, data.back().second);
  }
  for (net::PeerId p = 8; p < 24; ++p) ring.join(p);
  ring.stabilize_all();
  for (const auto& [key, value] : data) {
    const auto values = ring.values(key);
    EXPECT_TRUE(std::find(values.begin(), values.end(), value) != values.end())
        << "value lost after joins moved key ranges";
  }
}

// Property sweep: random join/leave/fail churn, then every key lookup from
// every surviving node agrees with the oracle owner.
class ChordChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChordChurnProperty, RoutingStaysCorrectUnderChurn) {
  util::Rng rng(util::derive_seed(GetParam(), "chord-churn", 0));
  ChordRing ring(GetParam(), 3);
  std::set<net::PeerId> members;
  net::PeerId next = 0;
  for (int i = 0; i < 40; ++i) {
    ring.join(next);
    members.insert(next++);
  }
  ring.stabilize_all();
  for (int step = 0; step < 120; ++step) {
    const auto action = rng.index(4);
    if (action == 0 || members.size() < 8) {
      ring.join(next);
      members.insert(next++);
    } else if (action == 1) {
      auto it = members.begin();
      std::advance(it, static_cast<long>(rng.index(members.size())));
      ring.leave(*it);
      members.erase(it);
    } else if (action == 2) {
      auto it = members.begin();
      std::advance(it, static_cast<long>(rng.index(members.size())));
      ring.fail(*it);
      members.erase(it);
    } else {
      ring.stabilize_round(0.3);
    }
    // Routing from a random member must find the oracle owner.
    const ChordKey key = rng();
    auto it = members.begin();
    std::advance(it, static_cast<long>(rng.index(members.size())));
    const auto stats = ring.route(key, *it);
    EXPECT_EQ(stats.owner, ring.owner_of(key)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChordChurnProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace qsa::overlay
