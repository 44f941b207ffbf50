// Reference-model fuzzing: long random operation sequences where every qsa
// data structure is shadowed by a trivially-correct STL model and compared
// step by step.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "qsa/overlay/can_overlay.hpp"
#include "qsa/overlay/chord_id.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/overlay/pastry_overlay.hpp"
#include "qsa/overlay/value_store.hpp"
#include "qsa/probe/neighbor_table.hpp"
#include "qsa/qos/vector.hpp"
#include "qsa/sim/event_queue.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/util/small_vec.hpp"

namespace qsa {
namespace {

// ---------------------------------------------------------- EventQueue

class EventQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModel, MatchesSortedReference) {
  util::Rng rng(util::derive_seed(GetParam(), "eq-model", 0));
  sim::EventQueue queue;
  // Reference: ordered multimap (time, seq) -> payload; mimic cancellation.
  struct Ref {
    std::int64_t time;
    std::uint64_t seq;
    int payload;
    bool cancelled = false;
  };
  std::vector<Ref> ref;
  std::vector<std::pair<sim::EventHandle, std::size_t>> handles;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  int fired_payload = -1;

  for (int step = 0; step < 3000; ++step) {
    const auto action = rng.index(5);
    if (action <= 2) {  // schedule (most common)
      const std::int64_t at = now + static_cast<std::int64_t>(rng.index(50));
      const int payload = static_cast<int>(seq);
      auto h = queue.schedule(sim::SimTime::millis(at),
                              [&fired_payload, payload] {
                                fired_payload = payload;
                              });
      ref.push_back(Ref{at, seq, payload});
      handles.emplace_back(h, ref.size() - 1);
      ++seq;
    } else if (action == 3 && !handles.empty()) {  // cancel a random handle
      const std::size_t i = rng.index(handles.size());
      queue.cancel(handles[i].first);
      ref[handles[i].second].cancelled = true;  // may already be fired: ok
    } else if (!queue.empty()) {  // pop
      auto fired = queue.pop();
      fired_payload = -1;
      fired.action();
      now = fired.time.as_millis();
      // The reference pick: earliest (time, seq) among live entries.
      std::size_t best = ref.size();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i].cancelled) continue;
        if (best == ref.size() || ref[i].time < ref[best].time ||
            (ref[i].time == ref[best].time && ref[i].seq < ref[best].seq)) {
          best = i;
        }
      }
      ASSERT_LT(best, ref.size());
      EXPECT_EQ(fired.time.as_millis(), ref[best].time) << "step " << step;
      EXPECT_EQ(fired_payload, ref[best].payload) << "step " << step;
      ref[best].cancelled = true;  // consumed
    }
    // Size agreement.
    std::size_t live = 0;
    for (const auto& r : ref) live += !r.cancelled;
    ASSERT_EQ(queue.size(), live) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel, ::testing::Values(1, 2, 3));

// ----------------------------------------------------------- QosVector

class QosVectorModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QosVectorModel, MatchesMapReference) {
  util::Rng rng(util::derive_seed(GetParam(), "qv-model", 0));
  qos::QosVector vec;
  std::map<qos::ParamId, qos::QosValue> ref;
  for (int step = 0; step < 500; ++step) {
    const auto param = static_cast<qos::ParamId>(rng.index(qos::kMaxQosDims));
    const auto value = rng.bernoulli(0.5)
                           ? qos::QosValue::single(rng.uniform(0, 10))
                           : qos::QosValue::range(rng.uniform(0, 5),
                                                  rng.uniform(5, 10));
    vec.set(param, value);
    ref.insert_or_assign(param, value);

    ASSERT_EQ(vec.dim(), ref.size());
    // Same content, same (sorted) order.
    auto it = ref.begin();
    for (const auto& d : vec) {
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(d.param, it->first);
      EXPECT_EQ(d.value, it->second);
      ++it;
    }
    // Point lookups agree.
    const auto probe_param =
        static_cast<qos::ParamId>(rng.index(qos::kMaxQosDims));
    const auto got = vec.get(probe_param);
    const auto rit = ref.find(probe_param);
    ASSERT_EQ(got.has_value(), rit != ref.end());
    if (got) {
      EXPECT_EQ(*got, rit->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QosVectorModel, ::testing::Values(1, 2, 3));

// ------------------------------------------------------------ SmallVec

class SmallVecModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmallVecModel, MatchesVectorReference) {
  util::Rng rng(util::derive_seed(GetParam(), "sv-model", 0));
  util::SmallVec<int, 8> sv;
  std::vector<int> ref;
  for (int step = 0; step < 2000; ++step) {
    switch (rng.index(4)) {
      case 0:
        if (sv.size() < decltype(sv)::capacity()) {
          const int v = static_cast<int>(rng.uniform_int(-100, 100));
          sv.push_back(v);
          ref.push_back(v);
        }
        break;
      case 1:
        if (!sv.empty()) {
          sv.pop_back();
          ref.pop_back();
        }
        break;
      case 2: {
        const auto n = rng.index(decltype(sv)::capacity() + 1);
        const int fill = static_cast<int>(rng.uniform_int(0, 9));
        sv.resize(n, fill);
        ref.resize(n, fill);
        break;
      }
      default:
        if (!sv.empty()) {
          const std::size_t i = rng.index(sv.size());
          const int v = static_cast<int>(rng.uniform_int(-100, 100));
          sv[i] = v;
          ref[i] = v;
        }
        break;
    }
    ASSERT_EQ(sv.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(sv[i], ref[i]) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallVecModel, ::testing::Values(1, 2, 3));

// -------------------------------------------------------- NeighborTable

class NeighborTableModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NeighborTableModel, InvariantsUnderRandomOps) {
  util::Rng rng(util::derive_seed(GetParam(), "nt-model", 0));
  constexpr std::size_t kBudget = 12;
  probe::NeighborTable table(kBudget);
  sim::SimTime now = sim::SimTime::zero();
  for (int step = 0; step < 2000; ++step) {
    now += sim::SimTime::seconds(rng.uniform(0, 30));
    const auto peer = static_cast<net::PeerId>(rng.index(40));
    switch (rng.index(4)) {
      case 0:
      case 1: {
        const auto hop = static_cast<std::uint8_t>(1 + rng.index(4));
        const auto kind = rng.bernoulli(0.5) ? probe::NeighborKind::kDirect
                                             : probe::NeighborKind::kIndirect;
        const bool added =
            table.add(peer, hop, kind, now, sim::SimTime::minutes(30));
        if (added) {
          EXPECT_TRUE(table.knows(peer, now));
        }
        break;
      }
      case 2:
        table.erase(peer);
        EXPECT_FALSE(table.knows(peer, now));
        break;
      default:
        table.purge(now);
        break;
    }
    // Invariants: never over budget; knows() == unexpired entry.
    ASSERT_LE(table.size(), kBudget) << "step " << step;
    for (const auto& [p, entry] : table.entries()) {
      EXPECT_EQ(table.knows(p, now), entry.expires > now);
      EXPECT_GE(entry.hop, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeighborTableModel,
                         ::testing::Values(1, 2, 3, 4));

// The linear victim scan NeighborTable used before its eviction index, kept
// verbatim as the oracle: the index must pick exactly the victim this picks.
class LinearScanNeighborTable {
 public:
  explicit LinearScanNeighborTable(std::size_t budget) : budget_(budget) {}

  bool add(net::PeerId peer, std::uint8_t hop, probe::NeighborKind kind,
           sim::SimTime now, sim::SimTime ttl) {
    const sim::SimTime expires = now + ttl;
    if (auto it = entries_.find(peer); it != entries_.end()) {
      if (probe::benefit_rank(hop, kind) <
          probe::benefit_rank(it->second.hop, it->second.kind)) {
        it->second.hop = hop;
        it->second.kind = kind;
      }
      if (expires > it->second.expires) it->second.expires = expires;
      return true;
    }
    if (entries_.size() >= budget_) {
      bool have_victim = false;
      bool have_expired = false;
      net::PeerId victim_peer = net::kNoPeer;
      probe::NeighborEntry victim_entry;
      net::PeerId expired_peer = net::kNoPeer;
      probe::NeighborEntry expired_entry;
      for (const auto& [p, entry] : entries_) {
        if (entry.expires <= now) {
          if (!have_expired || entry.expires < expired_entry.expires ||
              (entry.expires == expired_entry.expires && p > expired_peer)) {
            have_expired = true;
            expired_peer = p;
            expired_entry = entry;
          }
          continue;
        }
        if (!have_victim) {
          have_victim = true;
          victim_peer = p;
          victim_entry = entry;
          continue;
        }
        const int p_rank = probe::benefit_rank(entry.hop, entry.kind);
        const int victim_rank =
            probe::benefit_rank(victim_entry.hop, victim_entry.kind);
        if (p_rank > victim_rank ||
            (p_rank == victim_rank &&
             (entry.expires < victim_entry.expires ||
              (entry.expires == victim_entry.expires && p > victim_peer)))) {
          victim_peer = p;
          victim_entry = entry;
        }
      }
      if (have_expired) {
        victim_peer = expired_peer;
        victim_entry = expired_entry;
      }
      const bool victim_expired = victim_entry.expires <= now;
      if (!victim_expired &&
          probe::benefit_rank(victim_entry.hop, victim_entry.kind) <
              probe::benefit_rank(hop, kind)) {
        return false;
      }
      entries_.erase(victim_peer);
    }
    entries_.emplace(peer, probe::NeighborEntry{hop, kind, expires});
    return true;
  }

  void purge(sim::SimTime now) {
    std::erase_if(entries_,
                  [now](const auto& kv) { return kv.second.expires <= now; });
  }
  void erase(net::PeerId peer) { entries_.erase(peer); }

  [[nodiscard]] const std::map<net::PeerId, probe::NeighborEntry>& entries()
      const noexcept {
    return entries_;
  }

 private:
  std::size_t budget_;
  std::map<net::PeerId, probe::NeighborEntry> entries_;
};

::testing::AssertionResult same_entries(const probe::NeighborTable& table,
                                        const LinearScanNeighborTable& ref) {
  if (table.size() != ref.entries().size()) {
    return ::testing::AssertionFailure()
           << "size " << table.size() << " vs " << ref.entries().size();
  }
  for (const auto& [peer, want] : ref.entries()) {
    const auto it = table.entries().find(peer);
    if (it == table.entries().end()) {
      return ::testing::AssertionFailure() << "peer " << peer << " missing";
    }
    const probe::NeighborEntry& got = it->second;
    if (got.hop != want.hop || got.kind != want.kind ||
        got.expires != want.expires) {
      return ::testing::AssertionFailure() << "peer " << peer << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Differential fuzz: random add/refresh/erase/purge sequences against the
// linear-scan oracle, for budgets from 1 to several times the index's
// 16-entry prefix. Times sit on a coarse grid and ranks come from a few
// hops, so expiry ties and rank ties are common; short time steps against
// varied TTLs make many refreshes move an entry only slightly later — the
// case where a cached position must be re-placed, not merely dropped.
struct DifferentialCase {
  std::uint64_t seed;
  std::size_t budget;
};

class NeighborTableDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(NeighborTableDifferential, MatchesLinearScan) {
  const auto [seed, budget] = GetParam();
  util::Rng rng(util::derive_seed(seed, "nt-diff", budget));
  probe::NeighborTable table(budget);
  LinearScanNeighborTable ref(budget);
  const std::size_t universe = 3 * budget + 8;
  // TTLs (in 10-ms ticks) long enough for the table to fill between jumps.
  const auto span = static_cast<std::int64_t>(4 * budget + 20);
  sim::SimTime now = sim::SimTime::zero();
  std::size_t rejected = 0, evicted = 0;
  for (int step = 0; step < 6000; ++step) {
    // Mostly tiny steps (ties, small refreshes), now and then a jump that
    // expires a slice of the table.
    now += sim::SimTime::millis(
        rng.bernoulli(0.01) ? 10 * rng.uniform_int(1, 4 * span)
                            : 10 * rng.uniform_int(0, 2));
    const auto peer = static_cast<net::PeerId>(rng.index(universe));
    const std::size_t op = rng.index(20);
    if (op < 17) {
      const auto hop = static_cast<std::uint8_t>(1 + rng.index(3));
      const auto kind = rng.bernoulli(0.5) ? probe::NeighborKind::kDirect
                                           : probe::NeighborKind::kIndirect;
      auto ttl = sim::SimTime::millis(10 * rng.uniform_int(1, span));
      const auto known_it = ref.entries().find(peer);
      const bool known = known_it != ref.entries().end();
      if (known && rng.bernoulli(0.5)) {
        // Nudge the deadline by at most a few ticks: the refreshed entry
        // keeps, or nearly keeps, its place in both orders.
        const auto nudged = known_it->second.expires - now +
                            sim::SimTime::millis(10 * rng.uniform_int(0, 3));
        if (nudged > sim::SimTime::zero()) ttl = nudged;
      }
      const std::size_t size_before = ref.entries().size();
      const bool want = ref.add(peer, hop, kind, now, ttl);
      ASSERT_EQ(table.add(peer, hop, kind, now, ttl), want)
          << "step " << step << " peer " << peer;
      if (!want) ++rejected;
      if (want && !known && size_before == budget) ++evicted;
    } else if (op < 19) {
      ref.erase(peer);
      table.erase(peer);
    } else {
      ref.purge(now);
      table.purge(now);
    }
    ASSERT_TRUE(same_entries(table, ref)) << "step " << step;
  }
  // The sequence must actually exercise both full-table outcomes.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(evicted, 0u);
}

std::vector<DifferentialCase> differential_cases() {
  std::vector<DifferentialCase> cases;
  for (std::size_t budget : {1, 2, 3, 5, 15, 16, 17, 31, 33, 48, 100}) {
    for (std::uint64_t seed : {1, 2, 3}) cases.push_back({seed, budget});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, NeighborTableDifferential,
    ::testing::ValuesIn(differential_cases()),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      std::string name = "M";
      name += std::to_string(info.param.budget);
      name += "_seed";
      name += std::to_string(info.param.seed);
      return name;
    });

// A refresh that moves a cached entry only slightly later, so that it still
// precedes its successors in the eviction order: the index must keep it at
// the front, not drop it and leave its successor there.
TEST(NeighborTableDifferential, SmallRefreshKeepsCachedVictimInPlace) {
  constexpr std::size_t kBudget = 40;  // larger than the cached prefix
  probe::NeighborTable table(kBudget);
  LinearScanNeighborTable ref(kBudget);
  const auto ttl = sim::SimTime::seconds(10);
  for (net::PeerId p = 0; p < kBudget; ++p) {
    const auto at = sim::SimTime::millis(100 * p);
    table.add(p, 2, probe::NeighborKind::kDirect, at, ttl);
    ref.add(p, 2, probe::NeighborKind::kDirect, at, ttl);
  }
  // The table is full; the first eviction builds the index (and takes the
  // stalest rank-2 entry, peer 0), so peer 1 heads both cached orders.
  const auto t1 = sim::SimTime::millis(5000);
  ASSERT_TRUE(table.add(100, 1, probe::NeighborKind::kDirect, t1, ttl));
  ASSERT_TRUE(ref.add(100, 1, probe::NeighborKind::kDirect, t1, ttl));
  // Refresh peer 1 from 10.1 s to 10.15 s: still before peer 2 (10.2 s).
  const auto short_ttl = sim::SimTime::millis(5150);
  table.add(1, 2, probe::NeighborKind::kDirect, t1, short_ttl);
  ref.add(1, 2, probe::NeighborKind::kDirect, t1, short_ttl);
  // The next eviction must still take peer 1.
  ASSERT_TRUE(table.add(101, 1, probe::NeighborKind::kDirect, t1, ttl));
  ASSERT_TRUE(ref.add(101, 1, probe::NeighborKind::kDirect, t1, ttl));
  EXPECT_EQ(table.entries().count(1), 0u);
  EXPECT_EQ(table.entries().count(2), 1u);
  EXPECT_TRUE(same_entries(table, ref));
}

// ------------------------------------------------- Overlay value store
//
// The overlays' flat value store against the node-based layout it replaced:
// every node's store is modelled as std::map<Key, std::set<uint64_t>>, and
// each overlay's placement rules (who stores a key, where keys move on join,
// leave and failure) are re-derived here from the protocol and the public
// id/zone functions — never from the store under test. After every step,
// each key's values at its owner must match the model's, in order.

using RefValues = std::set<std::uint64_t>;
using RefStore = std::map<overlay::Key, RefValues>;

std::vector<std::uint64_t> as_vector(std::span<const std::uint64_t> values) {
  return {values.begin(), values.end()};
}

/// How often the fuzz hit the store operations most likely to go wrong.
struct StoreCoverage {
  int overlapping_merges = 0;  ///< unions of distinct, overlapping value sets
  int takeovers = 0;           ///< CAN departures a donor node absorbed
  int emptied_keys = 0;        ///< erases of a key's last value at its owner
};

void ref_merge(RefValues& into, const RefValues& from, StoreCoverage& cov) {
  if (!into.empty() && into != from &&
      std::any_of(from.begin(), from.end(),
                  [&into](std::uint64_t v) { return into.contains(v); })) {
    ++cov.overlapping_merges;
  }
  into.insert(from.begin(), from.end());
}

void ref_erase(RefStore& store, overlay::Key key, std::uint64_t value,
               bool at_owner, StoreCoverage& cov) {
  const auto it = store.find(key);
  if (it == store.end() || it->second.erase(value) == 0) return;
  if (it->second.empty()) {
    store.erase(it);
    if (at_owner) ++cov.emptied_keys;
  }
}

/// Applies every operation to the overlay under test and to the model.
class OverlayModel {
 public:
  virtual ~OverlayModel() = default;
  virtual void join(net::PeerId peer) = 0;
  virtual void depart(net::PeerId peer, bool graceful) = 0;
  virtual void insert(overlay::Key key, std::uint64_t value) = 0;
  virtual void erase(overlay::Key key, std::uint64_t value) = 0;
  [[nodiscard]] virtual net::PeerId owner(overlay::Key key) const = 0;
  [[nodiscard]] virtual const overlay::LookupService& overlay() const = 0;

  [[nodiscard]] RefValues expected(overlay::Key key) const {
    const auto node = stores.find(owner(key));
    if (node == stores.end()) return {};
    const auto it = node->second.find(key);
    return it == node->second.end() ? RefValues{} : it->second;
  }

  std::map<net::PeerId, RefStore> stores;
  StoreCoverage cov;
};

/// Chord: a key lives on its successor node plus replicas - 1 successors; a
/// join takes (predecessor, new] from the successor, a leave hands the whole
/// store to the successor.
class ChordModel final : public OverlayModel {
 public:
  ChordModel(std::uint64_t seed, int replicas)
      : seed_(seed), replicas_(replicas), ring_(seed, replicas) {}

  void join(net::PeerId peer) override {
    const overlay::ChordKey at = overlay::node_key(seed_, peer);
    if (!nodes_.empty()) {
      const auto succ = successor(at);
      const auto pred = prev(succ);
      RefStore& from = stores[succ->second];
      RefStore& to = stores[peer];
      for (auto it = from.begin(); it != from.end();) {
        if (overlay::in_interval_oc(pred->first, at, it->first)) {
          ref_merge(to[it->first], it->second, cov);
          it = from.erase(it);
        } else {
          ++it;
        }
      }
    }
    nodes_.emplace(at, peer);
    ring_.join(peer);
  }

  void depart(net::PeerId peer, bool graceful) override {
    const auto it = nodes_.find(overlay::node_key(seed_, peer));
    if (graceful && nodes_.size() > 1) {
      RefStore& to = stores[next(it)->second];
      for (const auto& [key, values] : stores[peer]) {
        ref_merge(to[key], values, cov);
      }
    }
    stores.erase(peer);
    nodes_.erase(it);
    if (graceful) {
      ring_.leave(peer);
    } else {
      ring_.fail(peer);
    }
  }

  void insert(overlay::Key key, std::uint64_t value) override {
    auto it = successor(key);
    const int copies = std::min<int>(replicas_, static_cast<int>(nodes_.size()));
    for (int i = 0; i < copies; ++i, it = next(it)) {
      stores[it->second][key].insert(value);
    }
    ring_.insert(key, value);
  }

  void erase(overlay::Key key, std::uint64_t value) override {
    auto it = successor(key);
    const int window =
        std::min<int>(replicas_ + 2, static_cast<int>(nodes_.size()));
    for (int i = 0; i < window; ++i, it = next(it)) {
      ref_erase(stores[it->second], key, value, i == 0, cov);
    }
    ring_.erase(key, value);
  }

  [[nodiscard]] net::PeerId owner(overlay::Key key) const override {
    return successor(key)->second;
  }
  [[nodiscard]] const overlay::LookupService& overlay() const override {
    return ring_;
  }

 private:
  using Nodes = std::map<overlay::ChordKey, net::PeerId>;
  [[nodiscard]] Nodes::const_iterator successor(overlay::Key key) const {
    const auto it = nodes_.lower_bound(key);
    return it == nodes_.end() ? nodes_.begin() : it;
  }
  [[nodiscard]] Nodes::const_iterator next(Nodes::const_iterator it) const {
    return std::next(it) == nodes_.end() ? nodes_.begin() : std::next(it);
  }
  [[nodiscard]] Nodes::const_iterator prev(Nodes::const_iterator it) const {
    return it == nodes_.begin() ? std::prev(nodes_.end()) : std::prev(it);
  }

  std::uint64_t seed_;
  int replicas_;
  Nodes nodes_;
  overlay::ChordRing ring_;
};

/// Pastry: a key lives on the numerically closest node (ties to the lower
/// id) plus neighbors on alternating sides; a join pulls the keys it is now
/// closest to from both ring neighbors, a leave hands each key to its new
/// closest node.
class PastryModel final : public OverlayModel {
 public:
  PastryModel(std::uint64_t seed, int replicas)
      : seed_(seed), replicas_(replicas), pastry_(seed, replicas) {}

  void join(net::PeerId peer) override {
    const std::uint64_t id = node_id(peer);
    const auto it = nodes_.emplace(id, peer).first;
    if (nodes_.size() > 1) {
      for (const auto neighbor : {next(it), prev(it)}) {
        if (neighbor->first == id) continue;
        RefStore& from = stores[neighbor->second];
        for (auto kit = from.begin(); kit != from.end();) {
          if (nearest(kit->first)->first == id) {
            ref_merge(stores[peer][kit->first], kit->second, cov);
            kit = from.erase(kit);
          } else {
            ++kit;
          }
        }
      }
    }
    pastry_.join(peer);
  }

  void depart(net::PeerId peer, bool graceful) override {
    const RefStore departed = stores[peer];
    stores.erase(peer);
    nodes_.erase(node_id(peer));
    if (graceful && !nodes_.empty()) {
      for (const auto& [key, values] : departed) {
        ref_merge(stores[nearest(key)->second][key], values, cov);
      }
    }
    if (graceful) {
      pastry_.leave(peer);
    } else {
      pastry_.fail(peer);
    }
  }

  void insert(overlay::Key key, std::uint64_t value) override {
    const auto owner_it = nearest(key);
    const int copies = std::min<int>(replicas_, static_cast<int>(nodes_.size()));
    auto fwd = owner_it;
    auto bwd = owner_it;
    stores[owner_it->second][key].insert(value);
    for (int i = 1; i < copies; ++i) {
      if (i % 2 == 1) {
        fwd = next(fwd);
        stores[fwd->second][key].insert(value);
      } else {
        bwd = prev(bwd);
        stores[bwd->second][key].insert(value);
      }
    }
    pastry_.insert(key, value);
  }

  void erase(overlay::Key key, std::uint64_t value) override {
    const auto owner_it = nearest(key);
    const int size = static_cast<int>(nodes_.size());
    const int half = std::min<int>(replicas_ / 2 + 2, size / 2);
    auto it = owner_it;
    for (int i = 0; i < half; ++i) it = prev(it);
    const int window = std::min<int>(2 * half + 1, size);
    for (int i = 0; i < window; ++i, it = next(it)) {
      ref_erase(stores[it->second], key, value, it == owner_it, cov);
    }
    pastry_.erase(key, value);
  }

  [[nodiscard]] net::PeerId owner(overlay::Key key) const override {
    return nearest(key)->second;
  }
  [[nodiscard]] const overlay::LookupService& overlay() const override {
    return pastry_;
  }

 private:
  using Nodes = std::map<std::uint64_t, net::PeerId>;
  [[nodiscard]] std::uint64_t node_id(net::PeerId peer) const {
    return overlay::node_key(seed_ ^ util::hash_str("pastry-node"), peer);
  }
  [[nodiscard]] Nodes::const_iterator next(Nodes::const_iterator it) const {
    return std::next(it) == nodes_.end() ? nodes_.begin() : std::next(it);
  }
  [[nodiscard]] Nodes::const_iterator prev(Nodes::const_iterator it) const {
    return it == nodes_.begin() ? std::prev(nodes_.end()) : std::prev(it);
  }
  [[nodiscard]] Nodes::const_iterator nearest(std::uint64_t key) const {
    // Brute force over every node: circular distance, ties to the lower id.
    auto best = nodes_.begin();
    for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
      const auto d = overlay::PastryOverlay::circular_dist(it->first, key);
      const auto bd = overlay::PastryOverlay::circular_dist(best->first, key);
      if (d < bd) best = it;  // equal distance keeps the lower id
    }
    return best;
  }

  std::uint64_t seed_;
  int replicas_;
  Nodes nodes_;
  overlay::PastryOverlay pastry_;
};

/// CAN: a key lives on the node whose zone holds its point plus the next
/// replicas - 1 leaves of the split tree in order; a join moves the keys
/// whose point falls in the newcomer's half, a departure gives each changed
/// zone the union of the old stores it now covers (the departed store
/// only when it left gracefully). The split tree's leaf order is rebuilt
/// from the zones: every split halves a zone along its longest side.
class CanModel final : public OverlayModel {
 public:
  CanModel(std::uint64_t seed, int replicas)
      : seed_(seed), replicas_(replicas), can_(seed, replicas) {}

  void join(net::PeerId peer) override {
    net::PeerId occupant = net::kNoPeer;
    if (!members_.empty()) {
      occupant = holder(overlay::can_point(seed_ ^ util::hash_str("can-node"),
                                           peer));
    }
    can_.join(peer);
    members_.insert(peer);
    if (occupant == net::kNoPeer) return;
    const Zone zone = can_.zone_of(peer);
    RefStore& from = stores[occupant];
    for (auto it = from.begin(); it != from.end();) {
      if (zone.contains(overlay::can_point(seed_, it->first))) {
        ref_merge(stores[peer][it->first], it->second, cov);
        it = from.erase(it);
      } else {
        ++it;
      }
    }
  }

  void depart(net::PeerId peer, bool graceful) override {
    std::map<net::PeerId, Zone> before;
    for (const net::PeerId m : members_) before[m] = can_.zone_of(m);
    std::map<net::PeerId, RefStore> old = stores;
    if (!graceful) old.erase(peer);
    if (graceful) {
      can_.leave(peer);
    } else {
      can_.fail(peer);
    }
    members_.erase(peer);
    stores.erase(peer);
    for (const net::PeerId q : members_) {
      const Zone now = can_.zone_of(q);
      if (same(now, before[q])) continue;
      if (same(now, before[peer])) ++cov.takeovers;
      RefStore merged;
      for (const auto& [r, zone] : before) {
        if (!inside(zone, now)) continue;
        for (const auto& [key, values] : old[r]) {
          ref_merge(merged[key], values, cov);
        }
      }
      stores[q] = std::move(merged);
    }
  }

  void insert(overlay::Key key, std::uint64_t value) override {
    for (const net::PeerId holder : replica_window(key, replicas_)) {
      stores[holder][key].insert(value);
    }
    can_.insert(key, value);
  }

  void erase(overlay::Key key, std::uint64_t value) override {
    const auto window = replica_window(key, replicas_ + 2);
    for (std::size_t i = 0; i < window.size(); ++i) {
      ref_erase(stores[window[i]], key, value, i == 0, cov);
    }
    can_.erase(key, value);
  }

  [[nodiscard]] net::PeerId owner(overlay::Key key) const override {
    return holder(overlay::can_point(seed_, key));
  }
  [[nodiscard]] const overlay::LookupService& overlay() const override {
    return can_;
  }

 private:
  using Zone = overlay::CanOverlay::Zone;

  static bool same(const Zone& a, const Zone& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  static bool inside(const Zone& a, const Zone& b) {
    for (std::size_t d = 0; d < overlay::kCanDims; ++d) {
      if (a.lo[d] < b.lo[d] || a.hi[d] > b.hi[d]) return false;
    }
    return true;
  }

  [[nodiscard]] net::PeerId holder(const overlay::CanPoint& p) const {
    for (const net::PeerId m : members_) {
      if (can_.zone_of(m).contains(p)) return m;
    }
    ADD_FAILURE() << "no zone holds the point";
    return net::kNoPeer;
  }

  /// The owner of `key` and the leaves after it in tree order, `count` in
  /// all (capped at the membership, as the overlay caps it).
  [[nodiscard]] std::vector<net::PeerId> replica_window(overlay::Key key,
                                                        int count) const {
    std::vector<net::PeerId> order;
    Zone root;
    root.lo.fill(0.0);
    root.hi.fill(1.0);
    leaves_in_order(root, 0, order);
    const net::PeerId first = owner(key);
    const auto at = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), first) - order.begin());
    std::vector<net::PeerId> out;
    const int n = std::min<int>(count, static_cast<int>(order.size()));
    for (int i = 0; i < n; ++i) {
      out.push_back(order[(at + static_cast<std::size_t>(i)) % order.size()]);
    }
    return out;
  }

  void leaves_in_order(const Zone& zone, int depth,
                       std::vector<net::PeerId>& out) const {
    for (const net::PeerId m : members_) {
      if (same(can_.zone_of(m), zone)) {
        out.push_back(m);
        return;
      }
    }
    if (depth > 64) {
      ADD_FAILURE() << "zones do not tile the split tree";
      return;
    }
    std::size_t dim = 0;
    for (std::size_t d = 1; d < overlay::kCanDims; ++d) {
      if (zone.hi[d] - zone.lo[d] > zone.hi[dim] - zone.lo[dim]) dim = d;
    }
    const double mid = (zone.lo[dim] + zone.hi[dim]) / 2;
    Zone lower = zone;
    lower.hi[dim] = mid;
    Zone upper = zone;
    upper.lo[dim] = mid;
    leaves_in_order(lower, depth + 1, out);
    leaves_in_order(upper, depth + 1, out);
  }

  std::uint64_t seed_;
  int replicas_;
  std::set<net::PeerId> members_;
  overlay::CanOverlay can_;
};

enum class StoreOverlay { kChord, kCan, kPastry };

std::unique_ptr<OverlayModel> make_store_model(StoreOverlay kind,
                                               std::uint64_t seed,
                                               int replicas) {
  switch (kind) {
    case StoreOverlay::kChord:
      return std::make_unique<ChordModel>(seed, replicas);
    case StoreOverlay::kCan:
      return std::make_unique<CanModel>(seed, replicas);
    case StoreOverlay::kPastry:
      return std::make_unique<PastryModel>(seed, replicas);
  }
  return nullptr;
}

::testing::AssertionResult owners_match(const OverlayModel& model,
                                        const std::vector<overlay::Key>& keys) {
  for (const overlay::Key key : keys) {
    const net::PeerId owner = model.owner(key);
    if (model.overlay().owner_of(key) != owner) {
      return ::testing::AssertionFailure()
             << "model owner " << owner << " != overlay owner "
             << model.overlay().owner_of(key) << " for key " << key;
    }
    const RefValues want = model.expected(key);
    const std::vector<std::uint64_t> expected(want.begin(), want.end());
    const std::vector<std::uint64_t> got = as_vector(model.overlay().values(key));
    if (got != expected) {
      auto failure = ::testing::AssertionFailure();
      failure << "key " << key << " at owner " << owner << ": got {";
      for (const auto v : got) failure << ' ' << v;
      failure << " }, expected {";
      for (const auto v : expected) failure << ' ' << v;
      return failure << " }";
    }
  }
  return ::testing::AssertionSuccess();
}

struct StoreCase {
  StoreOverlay overlay;
  int replicas;
  std::uint64_t seed;
};

/// Runs `steps` random insert / erase / join / leave / fail steps and checks
/// every key at its owner after each one; returns the coverage reached.
StoreCoverage run_store_differential(const StoreCase& c, int steps) {
  auto model = make_store_model(c.overlay, c.seed, c.replicas);
  util::Rng rng(util::derive_seed(c.seed, "overlay-store-model", 0));
  std::vector<overlay::Key> keys;
  for (std::uint64_t i = 0; i < 24; ++i) {
    keys.push_back(overlay::data_key(c.seed, i));
  }
  std::vector<net::PeerId> members;
  net::PeerId next_peer = 0;
  auto join = [&] {
    model->join(next_peer);
    members.push_back(next_peer++);
  };
  for (int i = 0; i < 6; ++i) join();

  for (int step = 0; step < steps; ++step) {
    const std::size_t action = rng.index(20);
    const overlay::Key key = keys[rng.index(keys.size())];
    if (action < 8) {
      model->insert(key, rng.index(40));
    } else if (action < 12) {
      // Mostly erase a value the owner holds, so keys drain to empty.
      const RefValues held = model->expected(key);
      std::uint64_t value = rng.index(40);
      if (!held.empty() && rng.index(4) != 0) {
        value = *std::next(held.begin(),
                           static_cast<std::ptrdiff_t>(rng.index(held.size())));
      }
      model->erase(key, value);
    } else if (action < 15 && members.size() < 24) {
      join();
    } else if (action >= 15 && members.size() > 2) {
      const std::size_t i = rng.index(members.size());
      const net::PeerId peer = members[i];
      members[i] = members.back();
      members.pop_back();
      model->depart(peer, /*graceful=*/action < 18);
    } else {
      model->insert(key, rng.index(40));
    }
    const auto ok = owners_match(*model, keys);
    if (!ok) {
      ADD_FAILURE() << "step " << step << ": " << ok.message();
      break;
    }
  }
  return model->cov;
}

class OverlayStoreDifferential : public ::testing::TestWithParam<StoreCase> {};

TEST_P(OverlayStoreDifferential, OwnerValuesMatchSetReference) {
  const StoreCoverage cov = run_store_differential(GetParam(), 2000);
  EXPECT_GT(cov.emptied_keys, 0);
  if (GetParam().replicas > 1) {
    EXPECT_GT(cov.overlapping_merges, 0);
  }
  if (GetParam().overlay == StoreOverlay::kCan) {
    EXPECT_GT(cov.takeovers, 0);
  }
}

std::vector<StoreCase> store_cases() {
  std::vector<StoreCase> cases;
  for (const auto overlay :
       {StoreOverlay::kChord, StoreOverlay::kCan, StoreOverlay::kPastry}) {
    for (const int replicas : {1, 2}) {
      for (const std::uint64_t seed : {1, 2}) {
        cases.push_back({overlay, replicas, seed});
      }
    }
  }
  return cases;
}

std::string store_case_name(const ::testing::TestParamInfo<StoreCase>& info) {
  const char* names[] = {"chord", "can", "pastry"};
  return std::string(names[static_cast<int>(info.param.overlay)]) + "_r" +
         std::to_string(info.param.replicas) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Overlays, OverlayStoreDifferential,
                         ::testing::ValuesIn(store_cases()), store_case_name);

// The store alone: four stores moving keys between each other at random,
// each against its own std::map<Key, std::set> reference.
TEST(ValueStoreModel, MatchesSetReferenceUnderRandomMoves) {
  util::Rng rng(util::derive_seed(5, "value-store-model", 0));
  std::array<overlay::ValueStore, 4> stores;
  std::array<RefStore, 4> refs;
  StoreCoverage cov;
  for (int step = 0; step < 5000; ++step) {
    const std::size_t s = rng.index(stores.size());
    const overlay::Key key = rng.index(12);
    const std::uint64_t value = rng.index(30);
    const std::size_t action = rng.index(10);
    if (action < 5) {
      stores[s].insert(key, value);
      refs[s][key].insert(value);
    } else if (action < 8) {
      stores[s].erase(key, value);
      ref_erase(refs[s], key, value, true, cov);
    } else {
      // Each key independently stays or moves to another random store.
      std::array<std::size_t, 12> dest{};
      for (auto& d : dest) d = rng.index(stores.size());
      stores[s].move_to([&](overlay::Key k) -> overlay::ValueStore* {
        return dest[k] == s ? nullptr : &stores[dest[k]];
      });
      for (auto it = refs[s].begin(); it != refs[s].end();) {
        if (dest[it->first] == s) {
          ++it;
          continue;
        }
        ref_merge(refs[dest[it->first]][it->first], it->second, cov);
        it = refs[s].erase(it);
      }
    }
    for (std::size_t i = 0; i < stores.size(); ++i) {
      EXPECT_EQ(stores[i].empty(), refs[i].empty()) << "step " << step;
      for (overlay::Key k = 0; k < 12; ++k) {
        const auto it = refs[i].find(k);
        const std::vector<std::uint64_t> want =
            it == refs[i].end()
                ? std::vector<std::uint64_t>{}
                : std::vector<std::uint64_t>(it->second.begin(),
                                             it->second.end());
        ASSERT_EQ(as_vector(stores[i].values(k)), want)
            << "step " << step << " store " << i << " key " << k;
      }
    }
  }
  EXPECT_GT(cov.overlapping_merges, 0);
  EXPECT_GT(cov.emptied_keys, 0);
}

// A leave handoff whose two sides share some values and not others: the
// receiver ends with the sorted union, each value once.
TEST(ValueStoreModel, MergeOfOverlappingSetsIsSortedUnion) {
  overlay::ValueStore leaving;
  overlay::ValueStore successor;
  for (const std::uint64_t v : {5, 1, 3}) leaving.insert(7, v);
  for (const std::uint64_t v : {6, 3, 2}) successor.insert(7, v);
  successor.insert(9, 4);
  leaving.move_to([&](overlay::Key) { return &successor; });
  EXPECT_TRUE(leaving.empty());
  EXPECT_EQ(as_vector(successor.values(7)),
            (std::vector<std::uint64_t>{1, 2, 3, 5, 6}));
  EXPECT_EQ(as_vector(successor.values(9)), (std::vector<std::uint64_t>{4}));
}

// Erasing a key's last value drops the key; erasing an absent value or key
// changes nothing.
TEST(ValueStoreModel, EraseOfLastValueDropsKey) {
  overlay::ValueStore store;
  store.insert(3, 8);
  store.insert(3, 8);
  store.erase(3, 9);
  store.erase(4, 8);
  EXPECT_EQ(as_vector(store.values(3)), (std::vector<std::uint64_t>{8}));
  store.erase(3, 8);
  EXPECT_TRUE(store.values(3).empty());
  EXPECT_TRUE(store.empty());
}

}  // namespace
}  // namespace qsa
