// Reference-model fuzzing: long random operation sequences where every qsa
// data structure is shadowed by a trivially-correct STL model and compared
// step by step.
#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace qsa
