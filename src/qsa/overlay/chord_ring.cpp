#include "qsa/overlay/chord_ring.hpp"

#include <algorithm>
#include <cmath>

#include "qsa/util/expects.hpp"
#include "qsa/util/thread_pool.hpp"

namespace qsa::overlay {

ChordRing::ChordRing(std::uint64_t seed, int replicas)
    : seed_(seed), replicas_(replicas) {
  QSA_EXPECTS(replicas >= 1);
}

ChordRing::Ring::const_iterator ChordRing::successor(ChordKey key) const {
  QSA_EXPECTS(!ring_.empty());
  auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin() : it;
}

ChordRing::Ring::iterator ChordRing::successor(ChordKey key) {
  QSA_EXPECTS(!ring_.empty());
  auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin() : it;
}

bool ChordRing::contains(net::PeerId peer) const {
  return key_of_peer_.contains(peer);
}

void ChordRing::compute_fingers(ChordKey at, Node& node) const {
  for (int i = 0; i < kKeyBits; ++i) {
    const ChordKey target = at + (ChordKey{1} << i);  // wraps mod 2^64
    node.fingers[static_cast<std::size_t>(i)] = successor(target)->first;
  }
}

void ChordRing::compute_fingers_sorted(const std::vector<ChordKey>& keys,
                                       ChordKey at, Node& node) {
  QSA_EXPECTS(!keys.empty());
  for (int i = 0; i < kKeyBits; ++i) {
    const ChordKey target = at + (ChordKey{1} << i);  // wraps mod 2^64
    const auto it = std::lower_bound(keys.begin(), keys.end(), target);
    // Same wrap rule as successor(): past the end means the first node.
    node.fingers[static_cast<std::size_t>(i)] =
        it == keys.end() ? keys.front() : *it;
  }
}

void ChordRing::snapshot_keys(std::vector<ChordKey>& out) const {
  out.clear();
  out.reserve(ring_.size());
  for (const auto& [key, node] : ring_) out.push_back(key);  // sorted
}

void ChordRing::join_impl(net::PeerId peer, bool deferred) {
  QSA_EXPECTS(!contains(peer));
  const ChordKey key = node_key(seed_, peer);
  QSA_EXPECTS(!ring_.contains(key));  // 64-bit collisions: astronomically rare
  Node node;
  node.peer = peer;
  // Self-pointing fingers mean "unset": routing skips them and falls back
  // to the successor walk. join() overwrites them below; join_deferred()
  // leaves them for stabilize_all().
  node.fingers.fill(key);
  if (!ring_.empty()) {
    // The new node takes over the key range (predecessor, key] from its
    // successor.
    auto succ = successor(key);
    auto pred = succ == ring_.begin() ? std::prev(ring_.end()) : std::prev(succ);
    const ChordKey pred_key = pred->first;
    succ->second.store.move_to([&](ChordKey k) {
      return in_interval_oc(pred_key, key, k) ? &node.store : nullptr;
    });
  }
  auto [it, inserted] = ring_.emplace(key, std::move(node));
  QSA_ASSERT(inserted);
  if (!deferred) compute_fingers(key, it->second);
  key_of_peer_.emplace(peer, key);
}

void ChordRing::join(net::PeerId peer) { join_impl(peer, /*deferred=*/false); }

void ChordRing::join_deferred(net::PeerId peer) {
  join_impl(peer, /*deferred=*/true);
}

void ChordRing::leave(net::PeerId peer) {
  auto pit = key_of_peer_.find(peer);
  if (pit == key_of_peer_.end()) return;
  const ChordKey key = pit->second;
  auto it = ring_.find(key);
  QSA_ASSERT(it != ring_.end());
  if (ring_.size() > 1) {
    // Graceful handoff of the store to the successor.
    auto next = std::next(it) == ring_.end() ? ring_.begin() : std::next(it);
    it->second.store.move_to([&](ChordKey) { return &next->second.store; });
  }
  ring_.erase(it);
  key_of_peer_.erase(pit);
}

void ChordRing::fail(net::PeerId peer) {
  auto pit = key_of_peer_.find(peer);
  if (pit == key_of_peer_.end()) return;
  ring_.erase(pit->second);  // store vanishes; replicas keep the data alive
  key_of_peer_.erase(pit);
}

LookupStats ChordRing::route(ChordKey key, net::PeerId from,
                             const net::NetworkModel* net) const {
  QSA_EXPECTS(!ring_.empty());
  const auto fit = key_of_peer_.find(from);
  QSA_EXPECTS(fit != key_of_peer_.end());

  LookupStats stats;
  auto cur = ring_.find(fit->second);
  QSA_ASSERT(cur != ring_.end());

  // Safety bound: greedy finger routing plus successor-walk fallback always
  // terminates, but a bound keeps a corrupted ring from hanging a run.
  const int max_hops = kKeyBits + static_cast<int>(ring_.size()) + 2;
  while (stats.hops <= max_hops) {
    auto next_on_ring =
        std::next(cur) == ring_.end() ? ring_.begin() : std::next(cur);
    if (cur->first == key || ring_.size() == 1) {
      stats.owner = cur->second.peer;
      return stats;
    }
    // Are we ourselves responsible? (key in (predecessor, us])
    auto pred = cur == ring_.begin() ? std::prev(ring_.end()) : std::prev(cur);
    if (in_interval_oc(pred->first, cur->first, key)) {
      stats.owner = cur->second.peer;
      return stats;
    }
    if (in_interval_oc(cur->first, next_on_ring->first, key)) {
      // The key lives on our immediate successor: final hop. The successor
      // is the only correct destination, so a dropped message here has no
      // alternate route — the retries inside deliver_hop are the budget.
      if (!deliver_hop(cur->second.peer, next_on_ring->second.peer, stats,
                       net)) {
        return stats;  // owner stays kNoPeer: the lookup failed
      }
      if (net != nullptr) {
        stats.latency +=
            net->latency(cur->second.peer, next_on_ring->second.peer);
      }
      ++stats.hops;
      stats.owner = next_on_ring->second.peer;
      return stats;
    }
    // Closest preceding live finger; the runner-up (next qualifying finger,
    // else the successor walk) is kept as the alternate route for when the
    // hop message to the primary is lost.
    Ring::const_iterator next = ring_.end();
    Ring::const_iterator alternate = ring_.end();
    for (int i = kKeyBits - 1; i >= 0; --i) {
      const ChordKey f = cur->second.fingers[static_cast<std::size_t>(i)];
      if (f == cur->first) continue;  // unset (deferred/fresh) finger
      if (!in_interval_oo(cur->first, key, f)) continue;
      auto fnode = ring_.find(f);
      if (fnode == ring_.end()) continue;  // stale finger: node departed
      if (next == ring_.end()) {
        next = fnode;
        if (!faults_active()) break;  // no alternate needed
        continue;
      }
      if (fnode != next) {
        alternate = fnode;
        break;
      }
    }
    if (next == ring_.end()) {
      next = next_on_ring;  // successor-walk fallback
    } else if (alternate == ring_.end() && next != next_on_ring) {
      alternate = next_on_ring;
    }
    if (!deliver_hop(cur->second.peer, next->second.peer, stats, net)) {
      if (alternate == ring_.end()) return stats;  // lookup failed
      note_reroute();
      if (!deliver_hop(cur->second.peer, alternate->second.peer, stats, net)) {
        return stats;  // alternate unreachable too: lookup failed
      }
      next = alternate;
    }
    if (net != nullptr) {
      stats.latency += net->latency(cur->second.peer, next->second.peer);
    }
    ++stats.hops;
    cur = next;
  }
  // Unreachable with a consistent ring; report the oracle owner so callers
  // still make progress.
  stats.owner = successor(key)->second.peer;
  return stats;
}

void ChordRing::replicate_insert(Ring::iterator owner_it, ChordKey key,
                                 std::uint64_t value) {
  auto it = owner_it;
  const int copies = std::min<int>(replicas_, static_cast<int>(ring_.size()));
  for (int i = 0; i < copies; ++i) {
    it->second.store.insert(key, value);
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
}

void ChordRing::insert(ChordKey key, std::uint64_t value) {
  QSA_EXPECTS(!ring_.empty());
  replicate_insert(successor(key), key, value);
}

void ChordRing::erase(ChordKey key, std::uint64_t value) {
  if (ring_.empty()) return;
  // Erase from the owner and a few extra successors: replica placement may
  // have drifted under churn. Leftover copies beyond this window are
  // harmless (get() reads only the owner).
  auto it = successor(key);
  const int window =
      std::min<int>(replicas_ + 2, static_cast<int>(ring_.size()));
  for (int i = 0; i < window; ++i) {
    it->second.store.erase(key, value);
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
}

std::span<const std::uint64_t> ChordRing::values(ChordKey key) const {
  if (ring_.empty()) return {};
  return successor(key)->second.store.values(key);
}

void ChordRing::stabilize_round(double fraction) {
  if (ring_.empty()) return;
  QSA_EXPECTS(fraction > 0);
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(ring_.size()))));
  snapshot_keys(stabilize_scratch_);
  auto it = ring_.lower_bound(stabilize_cursor_);
  if (it == ring_.end()) it = ring_.begin();
  for (std::size_t i = 0; i < count && i < ring_.size(); ++i) {
    compute_fingers_sorted(stabilize_scratch_, it->first, it->second);
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
  stabilize_cursor_ = it == ring_.end() ? 0 : it->first;
}

void ChordRing::stabilize_all() {
  if (ring_.empty()) return;
  snapshot_keys(stabilize_scratch_);
  for (auto& [key, node] : ring_) {
    compute_fingers_sorted(stabilize_scratch_, key, node);
  }
}

void ChordRing::stabilize_all_on(util::ThreadPool* pool) {
  if (pool == nullptr || ring_.size() < 2048) {
    // Below ~2k nodes the chunk bookkeeping costs more than it saves.
    stabilize_all();
    return;
  }
  snapshot_keys(stabilize_scratch_);
  std::vector<Node*> nodes;
  nodes.reserve(ring_.size());
  for (auto& [key, node] : ring_) nodes.push_back(&node);
  // Disjoint contiguous chunks: each worker writes only its own nodes'
  // finger arrays from the shared read-only snapshot, so the result is the
  // serial walk's, bit for bit, regardless of scheduling.
  const std::size_t chunk = 512;
  const std::size_t chunks = (nodes.size() + chunk - 1) / chunk;
  pool->parallel_for(chunks, [this, &nodes, chunk](std::size_t c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(lo + chunk, nodes.size());
    for (std::size_t i = lo; i < hi; ++i) {
      compute_fingers_sorted(stabilize_scratch_,
                             stabilize_scratch_[i], *nodes[i]);
    }
  });
}

net::PeerId ChordRing::owner_of(ChordKey key) const {
  QSA_EXPECTS(!ring_.empty());
  return successor(key)->second.peer;
}

}  // namespace qsa::overlay
