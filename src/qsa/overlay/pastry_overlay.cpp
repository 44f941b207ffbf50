#include "qsa/overlay/pastry_overlay.hpp"

#include <algorithm>
#include <cmath>

#include "qsa/overlay/chord_id.hpp"
#include "qsa/util/expects.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::overlay {

int PastryOverlay::shared_digits(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == b) return kDigits;
  const int lz = __builtin_clzll(a ^ b);
  return lz / kDigitBits;
}

PastryOverlay::PastryOverlay(std::uint64_t seed, int replicas)
    : seed_(seed), replicas_(replicas) {
  QSA_EXPECTS(replicas >= 1);
}

bool PastryOverlay::contains(net::PeerId peer) const {
  return id_of_peer_.contains(peer);
}

PastryOverlay::Ring::const_iterator PastryOverlay::node_nearest(
    std::uint64_t id) const {
  QSA_EXPECTS(!ring_.empty());
  auto hi = ring_.lower_bound(id);
  auto lo = hi;
  if (hi == ring_.end()) hi = ring_.begin();
  lo = lo == ring_.begin() ? std::prev(ring_.end()) : std::prev(lo);
  const std::uint64_t dh = circular_dist(hi->first, id);
  const std::uint64_t dl = circular_dist(lo->first, id);
  if (dh < dl) return hi;
  if (dl < dh) return lo;
  return lo->first < hi->first ? lo : hi;  // tie: lower id
}

PastryOverlay::Ring::iterator PastryOverlay::node_nearest(std::uint64_t id) {
  const auto cit = static_cast<const PastryOverlay*>(this)->node_nearest(id);
  return ring_.find(cit->first);
}

PastryOverlay::Leaves PastryOverlay::leaf_set(Ring::const_iterator it) const {
  Leaves out;
  out.leftmost = out.rightmost = it->first;
  out.whole_ring = ring_.size() <= 2 * kLeafHalf + 1;
  auto fwd = it;
  auto bwd = it;
  for (int i = 0; i < kLeafHalf; ++i) {
    fwd = std::next(fwd) == ring_.end() ? ring_.begin() : std::next(fwd);
    if (fwd == it) break;
    out.ids.push_back(fwd->first);
    out.rightmost = fwd->first;
  }
  for (int i = 0; i < kLeafHalf; ++i) {
    bwd = bwd == ring_.begin() ? std::prev(ring_.end()) : std::prev(bwd);
    if (bwd == it) break;
    if (std::find(out.ids.begin(), out.ids.end(), bwd->first) ==
        out.ids.end()) {
      out.ids.push_back(bwd->first);
      out.leftmost = bwd->first;
    }
  }
  return out;
}

void PastryOverlay::compute_routing(std::uint64_t id, Node& node) const {
  for (int l = 0; l < kDigits; ++l) {
    const int own_digit = digit(id, l);
    const int shift = 64 - kDigitBits * (l + 1);
    // Mask keeping the l leading digits.
    const std::uint64_t prefix_mask =
        l == 0 ? 0ull : ~0ull << (64 - kDigitBits * l);
    for (int d = 0; d < kBase; ++d) {
      auto& slot = node.routing[static_cast<std::size_t>(l)]
                               [static_cast<std::size_t>(d)];
      slot = kNoEntry;
      if (d == own_digit) continue;
      const std::uint64_t base = (id & prefix_mask) |
                                 (static_cast<std::uint64_t>(d) << shift);
      const std::uint64_t span = shift == 0 ? 1ull : (1ull << shift);
      auto it = ring_.lower_bound(base);
      if (it != ring_.end() && it->first - base < span) slot = it->first;
    }
  }
  node.routing_valid = true;
}

void PastryOverlay::join(net::PeerId peer) {
  QSA_EXPECTS(!contains(peer));
  const std::uint64_t id =
      node_key(seed_ ^ util::hash_str("pastry-node"), peer);
  QSA_EXPECTS(!ring_.contains(id));
  Node node;
  node.peer = peer;
  const bool first = ring_.empty();
  auto [it, inserted] = ring_.emplace(id, std::move(node));
  QSA_ASSERT(inserted);
  id_of_peer_.emplace(peer, id);
  if (!first) {
    // Pull over the keys the newcomer is now nearest to, from both ring
    // neighbors (the only nodes whose ownership ranges shrank).
    for (auto* neighbor : {&*(std::next(it) == ring_.end() ? ring_.begin()
                                                           : std::next(it)),
                           &*(it == ring_.begin() ? std::prev(ring_.end())
                                                  : std::prev(it))}) {
      if (neighbor->first == id) continue;
      neighbor->second.store.move_to([&](Key k) {
        return node_nearest(k)->first == id ? &it->second.store : nullptr;
      });
    }
  }
  compute_routing(id, it->second);
}

void PastryOverlay::leave(net::PeerId peer) {
  auto pit = id_of_peer_.find(peer);
  if (pit == id_of_peer_.end()) return;
  auto it = ring_.find(pit->second);
  QSA_ASSERT(it != ring_.end());
  // Ownership is numerically-closest, so the departed node's keys split
  // between both ring neighbors: hand each key to its new nearest node.
  auto store = std::move(it->second.store);
  ring_.erase(it);
  id_of_peer_.erase(pit);
  if (!ring_.empty()) {
    store.move_to([this](Key k) { return &node_nearest(k)->second.store; });
  }
}

void PastryOverlay::fail(net::PeerId peer) {
  auto pit = id_of_peer_.find(peer);
  if (pit == id_of_peer_.end()) return;
  ring_.erase(pit->second);  // store lost; leaf replicas keep copies alive
  id_of_peer_.erase(pit);
}

LookupStats PastryOverlay::route(Key key, net::PeerId from,
                                 const net::NetworkModel* net) const {
  QSA_EXPECTS(!ring_.empty());
  const auto fit = id_of_peer_.find(from);
  QSA_EXPECTS(fit != id_of_peer_.end());

  LookupStats stats;
  auto cur = ring_.find(fit->second);
  QSA_ASSERT(cur != ring_.end());
  auto hop_to = [&](Ring::const_iterator next) {
    if (net != nullptr) {
      stats.latency += net->latency(cur->second.peer, next->second.peer);
    }
    ++stats.hops;
    cur = next;
  };
  // Fault-aware hop: deliver the routing message (paying for drops and
  // retries), falling back to the numerically-closest node as the alternate
  // route when the primary stays unreachable. Returns false when the hop —
  // and with it the whole lookup — failed.
  auto try_hop = [&](Ring::const_iterator next) {
    if (deliver_hop(cur->second.peer, next->second.peer, stats, net)) {
      hop_to(next);
      return true;
    }
    const auto alternate = node_nearest(key);
    if (alternate == next || alternate == cur) return false;
    note_reroute();
    if (!deliver_hop(cur->second.peer, alternate->second.peer, stats, net)) {
      return false;
    }
    hop_to(alternate);
    return true;
  };

  const int max_hops = kDigits + 8;
  while (stats.hops <= max_hops) {
    // Are we ourselves responsible? True iff we beat both ring neighbors
    // (the owner's key always lies between the midpoints to its neighbors).
    if (ring_.size() == 1) {
      stats.owner = cur->second.peer;
      return stats;
    }
    {
      auto nxt = std::next(cur) == ring_.end() ? ring_.begin() : std::next(cur);
      auto prv = cur == ring_.begin() ? std::prev(ring_.end()) : std::prev(cur);
      const std::uint64_t dc = circular_dist(cur->first, key);
      const std::uint64_t dn = circular_dist(nxt->first, key);
      const std::uint64_t dp = circular_dist(prv->first, key);
      const bool beats_next = dc < dn || (dc == dn && cur->first < nxt->first);
      const bool beats_prev = dc < dp || (dc == dp && cur->first < prv->first);
      if (beats_next && beats_prev) {
        stats.owner = cur->second.peer;
        return stats;
      }
    }
    // Leaf-set check: when the key lies within the leaf arc (and the arc
    // spans less than half the circle, so circular distances cannot sneak
    // around the far side), the closest of {us, leaves} is the global owner.
    const auto leaves = leaf_set(cur);
    std::uint64_t best_id = cur->first;
    std::uint64_t best_dist = circular_dist(cur->first, key);
    for (const std::uint64_t leaf : leaves.ids) {
      const std::uint64_t d = circular_dist(leaf, key);
      if (d < best_dist || (d == best_dist && leaf < best_id)) {
        best_dist = d;
        best_id = leaf;
      }
    }
    bool in_leaf_range = leaves.whole_ring;
    if (!in_leaf_range) {
      const std::uint64_t span = leaves.rightmost - leaves.leftmost;
      in_leaf_range =
          span < (1ull << 63) && (key - leaves.leftmost) <= span;
    }
    if (in_leaf_range) {
      if (best_id == cur->first) {
        stats.owner = cur->second.peer;
        return stats;
      }
      const auto next = ring_.find(best_id);
      QSA_ASSERT(next != ring_.end());
      // Final hop to the arc-wide owner: it is the only correct
      // destination, so try_hop's alternate (the same node) cannot help
      // and the retry budget is all there is.
      if (!try_hop(next)) return stats;  // owner stays kNoPeer
      stats.owner = cur->second.peer;
      return stats;
    }

    // Prefix routing.
    const int l = shared_digits(cur->first, key);
    Ring::const_iterator next = ring_.end();
    if (cur->second.routing_valid && l < kDigits) {
      const std::uint64_t entry =
          cur->second.routing[static_cast<std::size_t>(l)]
                             [static_cast<std::size_t>(digit(key, l))];
      if (entry != kNoEntry) {
        const auto eit = ring_.find(entry);
        if (eit != ring_.end()) next = eit;  // stale entries are skipped
      }
    }
    if (next == ring_.end()) {
      // Rare case (Pastry's union rule): the best node anywhere in our
      // state — leaf set or any routing-table entry — with an
      // equal-or-longer shared prefix that is strictly closer to the key.
      const std::uint64_t cur_dist = circular_dist(cur->first, key);
      std::uint64_t best_id = 0;
      std::uint64_t best_dist = cur_dist;
      auto consider = [&](std::uint64_t candidate) {
        if (candidate == kNoEntry) return;
        if (shared_digits(candidate, key) < l) return;
        const std::uint64_t d = circular_dist(candidate, key);
        if (d < best_dist && ring_.contains(candidate)) {
          best_dist = d;
          best_id = candidate;
        }
      };
      for (const std::uint64_t leaf : leaves.ids) consider(leaf);
      if (cur->second.routing_valid) {
        for (const auto& row : cur->second.routing) {
          for (const std::uint64_t entry : row) consider(entry);
        }
      }
      if (best_dist < cur_dist) next = ring_.find(best_id);
    }
    if (next == ring_.end()) {
      // Routing state too stale: a real node would fall back to expanding
      // its leaf set; we charge one hop and deliver to the oracle owner.
      const auto owner = node_nearest(key);
      if (!try_hop(owner)) return stats;  // owner stays kNoPeer
      stats.owner = cur->second.peer;
      return stats;
    }
    if (!try_hop(next)) return stats;  // owner stays kNoPeer
  }
  const auto owner = node_nearest(key);
  stats.owner = owner->second.peer;
  return stats;
}

void PastryOverlay::replicate_insert(Ring::iterator owner_it, Key key,
                                     std::uint64_t value) {
  // PAST-style placement: the owner plus the id-closest neighbors on
  // alternating sides, so ownership shifts in either direction after a
  // failure still land on a replica.
  const int copies = std::min<int>(replicas_, static_cast<int>(ring_.size()));
  auto fwd = owner_it;
  auto bwd = owner_it;
  owner_it->second.store.insert(key, value);
  for (int i = 1; i < copies; ++i) {
    if (i % 2 == 1) {
      fwd = std::next(fwd) == ring_.end() ? ring_.begin() : std::next(fwd);
      fwd->second.store.insert(key, value);
    } else {
      bwd = bwd == ring_.begin() ? std::prev(ring_.end()) : std::prev(bwd);
      bwd->second.store.insert(key, value);
    }
  }
}

void PastryOverlay::insert(Key key, std::uint64_t value) {
  QSA_EXPECTS(!ring_.empty());
  replicate_insert(node_nearest(key), key, value);
}

void PastryOverlay::erase(Key key, std::uint64_t value) {
  if (ring_.empty()) return;
  // Symmetric wider-than-insert window, as in the other substrates: replica
  // placement drifts under churn; leftovers beyond it are unreadable anyway.
  const int half =
      std::min<int>(replicas_ / 2 + 2, static_cast<int>(ring_.size()) / 2);
  auto it = node_nearest(key);
  for (int i = 0; i < half; ++i) {
    it = it == ring_.begin() ? std::prev(ring_.end()) : std::prev(it);
  }
  const int window = std::min<int>(2 * half + 1, static_cast<int>(ring_.size()));
  for (int i = 0; i < window; ++i) {
    it->second.store.erase(key, value);
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
}

std::span<const std::uint64_t> PastryOverlay::values(Key key) const {
  if (ring_.empty()) return {};
  return node_nearest(key)->second.store.values(key);
}

void PastryOverlay::stabilize_round(double fraction) {
  if (ring_.empty()) return;
  QSA_EXPECTS(fraction > 0);
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(ring_.size()))));
  auto it = ring_.lower_bound(stabilize_cursor_);
  if (it == ring_.end()) it = ring_.begin();
  for (std::size_t i = 0; i < count && i < ring_.size(); ++i) {
    compute_routing(it->first, it->second);
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
  stabilize_cursor_ = it == ring_.end() ? 0 : it->first;
}

void PastryOverlay::stabilize_all() {
  for (auto& [id, node] : ring_) compute_routing(id, node);
}

net::PeerId PastryOverlay::owner_of(Key key) const {
  QSA_EXPECTS(!ring_.empty());
  return node_nearest(key)->second.peer;
}

}  // namespace qsa::overlay
