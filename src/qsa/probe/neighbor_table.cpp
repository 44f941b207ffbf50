#include "qsa/probe/neighbor_table.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "qsa/util/expects.hpp"

namespace qsa::probe {

namespace {

/// An entry's position in both eviction orders. Every order ends with a
/// PeerId tiebreak, so keys are unique and the victim is a pure function of
/// the table contents, independent of iteration order: the evicted peer (and
/// everything downstream of the table's contents) is reproducible.
struct EvictKey {
  sim::SimTime expires;
  net::PeerId peer = net::kNoPeer;
  int rank = 0;
};

EvictKey key_of(net::PeerId peer, const NeighborEntry& entry) {
  return {entry.expires, peer, benefit_rank(entry.hop, entry.kind)};
}

/// Reclaim order: the longest-expired entry first, ties to the larger PeerId.
struct StalerFirst {
  bool operator()(const EvictKey& a, const EvictKey& b) const {
    if (a.expires != b.expires) return a.expires < b.expires;
    return a.peer > b.peer;
  }
};

/// Eviction order among live entries: the worst (highest) benefit rank
/// first, then the earliest expiry, then the larger PeerId.
struct WorseFirst {
  bool operator()(const EvictKey& a, const EvictKey& b) const {
    if (a.rank != b.rank) return a.rank > b.rank;
    return StalerFirst{}(a, b);
  }
};

/// Keys kept per order. Large enough that a full table rescans rarely (an
/// eviction uses up at most one key of each prefix), small enough that the
/// index of every full table stays a few hundred bytes.
constexpr std::size_t kPrefixLen = 16;

/// The first n_ entries of the table in order `Before`, sorted —
/// exactly, never an approximation: every entry ordered at or before the
/// last key held is held. An empty prefix means "unknown" (rebuild before
/// use) unless the table is empty too.
template <typename Before>
class Prefix {
 public:
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] const EvictKey& front() const noexcept { return keys_[0]; }

  /// True iff `k` (the key of an entry in the table) is held.
  [[nodiscard]] bool holds(const EvictKey& k) const {
    return n_ > 0 && !Before{}(keys_[n_ - 1], k);
  }

  /// Drops a held key; what remains is still the table's first n_-1.
  void remove(const EvictKey& k) {
    const std::size_t pos = position(k);
    QSA_ASSERT(pos < n_ && keys_[pos].peer == k.peer);
    std::copy(keys_.begin() + pos + 1, keys_.begin() + n_,
              keys_.begin() + pos);
    --n_;
  }

  /// Records a key just added to the table, where `others` entries were
  /// already. It belongs here iff it precedes the last key held, or the
  /// prefix held all `others` entries; a full prefix sheds its last key.
  void insert(const EvictKey& k, std::size_t others) {
    if (n_ != others && !(n_ > 0 && Before{}(k, keys_[n_ - 1]))) return;
    const std::size_t pos = position(k);
    if (pos == kPrefixLen) return;  // held all others, all kPrefixLen of them
    const std::size_t last = std::min<std::size_t>(n_, kPrefixLen - 1);
    std::copy_backward(keys_.begin() + pos, keys_.begin() + last,
                       keys_.begin() + last + 1);
    keys_[pos] = k;
    n_ = static_cast<std::uint8_t>(last + 1);
  }

  /// An entry's key changed from `was` to `now`. A refresh only ever moves
  /// an entry later in both orders, so an entry not held stays not held;
  /// a held one is re-placed exactly (and drops out when it now follows
  /// the last key held — entries beyond the prefix could precede it).
  void refresh(const EvictKey& was, const EvictKey& now, std::size_t others) {
    QSA_ASSERT(!Before{}(now, was));
    if (!Before{}(was, now) || !holds(was)) return;
    remove(was);
    insert(now, others);
  }

  /// Refills from a full scan: bounded insertion of every entry.
  void rebuild(const util::DenseMap<net::PeerId, NeighborEntry>& entries) {
    n_ = 0;
    std::size_t seen = 0;
    for (const auto& [peer, entry] : entries) {
      insert(key_of(peer, entry), seen++);
    }
  }

 private:
  /// Index of the first held key not ordered before `k`.
  [[nodiscard]] std::size_t position(const EvictKey& k) const {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.begin() + n_, k, Before{}) -
        keys_.begin());
  }

  std::array<EvictKey, kPrefixLen> keys_{};
  std::uint8_t n_ = 0;
};

}  // namespace

struct NeighborTable::EvictionIndex {
  Prefix<WorseFirst> worst;     // live-eviction candidates
  Prefix<StalerFirst> stalest;  // expired-reclaim candidates

  void insert(const EvictKey& k, std::size_t others) {
    worst.insert(k, others);
    stalest.insert(k, others);
  }
  void erase(const EvictKey& k) {
    if (worst.holds(k)) worst.remove(k);
    if (stalest.holds(k)) stalest.remove(k);
  }
};

// The index lives behind one pointer: NeighborResolution's DenseMap
// default-constructs a NeighborTable in every slot, so inline prefix arrays
// would be paid by every slot of every peer, full table or not. This bound
// (the pre-index layout plus 16 bytes) keeps it that way.
static_assert(sizeof(NeighborTable) <=
                  sizeof(std::size_t) +
                      sizeof(util::DenseMap<net::PeerId, NeighborEntry>) + 16,
              "NeighborTable's eviction index must stay out of line");

NeighborTable::NeighborTable() noexcept = default;

NeighborTable::NeighborTable(std::size_t budget) : budget_(budget) {
  QSA_EXPECTS(budget >= 1);
}

NeighborTable::NeighborTable(NeighborTable&&) noexcept = default;
NeighborTable& NeighborTable::operator=(NeighborTable&&) noexcept = default;
NeighborTable::~NeighborTable() = default;

bool NeighborTable::add(net::PeerId peer, std::uint8_t hop, NeighborKind kind,
                        sim::SimTime now, sim::SimTime ttl) {
  QSA_EXPECTS(hop >= 1);
  QSA_EXPECTS(budget_ >= 1);  // default-constructed tables never take adds
  const sim::SimTime expires = now + ttl;
  if (auto it = entries_.find(peer); it != entries_.end()) {
    // Refresh: keep the better benefit, extend the deadline.
    NeighborEntry& entry = it->second;
    const EvictKey was = key_of(peer, entry);
    if (benefit_rank(hop, kind) < was.rank) {
      entry.hop = hop;
      entry.kind = kind;
    }
    if (expires > entry.expires) entry.expires = expires;
    if (index_) {
      const EvictKey now_key = key_of(peer, entry);
      index_->worst.refresh(was, now_key, entries_.size() - 1);
      index_->stalest.refresh(was, now_key, entries_.size() - 1);
    }
    return true;
  }
  if (entries_.size() >= budget_) {
    // Reclaim the longest-expired entry if there is one; otherwise evict the
    // lowest-benefit live entry — but never one more beneficial than the
    // newcomer.
    if (!index_) index_ = std::make_unique<EvictionIndex>();
    if (index_->stalest.empty()) index_->stalest.rebuild(entries_);
    net::PeerId victim = index_->stalest.front().peer;
    if (index_->stalest.front().expires > now) {
      if (index_->worst.empty()) index_->worst.rebuild(entries_);
      const EvictKey& worst = index_->worst.front();
      if (worst.rank < benefit_rank(hop, kind)) {
        return false;  // everything in the table beats the newcomer
      }
      victim = worst.peer;
    }
    erase(victim);
  }
  const auto [it, inserted] =
      entries_.emplace(peer, NeighborEntry{hop, kind, expires});
  QSA_ASSERT(inserted);
  if (index_) index_->insert(key_of(peer, it->second), entries_.size() - 1);
  return true;
}

bool NeighborTable::knows(net::PeerId peer, sim::SimTime now) const {
  auto it = entries_.find(peer);
  return it != entries_.end() && it->second.expires > now;
}

void NeighborTable::purge(sim::SimTime now) {
  // Two passes: DenseMap's backward-shift erase relocates entries, so
  // collect the expired keys first, then drop them.
  std::vector<net::PeerId> expired;
  for (const auto& [p, entry] : entries_) {
    if (entry.expires <= now) expired.push_back(p);
  }
  for (net::PeerId p : expired) erase(p);
}

void NeighborTable::erase(net::PeerId peer) {
  auto it = entries_.find(peer);
  if (it == entries_.end()) return;
  if (index_) index_->erase(key_of(peer, it->second));
  entries_.erase(peer);
}

}  // namespace qsa::probe
