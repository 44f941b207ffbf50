// Per-peer neighbor tables (Section 2.2 + 3.3).
//
// A peer may probe at most M neighbors, prioritized by benefit: 1-hop direct
// first, then 1-hop indirect, then 2-hop direct, and so on. Entries are soft
// state with a TTL, refreshed by the resolution protocol while a service
// path needs them. When the table is full, a new entry may evict the
// lowest-benefit (then stalest) existing entry, but never one with higher
// benefit than its own.
#pragma once

#include <cstdint>
#include <memory>

#include "qsa/net/peer.hpp"
#include "qsa/sim/time.hpp"
#include "qsa/util/dense_map.hpp"

namespace qsa::probe {

enum class NeighborKind : std::uint8_t { kDirect, kIndirect };

/// Largest hop index an entry can carry: `NeighborEntry::hop` is a
/// std::uint8_t, so callers registering a path must keep its length within
/// this bound or the hop distance would silently wrap.
inline constexpr std::size_t kMaxHopIndex = 255;

struct NeighborEntry {
  std::uint8_t hop = 1;  ///< i-hop distance along the aggregation flow
  NeighborKind kind = NeighborKind::kDirect;
  sim::SimTime expires;  ///< soft-state deadline
};

/// Probe priority of an entry: lower is more beneficial. Matches the paper's
/// order 1-hop direct < 1-hop indirect < 2-hop direct < ...
[[nodiscard]] constexpr int benefit_rank(std::uint8_t hop,
                                         NeighborKind kind) noexcept {
  return 2 * (hop - 1) + (kind == NeighborKind::kDirect ? 0 : 1);
}

class NeighborTable {
 public:
  /// An empty table with budget 0: the state a DenseMap slot holds before a
  /// real table is assigned in (and after one is erased). add() on such a
  /// table asserts — per-peer tables are always created with a budget.
  NeighborTable() noexcept;

  /// `budget` is M, the maximum number of probed neighbors.
  explicit NeighborTable(std::size_t budget);

  // Defined out of line, where EvictionIndex is complete. Move-only: no
  // caller copies a table.
  NeighborTable(NeighborTable&&) noexcept;
  NeighborTable& operator=(NeighborTable&&) noexcept;
  ~NeighborTable();

  /// Inserts or refreshes a neighbor. On refresh the entry keeps the better
  /// (lower) benefit rank and extends its TTL. A newcomer to a full table
  /// takes the slot of the longest-expired entry (ties: larger PeerId), else
  /// of the worst live one (highest rank, then earliest expiry, then larger
  /// PeerId). Returns false when the table is full of live entries at least
  /// as beneficial (the insert is rejected). The victim comes from an exact
  /// short prefix of each order; the table is scanned only when a prefix
  /// runs empty.
  bool add(net::PeerId peer, std::uint8_t hop, NeighborKind kind,
           sim::SimTime now, sim::SimTime ttl);

  /// True iff `peer` has a non-expired entry (i.e. the owner has probed
  /// performance information about it).
  [[nodiscard]] bool knows(net::PeerId peer, sim::SimTime now) const;

  /// Drops expired entries.
  void purge(sim::SimTime now);

  /// Removes a specific entry if present.
  void erase(net::PeerId peer);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

  /// The live entry set. A flat open-addressing map: the per-candidate
  /// lookups selection performs on every request are a mix-mask-probe over
  /// contiguous slots, with no per-node allocation and an iteration order
  /// that is identical across platforms and standard libraries.
  [[nodiscard]] const util::DenseMap<net::PeerId, NeighborEntry>& entries()
      const noexcept {
    return entries_;
  }

 private:
  /// Exact prefixes of the two eviction orders (defined in the .cpp). Held
  /// out of line and allocated only when the table first fills, because
  /// every DenseMap slot default-constructs a table.
  struct EvictionIndex;

  std::size_t budget_ = 0;
  util::DenseMap<net::PeerId, NeighborEntry> entries_;
  std::unique_ptr<EvictionIndex> index_;
};

}  // namespace qsa::probe
