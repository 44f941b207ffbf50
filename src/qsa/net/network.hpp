// Wide-area network model between peers (Section 4.1).
//
// The paper does not model a router topology; it assigns each peer pair an
// end-to-end bottleneck bandwidth drawn from {10 Mbps, 500 kbps, 100 kbps,
// 56 kbps} and a latency from {200, 150, 80, 20, 1} ms. A 10^4-peer grid has
// 5*10^7 pairs, so neither model stores per-pair values; both derive them
// O(1) from the endpoints and keep state only for pairs with active
// reservations:
//
//   * kPaper (default): each unordered pair hashes independently to one
//     bandwidth and one latency level — the paper's i.i.d. pair model,
//     byte-compatible with every golden digest;
//   * kCoords: each *peer* hashes to a point in the unit square (a 2-D
//     synthetic latency space) and an access-link tier. Pair latency is the
//     Euclidean distance quantized onto the paper's level set via the exact
//     distance-distribution quantiles; pair bandwidth is the min of the two
//     access tiers, with the per-peer tier CDF chosen as sqrt(k/4) so the
//     pair marginal is exactly uniform over the paper's four levels. Same
//     marginals, but latencies now satisfy geometric locality (near peers
//     are near everyone the same way), which is what network-aware
//     composition exploits and what a million-peer run needs: per-peer
//     derivation instead of per-pair state.
//
// Bandwidth reservations carry the same probe-epoch snapshot semantics as
// peer resources. The reservation ledger is a true footprint: entries whose
// reservation has returned to zero are evicted once their epoch snapshot
// can no longer be observed, so its size tracks concurrent sessions, not
// distinct pairs ever reserved.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qsa/net/peer.hpp"
#include "qsa/net/reservations.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::net {

/// How pair latency/bandwidth are derived from the seed (see file comment).
enum class NetModelKind : std::uint8_t { kPaper, kCoords };

[[nodiscard]] std::string_view to_string(NetModelKind kind) noexcept;

class NetworkModel {
 public:
  /// Paper value sets.
  static constexpr double kBandwidthLevelsKbps[] = {10'000, 500, 100, 56};
  static constexpr std::int64_t kLatencyLevelsMs[] = {200, 150, 80, 20, 1};

  /// Loopback (a == b) capacity: effectively unconstrained.
  static constexpr double kLoopbackKbps = 1e9;

  /// Ledger entries below the eviction floor are never swept; golden-scale
  /// runs (hundreds of peers) therefore keep every entry ever touched and
  /// stay byte-identical, while large grids plateau at the floor plus their
  /// concurrent-session footprint.
  static constexpr std::size_t kDefaultEvictFloor = 8192;

  NetworkModel(std::uint64_t seed, ProbeClock clock,
               NetModelKind kind = NetModelKind::kPaper);

  [[nodiscard]] NetModelKind model() const noexcept { return kind_; }

  /// Bottleneck capacity of the (a, b) pair in kbps; symmetric; huge for the
  /// degenerate a == b pair (a peer talking to itself).
  [[nodiscard]] double capacity_kbps(PeerId a, PeerId b) const;

  /// Application-level one-way latency of the pair; 0 for a == b.
  [[nodiscard]] sim::SimTime latency(PeerId a, PeerId b) const;

  /// Ground-truth available bandwidth (capacity - live reservations).
  [[nodiscard]] double available_kbps(PeerId a, PeerId b) const;

  /// Available bandwidth as a prober sees it at `now` (epoch-start state).
  [[nodiscard]] double probed_available_kbps(PeerId a, PeerId b,
                                             sim::SimTime now) const;

  /// Reserves `kbps` on the pair; false (no change) when short. Loopback
  /// pairs always admit and never enter the ledger.
  [[nodiscard]] bool try_reserve(PeerId a, PeerId b, double kbps,
                                 sim::SimTime now);

  /// Releases a prior reservation. No-op for loopback pairs.
  void release(PeerId a, PeerId b, double kbps, sim::SimTime now);

  /// Number of pairs currently resident in the reservation ledger — the
  /// model's memory footprint. Settled entries are evicted (see
  /// set_evict_floor), so under churn this plateaus instead of growing with
  /// every pair ever reserved.
  [[nodiscard]] std::size_t active_pairs() const noexcept {
    return links_.size();
  }

  /// Distinct pairs ever reserved (loopback pairs included) — the
  /// historical "net.active_pairs" accounting, kept monotone so exported
  /// counters are unaffected by ledger eviction. Counts ledger insertions:
  /// exact as long as no evicted pair is re-reserved (guaranteed below the
  /// eviction floor, i.e. at golden scale).
  [[nodiscard]] std::uint64_t touched_pairs() const noexcept {
    return touched_pairs_ + self_touched_count_;
  }

  /// Ledger size below which settled entries are never evicted (default
  /// kDefaultEvictFloor). Tests set 0 to sweep on every epoch advance.
  void set_evict_floor(std::size_t floor) noexcept { evict_floor_ = floor; }

  /// The peer's point in the synthetic latency space (kCoords derivation;
  /// defined — but unused by latency() — under kPaper).
  [[nodiscard]] std::pair<double, double> coordinate(PeerId p) const noexcept;

  /// The peer's access-link tier as an index into kBandwidthLevelsKbps
  /// (kCoords derivation; 0 = best). Pair capacity = the worse tier.
  [[nodiscard]] int access_tier(PeerId p) const noexcept;

  /// Canonical (order-independent) 64-bit key of a peer pair — the ledger's
  /// map key. Public so tests can pin its injectivity; a static_assert in
  /// the implementation refuses PeerId types wider than 32 bits, for which
  /// the packing would silently alias distinct pairs.
  [[nodiscard]] static std::uint64_t pair_key(PeerId a, PeerId b) noexcept;

 private:
  [[nodiscard]] std::uint64_t pair_hash(PeerId a, PeerId b,
                                        std::uint64_t purpose) const noexcept;
  [[nodiscard]] std::uint64_t peer_hash(PeerId p,
                                        std::uint64_t purpose) const noexcept;

  /// Once per epoch (mutating paths only — const probes stay pure for the
  /// concurrent serving readers), drops settled entries: reservation back
  /// at zero and the epoch snapshot no longer observable, so absence is
  /// indistinguishable from presence to every query.
  void maybe_sweep(std::int64_t epoch);

  void note_self_touch(PeerId p);

  std::uint64_t seed_;
  ProbeClock clock_;
  NetModelKind kind_;
  std::unordered_map<std::uint64_t, Snapshotted<double>> links_;
  std::size_t evict_floor_ = kDefaultEvictFloor;
  std::int64_t last_sweep_epoch_ = INT64_MIN;
  std::uint64_t touched_pairs_ = 0;  ///< distinct non-loopback insertions
  std::vector<bool> self_touched_;   ///< loopback pairs seen, by PeerId
  std::uint64_t self_touched_count_ = 0;
};

}  // namespace qsa::net
