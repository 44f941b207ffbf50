// Chord ring: the P2P lookup service the aggregation model builds on.
//
// Every peer owns a node on a 64-bit identifier ring. A key is owned by its
// successor node. Nodes keep finger tables (finger[i] = first node at or
// after key + 2^i); lookups route greedily through the closest preceding
// live finger, falling back to the (always-correct) successor walk — the
// same progress guarantee real Chord gets from aggressive successor
// stabilization. Finger tables go stale under churn and are refreshed in
// periodic stabilization rounds, so lookup hop counts react to churn the way
// the protocol's do.
//
// The ring also implements the DHT storage layer the service directory
// needs: multi-valued keys with configurable replication on successors,
// key handoff on graceful leave and ownership shift on abrupt failure.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/overlay/chord_id.hpp"
#include "qsa/overlay/lookup.hpp"
#include "qsa/overlay/value_store.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::overlay {

class ChordRing final : public LookupService {
 public:
  /// `replicas` >= 1: each stored value lives on the owner plus
  /// (replicas - 1) immediate successors so abrupt failures rarely lose it.
  explicit ChordRing(std::uint64_t seed, int replicas = 2);

  /// Adds `peer` to the ring and pulls the key range it now owns from its
  /// successor. Computes the new node's fingers immediately (Chord's join
  /// does the same via lookups).
  void join(net::PeerId peer) override;

  /// Bulk-bootstrap join: same membership/store effect as join(), but the
  /// finger table is left unset (self-pointing, which routing treats as "no
  /// useful finger") until the stabilize_all() that ends the bootstrap
  /// recomputes every table anyway. Joining N peers this way is O(N log N)
  /// map inserts instead of O(N * 64 log N) finger lookups.
  void join_deferred(net::PeerId peer) override;

  /// Graceful departure: hands stored keys to the successor, then leaves.
  void leave(net::PeerId peer) override;

  /// Abrupt failure: the node vanishes with its store; replicas on
  /// successors keep surviving copies reachable.
  void fail(net::PeerId peer) override;

  [[nodiscard]] bool contains(net::PeerId peer) const override;
  [[nodiscard]] std::size_t size() const override { return ring_.size(); }

  /// Routes from `from`'s node to the owner of `key`, counting hops and, if
  /// `net` is given, summing per-hop latency. Requires a non-empty ring and
  /// `from` to be joined.
  [[nodiscard]] LookupStats route(
      ChordKey key, net::PeerId from,
      const net::NetworkModel* net = nullptr) const override;

  /// Stores `value` under `key` (owner + replicas).
  void insert(ChordKey key, std::uint64_t value) override;

  /// Removes `value` from `key` everywhere it is replicated.
  void erase(ChordKey key, std::uint64_t value) override;

  /// Values stored under `key` at its current owner (what a lookup returns).
  [[nodiscard]] std::span<const std::uint64_t> values(
      ChordKey key) const override;

  /// Refreshes the finger tables of roughly `fraction` of the nodes,
  /// cycling through the ring across calls (periodic stabilization).
  void stabilize_round(double fraction = 0.1) override;

  /// Refreshes every finger table (used after bulk bootstrap joins).
  void stabilize_all() override;

  /// Parallel full refresh: every node's fingers are a pure function of the
  /// shared sorted key snapshot, so the per-node rebuilds fan out over the
  /// pool and land byte-identical to the serial walk.
  void stabilize_all_on(util::ThreadPool* pool) override;

  /// The node key owning `key` resolved against the live ring (oracle view,
  /// for tests).
  [[nodiscard]] net::PeerId owner_of(ChordKey key) const override;

 private:
  struct Node {
    net::PeerId peer = net::kNoPeer;
    // finger[i] targets key + 2^i. Inline array (not a heap vector): one
    // allocation per node instead of two, which matters at 10^6 joins. A
    // finger equal to the node's own key means "unset/useless" — routing
    // skips it (deferred joins fill the whole table with the own key).
    std::array<ChordKey, kKeyBits> fingers{};
    ValueStore store;
  };

  using Ring = std::map<ChordKey, Node>;

  /// First live node at or after `key` (wrapping). Requires non-empty ring.
  [[nodiscard]] Ring::const_iterator successor(ChordKey key) const;
  [[nodiscard]] Ring::iterator successor(ChordKey key);

  void compute_fingers(ChordKey at, Node& node) const;
  /// Finger recomputation against a sorted snapshot of the ring's keys —
  /// contiguous binary searches instead of 64 pointer-chasing map walks per
  /// node; bit-identical results. The stabilize paths refresh many nodes
  /// per call, which amortizes the snapshot copy.
  static void compute_fingers_sorted(const std::vector<ChordKey>& keys,
                                     ChordKey at, Node& node);
  void snapshot_keys(std::vector<ChordKey>& out) const;
  /// Shared join body; `deferred` skips the finger computation.
  void join_impl(net::PeerId peer, bool deferred);
  void replicate_insert(Ring::iterator owner_it, ChordKey key,
                        std::uint64_t value);

  std::uint64_t seed_;
  int replicas_;
  Ring ring_;
  std::unordered_map<net::PeerId, ChordKey> key_of_peer_;
  ChordKey stabilize_cursor_ = 0;
  std::vector<ChordKey> stabilize_scratch_;  // grow-only snapshot buffer
};

}  // namespace qsa::overlay
