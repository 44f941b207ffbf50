// The per-node storage layer every overlay keeps (Chord, CAN and Pastry
// alike): multi-valued keys, each holding its values as one sorted, unique
// std::vector. A DHT range query walks ~1000 postings per bucket, so reads
// hand out that contiguous run in place (DESIGN.md §15). Values iterate in
// ascending order; everything downstream, golden digests included, relies
// on that order.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "qsa/overlay/lookup.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::overlay {

class ValueStore {
 public:
  /// Adds `value` under `key`; no-op when already present.
  void insert(Key key, std::uint64_t value);

  /// Removes `value` from `key`; a key whose last value goes is dropped.
  void erase(Key key, std::uint64_t value);

  /// The values under `key`, ascending (empty when absent). The span stays
  /// valid until the next mutation of this store.
  [[nodiscard]] std::span<const std::uint64_t> values(Key key) const;

  /// Moves keys out of this store: `dest(key)` names the store the key's
  /// values join — set union with whatever that store already holds under
  /// the key — or returns null to keep the key here. One primitive serves
  /// join range moves, leave handoffs and CAN zone takeovers.
  template <typename Dest>
  void move_to(Dest&& dest) {
    for (auto it = keys_.begin(); it != keys_.end();) {
      ValueStore* to = dest(it->first);
      if (to == nullptr) {
        ++it;
        continue;
      }
      QSA_ASSERT(to != this);
      to->merge(it->first, std::move(it->second));
      it = keys_.erase(it);
    }
  }

  void clear() noexcept { keys_.clear(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }

 private:
  /// Set union of `values` (sorted, unique, non-empty) into `key`.
  void merge(Key key, std::vector<std::uint64_t>&& values);

  // Invariant: no key maps to an empty vector.
  std::map<Key, std::vector<std::uint64_t>> keys_;
};

}  // namespace qsa::overlay
