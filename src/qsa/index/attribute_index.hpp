// The attribute index (DESIGN.md §15): per-attribute, per-service posting
// lists stored *in the overlay itself* under the order-preserving key
// encoding of index/keys.hpp, so multi-attribute range discovery routes as
// ordinary overlay lookups — subject to the same churn, replication and
// fault-injection machinery as every other message.
//
// Maintenance is soft state. Each (instance, provider) registration is a
// posting inserted under one bucket key per attribute; a shadow ledger on
// the publishing side remembers each posting's buckets, publish-time
// attribute values and last-refresh epoch. The periodic republish advances
// the epoch, re-buckets values that moved (uptime grows, clones appear),
// and expires postings unrefreshed for `expiry_epochs` epochs — exactly how
// churned providers age out: their placement rows vanish at departure, so
// the next republish skips them and the sweep reclaims their postings.
//
// A query scans the contiguous bucket span of each active predicate (first
// bucket routed from the requester at O(log N) hops, subsequent buckets
// routed from the previous owner — on-arc, so usually zero or one hop),
// intersects the per-attribute posting sets client-side, and re-checks the
// survivors exactly against the ledger's stored values (the record a real
// lookup response would carry). Quantization makes the scan a conservative
// superset: the re-check drops the false positives and counts them; it
// never misses a qualifying posting. Under fault injection a lost mid-scan
// segment is retried from the original requester; if that reroute also
// fails the whole query fails — partial results are never passed off as
// complete.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "qsa/index/keys.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/overlay/lookup.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/registry/placement.hpp"
#include "qsa/util/dense_map.hpp"

namespace qsa::index {

struct IndexConfig {
  /// Epochs (republish periods) a posting survives without a refresh before
  /// the sweep reclaims it. 1 = reclaim at the first republish that skips
  /// it; the default tolerates one lost republish cycle.
  int expiry_epochs = 2;
};

/// Cumulative maintenance/query accounting (the fault-stats pattern: plain
/// counters, exported by the harness only when the backend is enabled).
struct IndexStats {
  std::uint64_t publishes = 0;        ///< new postings inserted
  std::uint64_t updates = 0;          ///< postings re-bucketed on refresh
  std::uint64_t expiries = 0;         ///< postings aged out by the sweep
  std::uint64_t scans = 0;            ///< range queries answered
  std::uint64_t scan_segments = 0;    ///< bucket lookups routed
  std::uint64_t scan_hops = 0;        ///< routing hops over all scans
  std::uint64_t scan_reroutes = 0;    ///< mid-scan segments retried
  std::uint64_t failed_scans = 0;     ///< queries lost even after reroute
  std::uint64_t scanned_postings = 0; ///< postings returned by bucket scans
  std::uint64_t false_positives = 0;  ///< dropped by the exact re-check
  std::uint64_t stale_postings = 0;   ///< provider already departed at use
};

/// A multi-attribute range query over one service's registrations. Every
/// predicate is optional and of "at least" polarity (bandwidth counts tier
/// quality, so `max_tier` — a numerically smaller tier is a faster link).
struct RangeQuery {
  registry::ServiceId service = 0;
  std::optional<double> min_cpu;        ///< provider capacity, resource units
  std::optional<int> max_tier;          ///< worst acceptable access tier
  std::optional<double> min_uptime_min; ///< provider uptime, minutes
  std::optional<double> min_level;      ///< instance Qout quality floor
};

/// The routing cost and filtering outcome of one query.
struct QueryStats {
  int hops = 0;
  sim::SimTime latency;
  int segments = 0;        ///< bucket lookups routed
  int rerouted = 0;        ///< segments retried from the requester
  bool failed = false;     ///< lost under faults even after reroute
  int scanned = 0;         ///< postings the bucket scan returned
  int false_positives = 0; ///< scanned but failing the exact predicate
  int stale = 0;           ///< surviving postings with a departed provider
};

/// Shadow record of one posting: last-refresh epoch, the bucket each
/// attribute key used, and the exact publish-time values the client-side
/// re-check verifies against (in the real system the record travels in the
/// lookup response, like the directory's catalog/placement reads).
struct LedgerEntry {
  std::uint64_t epoch = 0;
  std::array<std::uint8_t, kAttributeCount> bucket{};
  float cpu = 0;
  float uptime_min = 0;
  float level = 0;
  std::int8_t tier = 0;
};

class AttributeIndex {
 public:
  AttributeIndex(std::uint64_t seed, overlay::LookupService& ring,
                 const registry::ServiceCatalog& catalog,
                 const registry::PlacementMap& placement,
                 const net::PeerTable& peers, const net::NetworkModel& net,
                 qos::ParamId level_param, IndexConfig config = {});

  /// Registers (or refreshes) `instance`'s postings — one per current
  /// provider — at the publish-time attribute values.
  void publish(registry::InstanceId instance, sim::SimTime now);

  /// Eagerly removes every posting of `instance` (retirement; departures
  /// instead age out through the epoch sweep).
  void unpublish(registry::InstanceId instance);

  /// Eagerly removes the single (instance, provider) posting — replica
  /// retirement narrowed the pool by one host without unregistering the
  /// instance. No-op if the posting is unknown.
  void remove(registry::InstanceId instance, net::PeerId provider);

  /// Bootstrap / periodic republish: advances the epoch, refreshes every
  /// catalog instance's postings, then expires anything unrefreshed for
  /// `expiry_epochs` epochs.
  void publish_all(sim::SimTime now);

  /// Answers `query` by routed bucket scans from `from`, writing the
  /// qualifying candidate instances (ascending, unique) into `out`. On a
  /// scan lost under fault injection, `out` is empty and stats.failed is
  /// set — never a silently truncated candidate set. A query with no
  /// predicate scans the full level arc (service membership).
  QueryStats query_into(const RangeQuery& query, net::PeerId from,
                        const net::NetworkModel* net,
                        std::vector<registry::InstanceId>& out) const;

  [[nodiscard]] const IndexStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t postings() const noexcept {
    return ledger_.size();
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  void upsert(registry::InstanceId instance, net::PeerId provider,
              sim::SimTime now);
  void erase_posting(Posting posting, const LedgerEntry& entry);
  /// Erases every posting in `doomed` from the overlay and the ledger.
  void erase_postings(const std::vector<Posting>& doomed);
  void expire_stale();

  /// Routes the bucket span [lo, hi] of one arc, appending raw postings.
  /// False when the scan was lost even after the requester-side reroute.
  bool scan_arc(Attribute a, registry::ServiceId service, int lo, int hi,
                net::PeerId from, const net::NetworkModel* net,
                QueryStats& qs, std::vector<Posting>& postings) const;

  std::uint64_t seed_;
  overlay::LookupService& ring_;
  const registry::ServiceCatalog& catalog_;
  const registry::PlacementMap& placement_;
  const net::PeerTable& peers_;
  const net::NetworkModel& net_;
  IndexConfig config_;
  qos::ParamId level_param_;

  std::uint64_t epoch_ = 0;
  util::DenseMap<Posting, LedgerEntry> ledger_;
  mutable IndexStats stats_;

  // Query scratch, grow-only (one AttributeIndex serves one thread).
  mutable std::vector<Posting> scan_[kAttributeCount];
  mutable std::vector<Posting> merge_a_, merge_b_;
  /// Per-instance dedup mark: instance i is already in the answer iff
  /// seen_[i] == query_gen_, so no query has to sort its duplicates away.
  mutable std::vector<std::uint32_t> seen_;
  mutable std::uint32_t query_gen_ = 0;
};

}  // namespace qsa::index
