#include "qsa/index/attribute_index.hpp"

#include <algorithm>
#include <iterator>

namespace qsa::index {

AttributeIndex::AttributeIndex(std::uint64_t seed,
                               overlay::LookupService& ring,
                               const registry::ServiceCatalog& catalog,
                               const registry::PlacementMap& placement,
                               const net::PeerTable& peers,
                               const net::NetworkModel& net,
                               qos::ParamId level_param, IndexConfig config)
    : seed_(seed),
      ring_(ring),
      catalog_(catalog),
      placement_(placement),
      peers_(peers),
      net_(net),
      config_(config),
      level_param_(level_param) {}

void AttributeIndex::publish(registry::InstanceId instance, sim::SimTime now) {
  for (const net::PeerId provider : placement_.providers(instance)) {
    // A departed provider's row may linger in the placement map until the
    // grid prunes it; never mint fresh postings for it — its existing ones
    // age out through the epoch sweep.
    if (!peers_.alive(provider)) continue;
    upsert(instance, provider, now);
  }
}

void AttributeIndex::upsert(registry::InstanceId instance,
                            net::PeerId provider, sim::SimTime now) {
  const net::Peer peer = peers_.peer(provider);
  const registry::ServiceInstance& inst = catalog_.instance(instance);
  const auto level_value = inst.qout.get(level_param_);

  const float cpu = static_cast<float>(peer.capacity()[0]);
  const float uptime_min =
      static_cast<float>(std::max(0.0, peer.uptime(now).as_minutes()));
  const float level =
      static_cast<float>(level_value ? level_value->lo() : 0.0);
  const auto tier = static_cast<std::int8_t>(net_.access_tier(provider));

  std::array<std::uint8_t, kAttributeCount> bucket{};
  bucket[static_cast<int>(Attribute::kCpu)] =
      static_cast<std::uint8_t>(cpu_bucket(cpu));
  bucket[static_cast<int>(Attribute::kBandwidth)] =
      static_cast<std::uint8_t>(bandwidth_bucket(tier));
  bucket[static_cast<int>(Attribute::kUptime)] =
      static_cast<std::uint8_t>(uptime_bucket(peer.uptime(now)));
  bucket[static_cast<int>(Attribute::kLevel)] =
      static_cast<std::uint8_t>(level_bucket(level));

  const Posting posting = pack_posting(instance, provider);
  const auto [it, inserted] = ledger_.emplace(posting, LedgerEntry{});
  LedgerEntry& entry = it->second;
  if (inserted) {
    for (int a = 0; a < kAttributeCount; ++a) {
      ring_.insert(
          index_key(seed_, static_cast<Attribute>(a), inst.service, bucket[a]),
          posting);
    }
    ++stats_.publishes;
  } else {
    bool moved = false;
    for (int a = 0; a < kAttributeCount; ++a) {
      if (entry.bucket[a] == bucket[a]) continue;
      const auto attr = static_cast<Attribute>(a);
      ring_.erase(index_key(seed_, attr, inst.service, entry.bucket[a]),
                  posting);
      ring_.insert(index_key(seed_, attr, inst.service, bucket[a]), posting);
      moved = true;
    }
    if (moved) ++stats_.updates;
  }
  entry.epoch = epoch_;
  entry.bucket = bucket;
  entry.cpu = cpu;
  entry.uptime_min = uptime_min;
  entry.level = level;
  entry.tier = tier;
}

void AttributeIndex::erase_posting(Posting posting, const LedgerEntry& entry) {
  const registry::ServiceId service =
      catalog_.instance(posting_instance(posting)).service;
  for (int a = 0; a < kAttributeCount; ++a) {
    ring_.erase(
        index_key(seed_, static_cast<Attribute>(a), service, entry.bucket[a]),
        posting);
  }
}

void AttributeIndex::erase_postings(const std::vector<Posting>& doomed) {
  for (const Posting posting : doomed) {
    erase_posting(posting, ledger_.at(posting));
    ledger_.erase(posting);
  }
}

void AttributeIndex::unpublish(registry::InstanceId instance) {
  // Collect first: the ledger's backward-shift erase moves entries, so
  // erasing while iterating could skip or revisit one.
  std::vector<Posting> doomed;
  for (const auto& [posting, entry] : ledger_) {
    if (posting_instance(posting) == instance) doomed.push_back(posting);
  }
  erase_postings(doomed);
}

void AttributeIndex::remove(registry::InstanceId instance,
                            net::PeerId provider) {
  const Posting posting = pack_posting(instance, provider);
  const auto it = ledger_.find(posting);
  if (it == ledger_.end()) return;
  erase_posting(posting, it->second);
  ledger_.erase(posting);
}

void AttributeIndex::publish_all(sim::SimTime now) {
  ++epoch_;
  for (registry::InstanceId i = 0;
       i < static_cast<registry::InstanceId>(catalog_.instance_count()); ++i) {
    publish(i, now);
  }
  expire_stale();
}

void AttributeIndex::expire_stale() {
  std::vector<Posting> doomed;
  for (const auto& [posting, entry] : ledger_) {
    if (epoch_ - entry.epoch >=
        static_cast<std::uint64_t>(config_.expiry_epochs)) {
      doomed.push_back(posting);
    }
  }
  erase_postings(doomed);
  stats_.expiries += doomed.size();
}

bool AttributeIndex::scan_arc(Attribute a, registry::ServiceId service,
                              int lo, int hi, net::PeerId from,
                              const net::NetworkModel* net, QueryStats& qs,
                              std::vector<Posting>& postings) const {
  // Route to the first bucket's owner from the requester (the O(log N)
  // leg); each further bucket routes from the previous owner — adjacent
  // keys, so mostly zero hops with a handful of owner transitions (the
  // span leg).
  net::PeerId origin = from;
  for (int b = lo; b <= hi; ++b) {
    const overlay::Key key = index_key(seed_, a, service, b);
    overlay::LookupStats stats = ring_.route(key, origin, net);
    qs.hops += stats.hops;
    qs.latency = qs.latency + stats.latency;
    ++qs.segments;
    if (!stats.ok()) {
      // Mid-scan segment lost even after the overlay's own retries and
      // alternate-neighbor reroutes: retry once more from the original
      // requester (a fresh path, not the failed on-arc one).
      ++qs.rerouted;
      stats = ring_.route(key, from, net);
      qs.hops += stats.hops;
      qs.latency = qs.latency + stats.latency;
      if (!stats.ok()) return false;
    }
    const auto values = ring_.values(key);
    postings.insert(postings.end(), values.begin(), values.end());
    origin = stats.owner;
  }
  return true;
}

QueryStats AttributeIndex::query_into(
    const RangeQuery& query, net::PeerId from, const net::NetworkModel* net,
    std::vector<registry::InstanceId>& out) const {
  out.clear();
  QueryStats qs;

  // Active per-attribute scans: each "at least" predicate is a contiguous
  // bucket span ending at the top of its arc (bandwidth's arc only uses 4
  // tiers' worth of buckets).
  struct Scan {
    Attribute attr;
    int lo, hi;
  };
  Scan scans[kAttributeCount];
  int n_scans = 0;
  if (query.min_cpu) {
    scans[n_scans++] = {Attribute::kCpu, cpu_bucket(*query.min_cpu),
                        kBuckets - 1};
  }
  if (query.max_tier) {
    scans[n_scans++] = {Attribute::kBandwidth, bandwidth_bucket(*query.max_tier),
                        bandwidth_bucket(0)};
  }
  if (query.min_uptime_min) {
    scans[n_scans++] = {
        Attribute::kUptime,
        uptime_bucket(sim::SimTime::minutes(*query.min_uptime_min)),
        kBuckets - 1};
  }
  if (query.min_level) {
    scans[n_scans++] = {Attribute::kLevel, level_bucket(*query.min_level),
                        kBuckets - 1};
  }
  if (n_scans == 0) {
    // Pure membership: the whole level arc holds every posting exactly once.
    scans[n_scans++] = {Attribute::kLevel, 0, kBuckets - 1};
  }

  for (int s = 0; s < n_scans; ++s) {
    scan_[s].clear();
    if (!scan_arc(scans[s].attr, query.service, scans[s].lo, scans[s].hi,
                  from, net, qs, scan_[s])) {
      // Reroute failed too: the query fails whole. Never hand back the
      // partial postings already scanned as if they were the answer.
      qs.failed = true;
      out.clear();
      ++stats_.failed_scans;
      ++stats_.scans;
      stats_.scan_segments += static_cast<std::uint64_t>(qs.segments);
      stats_.scan_hops += static_cast<std::uint64_t>(qs.hops);
      stats_.scan_reroutes += static_cast<std::uint64_t>(qs.rerouted);
      return qs;
    }
    qs.scanned += static_cast<int>(scan_[s].size());
  }

  // Client-side intersection of the per-attribute posting (multi)sets. A
  // single predicate — the common case, only the uptime floor off the sink
  // hop — needs none: its scan is the survivor list as it came back.
  const std::vector<Posting>* survivors = &scan_[0];
  if (n_scans > 1) {
    for (int s = 0; s < n_scans; ++s) {
      std::sort(scan_[s].begin(), scan_[s].end());
    }
    merge_a_.clear();
    std::set_intersection(scan_[0].begin(), scan_[0].end(), scan_[1].begin(),
                          scan_[1].end(), std::back_inserter(merge_a_));
    for (int s = 2; s < n_scans; ++s) {
      merge_b_.clear();
      std::set_intersection(merge_a_.begin(), merge_a_.end(),
                            scan_[s].begin(), scan_[s].end(),
                            std::back_inserter(merge_b_));
      merge_a_.swap(merge_b_);
    }
    survivors = &merge_a_;
  }

  if (seen_.size() < catalog_.instance_count()) {
    seen_.resize(catalog_.instance_count(), 0);
  }
  if (++query_gen_ == 0) {  // wrapped: old marks could alias the new gen
    std::fill(seen_.begin(), seen_.end(), 0);
    query_gen_ = 1;
  }

  // Exact re-check against the publish-time record (carried by the lookup
  // response in a real deployment): quantization false positives drop here.
  for (const Posting p : *survivors) {
    const auto it = ledger_.find(p);
    if (it == ledger_.end()) {
      ++qs.false_positives;
      continue;
    }
    const LedgerEntry& e = it->second;
    const bool pass =
        (!query.min_cpu || e.cpu >= *query.min_cpu) &&
        (!query.max_tier || e.tier <= *query.max_tier) &&
        (!query.min_uptime_min || e.uptime_min >= *query.min_uptime_min) &&
        (!query.min_level || e.level >= *query.min_level);
    if (!pass) {
      ++qs.false_positives;
      continue;
    }
    // Departed-provider postings linger until the sweep reclaims them; we
    // count the staleness (the peer table is the oracle) but keep the
    // candidate — the directory's candidate lists go stale the same way,
    // and downstream probing/admission is what rejects the dead.
    if (!peers_.alive(posting_provider(p))) ++qs.stale;
    const registry::InstanceId instance = posting_instance(p);
    if (seen_[instance] != query_gen_) {
      seen_[instance] = query_gen_;
      out.push_back(instance);
    }
  }
  std::sort(out.begin(), out.end());

  ++stats_.scans;
  stats_.scan_segments += static_cast<std::uint64_t>(qs.segments);
  stats_.scan_hops += static_cast<std::uint64_t>(qs.hops);
  stats_.scan_reroutes += static_cast<std::uint64_t>(qs.rerouted);
  stats_.scanned_postings += static_cast<std::uint64_t>(qs.scanned);
  stats_.false_positives += static_cast<std::uint64_t>(qs.false_positives);
  stats_.stale_postings += static_cast<std::uint64_t>(qs.stale);
  return qs;
}

}  // namespace qsa::index
