#include "qsa/net/peer.hpp"

#include <utility>

#include "qsa/util/expects.hpp"

namespace qsa::net {

PeerTable::PeerTable(qos::ResourceSchema schema, ProbeClock clock,
                     std::size_t page_size)
    : schema_(std::move(schema)), clock_(clock), page_size_(page_size) {
  QSA_EXPECTS(page_size_ >= 1);
}

void PeerTable::reserve(std::size_t expected_peers) {
  pages_.reserve((expected_peers + page_size_ - 1) / page_size_);
  alive_ids_.reserve(expected_peers);
}

PeerId PeerTable::add_peer(qos::ResourceVector capacity, sim::SimTime join_time,
                           sim::SimTime planned_departure) {
  QSA_EXPECTS(capacity.size() == schema_.kinds());
  QSA_EXPECTS(capacity.nonnegative());
  const PeerId id = static_cast<PeerId>(total_);
  if (id / page_size_ == pages_.size()) {
    pages_.emplace_back();
    Page& page = pages_.back();
    page.hot = std::make_unique<detail::PeerHot[]>(page_size_);
    page.cold = std::make_unique<detail::PeerCold[]>(page_size_);
    ++resident_pages_;
  }
  ++total_;
  Page& page = pages_[id / page_size_];
  const std::size_t slot = id % page_size_;
  detail::PeerHot& h = page.hot[slot];
  h.capacity = capacity;
  h.reserved = Snapshotted<qos::ResourceVector>(
      qos::ResourceVector::zeros(capacity.size()));
  h.alive = true;
  h.alive_slot = static_cast<std::uint32_t>(alive_ids_.size());
  detail::PeerCold& c = page.cold[slot];
  c.join_time = join_time;
  c.planned_departure = planned_departure;
  c.departed_at = sim::SimTime::infinity();
  ++page.alive_members;
  alive_ids_.push_back(id);
  // Arrivals happen at the current sim time; keep the reclamation
  // high-water mark moving even on churn waves with no reservation
  // traffic (bootstrap's negative pre-ages are clamped by the max).
  note_epoch(clock_.epoch(join_time));
  return id;
}

void PeerTable::remove_peer(PeerId id, sim::SimTime now) {
  QSA_EXPECTS(id < total_);
  if (!resident(id)) return;  // long departed, page reclaimed
  detail::PeerHot& h = hot(id);
  if (!h.alive) return;
  h.alive = false;
  pages_[id / page_size_].cold[id % page_size_].departed_at = now;
  // Swap-remove from the alive list, fixing the moved peer's slot.
  const std::uint32_t slot = h.alive_slot;
  const PeerId moved = alive_ids_.back();
  alive_ids_[slot] = moved;
  hot(moved).alive_slot = slot;
  alive_ids_.pop_back();

  const std::int64_t epoch = clock_.epoch(now);
  Page& page = pages_[id / page_size_];
  page.last_depart_epoch = std::max(page.last_depart_epoch, epoch);
  QSA_ASSERT(page.alive_members > 0);
  --page.alive_members;
  // A *full* page with no survivors can never gain members again (ids are
  // never reused); queue it for reclamation once the probe epoch moves
  // past its last departure. The trailing, still-filling page is exempt.
  const std::size_t page_idx = id / page_size_;
  if (page.alive_members == 0 && (page_idx + 1) * page_size_ <= total_) {
    drained_.push_back(static_cast<std::uint32_t>(page_idx));
  }
  note_epoch(epoch);
}

void PeerTable::note_epoch(std::int64_t epoch) {
  if (epoch <= epoch_high_water_) return;
  epoch_high_water_ = epoch;
  for (std::size_t i = 0; i < drained_.size();) {
    Page& page = pages_[drained_[i]];
    if (page.last_depart_epoch < epoch_high_water_) {
      // Every member departed before the current epoch started: probed
      // liveness is false, reservations evaporated with the peers, and no
      // grid path reads the rest — free the slabs.
      page.hot.reset();
      page.cold.reset();
      QSA_ASSERT(resident_pages_ > 0);
      --resident_pages_;
      drained_[i] = drained_.back();
      drained_.pop_back();
    } else {
      ++i;
    }
  }
}

Peer PeerTable::peer(PeerId id) const {
  QSA_EXPECTS(id < total_);
  QSA_EXPECTS(resident(id));
  const Page& page = pages_[id / page_size_];
  const std::size_t slot = id % page_size_;
  return Peer(id, &page.hot[slot], &page.cold[slot]);
}

bool PeerTable::try_reserve(PeerId id, const qos::ResourceVector& r,
                            sim::SimTime now) {
  QSA_EXPECTS(id < total_);
  QSA_EXPECTS(r.nonnegative());
  note_epoch(clock_.epoch(now));
  if (!resident(id)) return false;  // long departed
  detail::PeerHot& h = hot(id);
  if (!h.alive) return false;
  if (!r.fits_within(h.capacity - h.reserved.live())) return false;
  h.reserved.mutate(clock_.epoch(now),
                    [&](qos::ResourceVector& res) { res += r; });
  return true;
}

void PeerTable::release(PeerId id, const qos::ResourceVector& r,
                        sim::SimTime now) {
  QSA_EXPECTS(id < total_);
  note_epoch(clock_.epoch(now));
  if (!resident(id)) return;  // reservations died with the page
  detail::PeerHot& h = hot(id);
  if (!h.alive) return;  // reservations died with the peer
  h.reserved.mutate(clock_.epoch(now), [&](qos::ResourceVector& res) {
    res -= r;
    res.clamp_negative_zero();
  });
  QSA_ENSURES(h.reserved.live().nonnegative());
}

bool PeerTable::probed_alive(PeerId id, sim::SimTime now) const {
  QSA_EXPECTS(id < total_);
  if (!resident(id)) return false;  // departed before any visible epoch
  const detail::PeerHot& h = hot(id);
  if (h.alive) return true;
  const std::int64_t epoch = clock_.epoch(now);
  const sim::SimTime boundary =
      sim::SimTime::millis(epoch * clock_.period().as_millis());
  return cold(id).departed_at > boundary;
}

qos::ResourceVector PeerTable::probed_available(PeerId id,
                                                sim::SimTime now) const {
  QSA_EXPECTS(id < total_);
  QSA_EXPECTS(resident(id));
  const detail::PeerHot& h = hot(id);
  return h.capacity - h.reserved.probed(clock_.epoch(now));
}

sim::SimTime PeerTable::probed_uptime(PeerId id, sim::SimTime now) const {
  QSA_EXPECTS(id < total_);
  QSA_EXPECTS(resident(id));
  // The prober saw the peer at the last epoch boundary; its uptime reading
  // is relative to that instant.
  const std::int64_t epoch = clock_.epoch(now);
  const sim::SimTime boundary =
      sim::SimTime::millis(epoch * clock_.period().as_millis());
  return boundary - cold(id).join_time;
}

}  // namespace qsa::net
