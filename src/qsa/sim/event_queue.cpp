#include "qsa/sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "qsa/util/expects.hpp"

namespace qsa::sim {

EventHandle EventQueue::schedule(SimTime at, Action action) {
  QSA_EXPECTS(action != nullptr);
  std::uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();  // slab growth: the only allocating path
  }
  Slot& s = slots_[slot];
  s.time = at;
  s.seq = next_seq_++;
  s.action = std::move(action);
  s.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(slot);
  sift_up(heap_.size() - 1);
  if (heap_.size() > peak_live_) peak_live_ = heap_.size();
  return EventHandle(slot, s.seq);
}

void EventQueue::cancel(EventHandle h) {
  if (!h.valid()) return;
  // Stale handles are inert: the slot may have been recycled (seq differs),
  // or even truncated away by the shrink policy (index out of range).
  if (h.slot_ >= slots_.size()) return;
  Slot& s = slots_[h.slot_];
  if (s.seq != h.seq_) return;
  remove_from_heap(s.heap_pos);
  release(h.slot_);
  maybe_shrink();
}

EventQueue::Fired EventQueue::pop() {
  QSA_EXPECTS(!heap_.empty());
  const std::uint32_t slot = heap_[0];
  Slot& s = slots_[slot];
  Fired fired{s.time, std::move(s.action)};
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    slots_[last].heap_pos = 0;
    sift_down(0);
  }
  release(slot);
  maybe_shrink();
  return fired;
}

void EventQueue::sift_up(std::size_t pos) noexcept {
  const std::uint32_t moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = moving;
  slots_[moving].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) noexcept {
  const std::uint32_t moving = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t fence = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < fence; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = moving;
  slots_[moving].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::remove_from_heap(std::size_t pos) noexcept {
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;
  slots_[last].heap_pos = static_cast<std::uint32_t>(pos);
  if (pos > 0 && before(last, heap_[(pos - 1) / 4])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::release(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.seq = 0;
  s.action.reset();  // a popped action was moved out; reset is then a no-op
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::maybe_shrink() {
  const std::size_t live = heap_.size();
  if (slots_.size() < kShrinkMin || live * 4 >= slots_.size()) return;
  // Keep 2x the live count (hysteresis: re-growing right back would defeat
  // the point) and never go below the no-shrink floor.
  const std::size_t target = std::max(live * 2, kShrinkMin / 2);
  std::size_t new_size = slots_.size();
  while (new_size > target && slots_[new_size - 1].seq == 0) --new_size;
  if (new_size == slots_.size()) return;
  slots_.resize(new_size);
  slots_.shrink_to_fit();
  // The free list may reference truncated slots; rebuild it over the
  // survivors. Free-list order only decides which slot index a future event
  // reuses — firing order is (time, seq), so this cannot affect replay.
  free_head_ = kNil;
  for (std::size_t i = new_size; i-- > 0;) {
    if (slots_[i].seq == 0) {
      slots_[i].next_free = free_head_;
      free_head_ = static_cast<std::uint32_t>(i);
    }
  }
  heap_.shrink_to_fit();
  ++shrinks_;
}

}  // namespace qsa::sim
