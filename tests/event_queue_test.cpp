// Engine-level tests for the slab/indexed-heap EventQueue: the
// zero-allocation steady-state contract, bounded slab growth under
// sustained schedule/cancel/fire traffic, equal-time ordering across slot
// reuse, the shrink policy, and handle inertness. Ordering tests run under
// the sanitizer jobs too, so slot recycling bugs surface as ASan/TSan
// reports, not just wrong orders.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "qsa/sim/event_queue.hpp"
#include "qsa/sim/time.hpp"

// --- global allocation counter ------------------------------------------
// Replacing operator new/delete for the whole test binary: every heap
// allocation anywhere bumps the counter, so the steady-state test measures
// a window with no EXPECTs (gtest allocates on failure) and asserts after.
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_news;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// GCC 12 at -O3 sometimes inlines a std::vector's whole round trip —
// allocation through this replaced malloc-backed operator new, release
// through the sized delete below — and then reports the intentional
// malloc/free pairing as -Wmismatched-new-delete. Replaced global
// new/delete are matched by definition; silence the false positive at
// the definitions it is attributed to.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace qsa::sim {
namespace {

TEST(EventQueueEngine, SteadyStateAllocatesNothing) {
  EventQueue q;
  std::uint64_t fired = 0;
  // Warm the slab and the heap array to their high-water mark.
  constexpr int kLive = 512;
  for (int i = 0; i < kLive; ++i) {
    q.schedule(SimTime::millis(i), [&fired] { ++fired; });
  }
  const std::size_t warm_capacity = q.slot_capacity();

  // The measured window: schedule/pop/cancel churn at exactly the warmed
  // live count — cancels always target a known-pending event so the
  // population never drifts. No EXPECTs inside (gtest may allocate);
  // collect, then assert.
  const std::uint64_t before = g_news.load();
  for (int round = 0; round < 10'000; ++round) {
    auto f = q.pop();
    f.action();
    if (round % 3 == 0) {
      // Cancel a freshly scheduled (guaranteed-pending) event: the cancel
      // path must be allocation-free too. Scheduled in the pop's gap so the
      // live count never exceeds the warmed capacity.
      auto doomed =
          q.schedule(f.time + SimTime::millis(2), [&fired] { ++fired; });
      q.cancel(doomed);
    }
    q.schedule(f.time + SimTime::millis(1 + round % 7), [&fired] { ++fired; });
  }
  const std::uint64_t during = g_news.load() - before;

  EXPECT_EQ(during, 0u) << "steady-state schedule/pop/cancel hit the heap";
  EXPECT_EQ(q.slot_capacity(), warm_capacity);
  EXPECT_GT(fired, 0u);
}

TEST(EventQueueEngine, MillionEventChurnKeepsSlabBounded) {
  EventQueue q;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  constexpr std::size_t kMaxLive = 1024;
  std::vector<EventHandle> handles;
  std::int64_t t = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    handles.push_back(q.schedule(
        SimTime::millis(t + static_cast<std::int64_t>(i * 31 % 997)),
        [&fired] { ++fired; }));
    if (i % 4 == 1) {
      // Cancel an older event (often already fired — then a no-op).
      q.cancel(handles[static_cast<std::size_t>(i * 7) % handles.size()]);
      ++cancelled;
    }
    while (q.size() > kMaxLive) {
      auto f = q.pop();
      t = f.time.as_millis();
      f.action();
    }
    if (handles.size() > 4096) handles.erase(handles.begin(),
                                             handles.begin() + 2048);
  }
  // The regression this guards: per-event bookkeeping (the old engine's
  // cancelled_/live_seqs_ sets, or a slab that never recycles) growing with
  // events *processed* instead of events *pending*.
  EXPECT_LE(q.peak_live(), kMaxLive + 1);
  EXPECT_LE(q.slot_capacity(), 2 * (kMaxLive + 1));
  EXPECT_GT(fired, 0u);
  EXPECT_GT(cancelled, 0u);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueEngine, EqualTimeEventsFireInScheduleOrder) {
  EventQueue q;
  const SimTime t = SimTime::seconds(1);
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(q.schedule(t, [&order, i] { order.push_back(i); }));
  }
  // Cancel a scattered subset; the survivors must still fire in schedule
  // order with no gaps filled by reordering.
  for (int i = 0; i < 100; i += 7) q.cancel(handles[static_cast<std::size_t>(i)]);
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_EQ(f.time, t);
    f.action();
  }
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 7 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueEngine, EqualTimeOrderSurvivesSlotReuse) {
  EventQueue q;
  std::uint64_t warm = 0;
  // Fill and drain so the free list holds recycled slots in scrambled
  // order: the next wave lands on reused slots with non-monotone indices.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(q.schedule(SimTime::millis(i), [&warm] { ++warm; }));
  }
  for (int i = 0; i < 64; i += 2) q.cancel(handles[static_cast<std::size_t>(i)]);
  while (!q.empty()) {
    auto f = q.pop();
    f.action();
  }
  // Equal-time wave over the recycled slab.
  const SimTime t = SimTime::seconds(9);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  std::vector<int> expected(64);
  for (int i = 0; i < 64; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(EventQueueEngine, ShrinksAfterSpike) {
  EventQueue q;
  std::uint64_t fired = 0;
  // Spike far past the shrink floor, then drain to a trickle. Times
  // decrease with the slot index, so draining in time order frees the
  // *trailing* slots — the only ones truncation may drop (live slots are
  // never moved; outstanding handles index them).
  constexpr int kSpike = 8192;
  for (int i = 0; i < kSpike; ++i) {
    q.schedule(SimTime::millis(kSpike - i), [&fired] { ++fired; });
  }
  const std::size_t spike_capacity = q.slot_capacity();
  EXPECT_GE(spike_capacity, static_cast<std::size_t>(kSpike));
  while (q.size() > 16) q.pop().action();

  EXPECT_GE(q.shrink_count(), 1u);
  EXPECT_LT(q.slot_capacity(), spike_capacity / 4);
  // The survivors are untouched by the truncation.
  std::int64_t last = -1;
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GT(f.time.as_millis(), last);
    last = f.time.as_millis();
    f.action();
  }
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kSpike));
}

TEST(EventQueueEngine, StaleHandlesAreInertAfterShrink) {
  EventQueue q;
  std::uint64_t fired = 0;
  std::vector<EventHandle> stale;
  // Decreasing times again: the four survivors sit in the leading slots,
  // everything behind them is free and gets truncated.
  for (int i = 0; i < 8192; ++i) {
    stale.push_back(
        q.schedule(SimTime::millis(8192 - i), [&fired] { ++fired; }));
  }
  while (q.size() > 4) q.pop().action();
  ASSERT_GE(q.shrink_count(), 1u);
  // stale[0..3] are the still-pending survivors; every later handle refers
  // to a fired event and most index slots beyond the truncated slab.
  // Cancelling any of those must be a harmless no-op.
  for (std::size_t i = 4; i < stale.size(); ++i) q.cancel(stale[i]);
  EXPECT_EQ(q.size(), 4u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 8192u);
}

TEST(EventQueueEngine, CancelIsIdempotentAndFiredHandlesInert) {
  EventQueue q;
  int fired = 0;
  auto h1 = q.schedule(SimTime::seconds(1), [&fired] { ++fired; });
  auto h2 = q.schedule(SimTime::seconds(2), [&fired] { ++fired; });
  q.cancel(h1);
  q.cancel(h1);  // second cancel: no-op, must not free someone else's slot
  // h1's slot is recycled by the next schedule; the stale handle stays dead.
  auto h3 = q.schedule(SimTime::seconds(3), [&fired] { ++fired; });
  q.cancel(h1);
  EXPECT_EQ(q.size(), 2u);
  auto f = q.pop();
  f.action();
  q.cancel(h2);  // fired -> inert
  EXPECT_EQ(q.size(), 1u);
  q.cancel(EventHandle{});  // default handle: inert
  auto g = q.pop();
  g.action();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
  (void)h3;
}

TEST(EventQueueEngine, PeakLiveTracksHighWater) {
  EventQueue q;
  EXPECT_EQ(q.peak_live(), 0u);
  std::vector<EventHandle> hs;
  for (int i = 0; i < 100; ++i) {
    hs.push_back(q.schedule(SimTime::millis(i), [] {}));
  }
  EXPECT_EQ(q.peak_live(), 100u);
  for (int i = 0; i < 50; ++i) q.pop();
  EXPECT_EQ(q.peak_live(), 100u);  // peak, not current
  q.schedule(SimTime::seconds(5), [] {});
  EXPECT_EQ(q.peak_live(), 100u);
  EXPECT_EQ(q.size(), 51u);
}

}  // namespace
}  // namespace qsa::sim
