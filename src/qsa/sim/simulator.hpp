// The discrete-event simulation driver: owns the clock and the event queue,
// advances time event-by-event until a horizon or until drained.
#pragma once

#include <cstdint>
#include <vector>

#include "qsa/sim/event_queue.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::sim {

class Simulator {
 public:
  /// Current simulated time. Monotonically non-decreasing.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` `delay` after now.
  EventHandle schedule_in(SimTime delay, EventQueue::Action action) {
    return queue_.schedule(now_ + delay, std::move(action));
  }

  /// Schedules `action` at absolute time `at` (clamped to now if earlier).
  /// Equal-time events fire in the order they were scheduled.
  EventHandle schedule_at(SimTime at, EventQueue::Action action) {
    return queue_.schedule(at < now_ ? now_ : at, std::move(action));
  }

  void cancel(EventHandle h) { queue_.cancel(h); }

  /// Runs events until the queue drains or the next event is past `horizon`.
  /// The clock finishes at min(horizon, last event time). Returns the number
  /// of events executed.
  std::size_t run_until(SimTime horizon);

  /// Runs until the queue is fully drained.
  std::size_t run() { return run_until(SimTime::infinity()); }

  /// Registers a periodic action firing at start, start+period, ... until
  /// the horizon of the enclosing run. The action may observe now(). The
  /// action is stored once in a registry owned by the simulator; each tick's
  /// event captures only {this, index}, so re-arming never allocates.
  void every(SimTime start, SimTime period, EventQueue::Action action);

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::size_t executed_events() const noexcept {
    return executed_;
  }
  /// High-water mark of the live event count (queue-depth observability).
  [[nodiscard]] std::size_t max_pending_events() const noexcept {
    return queue_.peak_live();
  }
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }

 private:
  struct Periodic {
    SimTime period;
    EventQueue::Action action;
  };
  /// Runs periodic `idx` and re-arms its next tick.
  void fire_periodic(std::uint32_t idx);

  EventQueue queue_;
  std::vector<Periodic> periodics_;
  SimTime now_ = SimTime::zero();
  std::size_t executed_ = 0;
};

}  // namespace qsa::sim
