// Discrete-event simulation engine.
//
// A single-threaded event loop with a deterministic tie-break: events at the
// same timestamp fire in scheduling order.  All wide-area experiments
// (message bus, control plane, TCP model) run on this engine.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace switchboard::sim {

/// Handle for cancelling a scheduled event.
struct EventHandle {
  std::uint64_t sequence{0};
  /// The event's scheduled time: with the sequence, its place in the
  /// firing order, which is what cancel() compares against.
  SimTime when{0};
  [[nodiscard]] bool valid() const { return sequence != 0; }
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after now (delay >= 0).
  EventHandle schedule(Duration delay, Callback fn);

  /// Schedules `fn` at an absolute time (>= now).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Cancels a pending event.  Returns false if it already fired or was
  /// cancelled before.
  bool cancel(EventHandle handle);

  /// Runs until the event queue drains.  Returns the final time.
  SimTime run();

  /// Runs events with timestamp <= `deadline`; leaves later events queued
  /// and sets now() to `deadline` (or the last event time if queue drained).
  SimTime run_until(SimTime deadline);

  /// Executes at most one event.  Returns false if the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Audits the engine (aborts via SWB_CHECK on violation): the earliest
  /// queued event is never in the past (time monotonicity — firing it
  /// could not rewind now()), sequence numbers stay below the allocator,
  /// and the lazy-cancellation set only shadows queued events.
  void check_invariants() const;

 private:
  void drop_cancelled_head();

  struct Event {
    SimTime when;
    std::uint64_t sequence;   // scheduling order; also the cancel key
    Callback fn;

    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return sequence > other.sequence;
    }
  };

  /// Takes the head event off the queue, fired or skipped, and hands it
  /// over: its callback is moved out, never copied.
  Event pop_head();

  /// A binary min-heap on (when, sequence) under std::push_heap and
  /// std::pop_heap; front() is the next event to fire.
  std::vector<Event> queue_;
  SimTime now_{0};
  std::uint64_t next_sequence_{1};
  std::uint64_t executed_{0};
  /// (time, sequence) of the last event fired or skipped.  Events leave
  /// the queue in that order, so an event is gone iff its own pair is at
  /// or before this one.
  std::pair<SimTime, std::uint64_t> popped_{0, 0};
  std::unordered_set<std::uint64_t> cancelled_;   // lazily-deleted events
};

}  // namespace switchboard::sim
