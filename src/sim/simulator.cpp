#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace switchboard::sim {

EventHandle Simulator::schedule(Duration delay, Callback fn) {
  SWB_DCHECK(delay >= 0);
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime when, Callback fn) {
  SWB_DCHECK(when >= now_);
  SWB_DCHECK(fn);
  const std::uint64_t seq = next_sequence_++;
  queue_.push_back(Event{when, seq, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  return EventHandle{seq, when};
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid() || handle.sequence >= next_sequence_) return false;
  // Already fired (or skipped as cancelled): nothing left to cancel.
  if (std::pair{handle.when, handle.sequence} <= popped_) return false;
  // Lazy deletion: remember the sequence, skip it when popped.
  return cancelled_.insert(handle.sequence).second;
}

Simulator::Event Simulator::pop_head() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  popped_ = {event.when, event.sequence};
  return event;
}

void Simulator::drop_cancelled_head() {
  while (!queue_.empty()) {
    const auto it = cancelled_.find(queue_.front().sequence);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);
    pop_head();
  }
}

bool Simulator::step() {
  drop_cancelled_head();
  if (queue_.empty()) return false;
  Event event = pop_head();
  now_ = event.when;
  ++executed_;
  event.fn();
  return true;
}

SimTime Simulator::run() {
  while (step()) {
  }
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  SWB_DCHECK(deadline >= now_);
  for (;;) {
    drop_cancelled_head();
    if (queue_.empty() || queue_.front().when > deadline) break;
    step();
  }
  now_ = deadline;
  return now_;
}

std::size_t Simulator::pending_events() const {
  return queue_.size() - cancelled_.size();
}

void Simulator::check_invariants() const {
  SWB_CHECK_GE(next_sequence_, 1u);
  if (!queue_.empty()) {
    // The heap top is the next event to fire; an entry before now() would
    // mean time runs backwards for its callback.
    SWB_CHECK_GE(queue_.front().when, now_) << "event queue head in the past";
    SWB_CHECK_LT(queue_.front().sequence, next_sequence_);
    SWB_CHECK_GE(queue_.front().sequence, 1u);
  }
  // Lazily-deleted events must still be in the queue, else pending_events()
  // undercounts (cancel() refuses sequences that were never allocated, and
  // drop_cancelled_head()/step() purge fired ones).
  SWB_CHECK_LE(cancelled_.size(), queue_.size());
  // Audit-only iteration: each element is checked independently and no
  // output depends on visit order.
  for (const std::uint64_t sequence : cancelled_) {  // swb-lint: allow(D1)
    SWB_CHECK_GE(sequence, 1u);
    SWB_CHECK_LT(sequence, next_sequence_);
  }
  SWB_CHECK_LE(executed_, next_sequence_ - 1);
}

}  // namespace switchboard::sim
