#include "sim/simulator.hpp"

#include <stdexcept>

// The event queue is a binary min-heap over 24-byte keys. (A 4-ary layout
// was measured and lost: the queue stays shallow in steady state, so the
// wider node's extra comparisons cost more than the saved depth.)

namespace swish::sim {

void Simulator::check_time(TimeNs t) const {
  if (t < now_) throw std::invalid_argument("Simulator: scheduling time in the past");
}

void Simulator::push(TimeNs t, EventFn fn, std::shared_ptr<bool> cancelled) {
  // Park the payload in a recycled slot; only the 24-byte key enters the heap.
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].fn = std::move(fn);
    slots_[slot].cancelled = std::move(cancelled);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(EventSlot{std::move(fn), std::move(cancelled)});
  }
  const EventKey key{t, next_seq_++, slot};
  // Sift up with a hole: parents shift down one copy each, the new key lands
  // once at its final position.
  heap_.push_back(key);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!key.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Simulator::EventKey Simulator::pop_min() {
  const EventKey out = heap_.front();
  const EventKey last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift the displaced last key down from the root, hole-style.
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) break;
      const std::size_t r = l + 1;
      const std::size_t smallest = (r < n && heap_[r].before(heap_[l])) ? r : l;
      if (!heap_[smallest].before(last)) break;
      heap_[i] = heap_[smallest];
      i = smallest;
    }
    heap_[i] = last;
  }
  return out;
}

TimerHandle Simulator::schedule_at(TimeNs t, EventFn fn) {
  check_time(t);
  auto cancelled = std::make_shared<bool>(false);
  push(t, std::move(fn), cancelled);
  return TimerHandle(std::move(cancelled));
}

TimerHandle Simulator::schedule_periodic(TimeNs period, std::function<void()> fn) {
  if (period <= 0) throw std::invalid_argument("Simulator::schedule_periodic: period must be > 0");
  auto cancelled = std::make_shared<bool>(false);
  auto state = std::make_shared<PeriodicState>(
      PeriodicState{this, period, std::move(fn), cancelled});
  push_periodic(std::move(state));
  return TimerHandle(std::move(cancelled));
}

void Simulator::push_periodic(std::shared_ptr<PeriodicState> state) {
  // Each firing reschedules itself; cancellation of the shared flag stops the
  // series (checked both before the event runs, in run_before(), and before the
  // re-arm, so a callback cancelling its own handle terminates the series).
  const TimeNs at = now_ + state->period;
  auto cancelled = state->cancelled;
  push(at,
       EventFn([state = std::move(state)]() mutable {
         state->fn();
         if (!*state->cancelled) state->sim->push_periodic(std::move(state));
       }),
       std::move(cancelled));
}

void Simulator::run() { run_before(kNoEvent); }

void Simulator::run_until(TimeNs deadline) {
  // Events at the deadline run: the strict bound sits one past it.
  run_before(deadline == kNoEvent ? kNoEvent : deadline + 1);
  advance_to(deadline);
}

void Simulator::run_before(TimeNs horizon) {
  // The time check guards every pop, so a cancelled head never lets a later
  // event slip in past the horizon.
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().time < horizon) {
    const EventKey key = pop_min();
    EventSlot& slot = slots_[key.slot];
    EventFn fn = std::move(slot.fn);
    const bool skip = slot.cancelled && *slot.cancelled;
    slot.cancelled.reset();
    free_slots_.push_back(key.slot);  // recycle before running: fn may push
    if (skip) continue;
    now_ = key.time;
    ++executed_;
    fn();
  }
}

}  // namespace swish::sim
