// Deterministic discrete-event simulator.
//
// All SwiShmem experiments run in virtual time: links, switch pipelines,
// control-plane CPUs, and protocol timers schedule callbacks here. Events at
// equal timestamps fire in scheduling (FIFO) order, which — together with the
// seeded Rng — makes every run bit-reproducible.
//
// Allocation policy (the event loop is the hottest code in the simulator):
//  - Callbacks are stored in EventFn, a move-only type-erased callable with
//    inline storage; closures up to kInlineSize bytes (every data-path
//    closure: egress, delivery, recirculation) never touch the heap.
//  - The cancellation flag behind TimerHandle is allocated only by the
//    schedule_* entry points, which hand a handle back. Fire-and-forget work
//    — the ~99% of events that are never cancelled — goes through post_at /
//    post_after, which allocate no flag.
//  - The queue is an explicit binary heap over a reserved vector of 24-byte
//    POD keys (time, seq, slot); the callable and cancellation flag live in a
//    freelist-recycled slot pool. Heap sifts therefore shuffle trivially
//    copyable keys, and each EventFn is moved exactly twice (into its slot,
//    out at execution) — never during reordering.
// Ordering is by (time, seq) with seq unique and monotonically assigned, a
// total order — so the heap shape cannot affect execution order and both
// post_* and schedule_* interleave in strict FIFO order at equal timestamps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/records.hpp"
#include "telemetry/span.hpp"

namespace swish::sim {

/// Move-only callable with small-buffer storage, used for scheduled events.
/// Implicitly constructible from any nullary callable; move-only callables
/// (e.g. closures capturing move-only state) are supported.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 64;

  EventFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_v<D&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): intended sink type
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vt_ = &inline_vtable<D>();
    } else {
      target_ = new D(std::forward<F>(fn));
      vt_ = &heap_vtable<D>();
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() { vt_->call(target()); }

 private:
  struct VTable {
    void (*call)(void*);
    /// Moves the target from `src` EventFn storage into `dst` (same layout).
    void (*relocate)(EventFn& dst, EventFn& src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  [[nodiscard]] void* target() noexcept {
    return target_ ? target_ : static_cast<void*>(storage_);
  }

  void reset() noexcept {
    if (vt_) vt_->destroy(target());
    vt_ = nullptr;
    target_ = nullptr;
  }

  void move_from(EventFn& other) noexcept {
    if (other.vt_) {
      other.vt_->relocate(*this, other);
    }
  }

  template <typename D>
  static const VTable& inline_vtable() {
    static const VTable vt{
        [](void* t) { (*static_cast<D*>(t))(); },
        [](EventFn& dst, EventFn& src) noexcept {
          ::new (static_cast<void*>(dst.storage_)) D(std::move(*static_cast<D*>(
              static_cast<void*>(src.storage_))));
          dst.vt_ = src.vt_;
          src.reset();
        },
        [](void* t) noexcept { static_cast<D*>(t)->~D(); },
    };
    return vt;
  }

  template <typename D>
  static const VTable& heap_vtable() {
    static const VTable vt{
        [](void* t) { (*static_cast<D*>(t))(); },
        [](EventFn& dst, EventFn& src) noexcept {
          dst.target_ = src.target_;  // steal the allocation; no D move
          dst.vt_ = src.vt_;
          src.vt_ = nullptr;
          src.target_ = nullptr;
        },
        [](void* t) noexcept { delete static_cast<D*>(t); },
    };
    return vt;
  }

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  void* target_ = nullptr;  ///< non-null when heap-allocated
  const VTable* vt_ = nullptr;
};

/// Handle to a scheduled event; allows cancellation (e.g. retry timers that
/// were answered before expiring). Copyable; all copies refer to one event.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel() noexcept {
    if (cancelled_) *cancelled_ = true;
  }

  [[nodiscard]] bool active() const noexcept { return cancelled_ && !*cancelled_; }

 private:
  friend class Simulator;
  explicit TimerHandle(std::shared_ptr<bool> cancelled) : cancelled_(std::move(cancelled)) {}
  std::shared_ptr<bool> cancelled_;
};

/// Virtual-time event loop. Not thread-safe; the whole simulation is
/// single-threaded by design (PISA switches process packets atomically, and a
/// single-threaded DES gives that property for free).
class Simulator {
 public:
  Simulator() {
    heap_.reserve(kInitialQueueCapacity);
    slots_.reserve(kInitialQueueCapacity);
    free_slots_.reserve(kInitialQueueCapacity);
    records_.set_clock(&now_);
    spans_.set_clock(&now_);
    observatory_.set_clock(&now_);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimeNs now() const noexcept { return now_; }

  /// Per-simulation telemetry. Every component already holds a Simulator&,
  /// so the registry and record log are reachable from any layer
  /// without threading them through constructors; one instance per
  /// simulation keeps concurrent experiments in one process isolated (and
  /// runs deterministic).
  [[nodiscard]] telemetry::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] telemetry::RecordLog& records() noexcept { return records_; }
  [[nodiscard]] const telemetry::RecordLog& records() const noexcept { return records_; }
  [[nodiscard]] telemetry::SpanRecorder& spans() noexcept { return spans_; }
  [[nodiscard]] const telemetry::SpanRecorder& spans() const noexcept { return spans_; }
  [[nodiscard]] telemetry::ConsistencyObservatory& observatory() noexcept {
    return observatory_;
  }
  [[nodiscard]] const telemetry::ConsistencyObservatory& observatory() const noexcept {
    return observatory_;
  }

  /// Fire-and-forget: runs `fn` at absolute virtual time `t` (>= now). No
  /// cancellation flag is allocated; use this on hot paths that never cancel.
  void post_at(TimeNs t, EventFn fn) {
    check_time(t);
    push(t, std::move(fn), nullptr);
  }

  /// Fire-and-forget: runs `fn` `delay` nanoseconds from now.
  void post_after(TimeNs delay, EventFn fn) { post_at(now_ + delay, std::move(fn)); }

  /// Schedules `fn` to run at absolute virtual time `t` (>= now); the
  /// returned handle can cancel it.
  TimerHandle schedule_at(TimeNs t, EventFn fn);

  /// Schedules `fn` to run `delay` nanoseconds from now.
  TimerHandle schedule_after(TimeNs delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` every `period` ns, first firing at now + period, until the
  /// returned handle is cancelled.
  TimerHandle schedule_periodic(TimeNs period, std::function<void()> fn);

  /// Runs events until the queue is empty or `stop()` is called.
  void run();

  /// Runs events with time <= deadline; leaves later events queued and
  /// advances now() to the deadline.
  void run_until(TimeNs deadline);

  /// Runs events with time strictly < horizon; leaves later events queued
  /// and does NOT advance now() past the last executed event. The one event
  /// loop: run() and run_until() are bounds on it, and the sharded core
  /// (ShardSet) runs each conservative window through it.
  void run_before(TimeNs horizon);

  /// Timestamp of the earliest queued event (cancelled events included —
  /// an upper bound on how stale the answer can be is harmless to the
  /// conservative window computation), or kNoEvent when the queue is empty.
  static constexpr TimeNs kNoEvent = std::numeric_limits<TimeNs>::max();
  [[nodiscard]] TimeNs next_event_time() const noexcept {
    return heap_.empty() ? kNoEvent : heap_.front().time;
  }

  /// Advances now() to `t` if it is ahead of the clock (no-op otherwise).
  /// Used at the end of a sharded run to settle every shard on the deadline.
  void advance_to(TimeNs t) noexcept {
    if (t > now_) now_ = t;
  }

  /// Requests run()/run_until() to return after the current event.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] std::size_t pending_events() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  static constexpr std::size_t kInitialQueueCapacity = 1024;

  /// Heap element: trivially copyable ordering key plus the index of the
  /// slot holding the event's payload. Sifting moves only these 24 bytes.
  struct EventKey {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;

    /// True when this event fires strictly before `other`.
    [[nodiscard]] bool before(const EventKey& other) const noexcept {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  /// Out-of-heap event payload, recycled through a freelist.
  struct EventSlot {
    EventFn fn;
    std::shared_ptr<bool> cancelled;  ///< null for post_* events
  };

  struct PeriodicState {
    Simulator* sim;
    TimeNs period;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
  };

  void check_time(TimeNs t) const;
  void push(TimeNs t, EventFn fn, std::shared_ptr<bool> cancelled);
  EventKey pop_min();
  void push_periodic(std::shared_ptr<PeriodicState> state);

  std::vector<EventKey> heap_;  ///< binary min-heap ordered by EventKey::before
  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  telemetry::MetricsRegistry metrics_;
  telemetry::RecordLog records_;
  telemetry::SpanRecorder spans_;
  telemetry::ConsistencyObservatory observatory_;
};

}  // namespace swish::sim
