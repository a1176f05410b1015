// Deterministic discrete-event engine.
//
// Every timed activity in the cluster (request arrival, RDMA completion,
// disk service, reply delivery) is an event on one global virtual timeline.
// Handlers run at their event's timestamp and may schedule further events.
// Ties are broken by insertion order, so a run is a pure function of its
// inputs — benchmarks are reproducible bit-for-bit.
//
// Events double as cancellable timers: schedule_at/schedule_in return a
// TimerId, and cancel() marks the event so it is discarded (without running
// or advancing the clock) when it reaches the front of the queue. The
// recovery layer uses this for per-round timeouts that are armed on every
// issue and cancelled by the reply in the common case.
#pragma once

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace pvfsib::sim {

class Engine {
 public:
  using Handler = std::function<void()>;
  // Identifies a scheduled event for cancel(). Never reused within a run.
  using TimerId = u64;

  TimePoint now() const { return now_; }

  // Schedule `fn` to run at absolute time `at` (must not be in the past).
  TimerId schedule_at(TimePoint at, Handler fn) {
    assert(at >= now_);
    const TimerId id = next_seq_++;
    heap_.push_back(Event{at, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return id;
  }

  // Schedule `fn` to run `delay` after the current time.
  TimerId schedule_in(Duration delay, Handler fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  // Cancel a pending event: it will be dropped unrun when popped, without
  // advancing the clock or counting as processed. Cancelling an event that
  // already ran leaves a tombstone until it is matched or reset() — callers
  // should only cancel timers they know are still pending.
  void cancel(TimerId id) { cancelled_.insert(id); }

  // Run until the event queue drains. Returns the time of the last event.
  TimePoint run() {
    while (!heap_.empty()) step();
    return now_;
  }

  // Run until `done` returns true (checked after each event) or the queue
  // drains.
  TimePoint run_until(const std::function<bool()>& done) {
    while (!heap_.empty() && !done()) step();
    return now_;
  }

  bool idle() const { return heap_.empty(); }
  u64 events_processed() const { return processed_; }
  // Events run by every engine on the calling thread: the host-cost
  // denominator of a program that builds many clusters one after another.
  static u64 thread_events_processed() { return thread_processed_; }

  // Forget all pending events and reset the clock (for back-to-back
  // benchmark trials that want a fresh timeline).
  void reset() {
    heap_.clear();
    cancelled_.clear();
    now_ = TimePoint::origin();
    next_seq_ = 0;
    processed_ = 0;
  }

 private:
  struct Event {
    TimePoint at;
    u64 seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };

  void step() {
    // The engine owns the heap, so the popped event is moved legally out of
    // the backing vector (priority_queue::top() only exposes a const ref)
    // and the handler stays alive while it runs even if it schedules new
    // events (which may reallocate the vector).
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    if (!cancelled_.empty() && cancelled_.erase(ev.seq) > 0) {
      return;  // cancelled timer: discard without running or advancing time
    }
    now_ = ev.at;
    ++processed_;
    ++thread_processed_;
    ev.fn();
  }

  std::vector<Event> heap_;
  std::unordered_set<TimerId> cancelled_;
  TimePoint now_ = TimePoint::origin();
  u64 next_seq_ = 0;
  u64 processed_ = 0;
  static inline thread_local u64 thread_processed_ = 0;
};

}  // namespace pvfsib::sim
