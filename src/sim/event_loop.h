// Discrete-event simulation core.
//
// Every system experiment in SCADS runs on an EventLoop: components schedule
// closures at future simulated times; the loop pops them in (time, sequence)
// order and advances a ManualClock. Determinism: identical schedules replay
// identically — no wall time, no threads.

#ifndef SCADS_SIM_EVENT_LOOP_H_
#define SCADS_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "runtime/execution_backend.h"

namespace scads {

/// Single-threaded priority-queue event loop over simulated time. The
/// deterministic Executor implementation: identical schedules replay
/// identically.
class EventLoop : public Executor {
 public:
  using EventId = Executor::TaskId;
  static constexpr EventId kInvalidEvent = Executor::kInvalidTask;

  explicit EventLoop(Time start_time = 0) : clock_(start_time) {}

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  Time Now() const override { return clock_.Now(); }

  /// Clock view for components that only need "now".
  const Clock* clock() const override { return &clock_; }

  /// Runs `fn` at absolute time `t` (clamped to Now() if in the past).
  /// Events scheduled for the same time run in scheduling order.
  EventId ScheduleAt(Time t, std::function<void()> fn) override;

  /// Runs `fn` after `delay` (>= 0).
  EventId ScheduleAfter(Duration delay, std::function<void()> fn) override;

  /// Runs `fn` every `period`, first firing after one period. Cancel stops
  /// the whole chain.
  EventId SchedulePeriodic(Duration period, std::function<void()> fn) override;

  /// Cancels a pending (or periodic) event. Returns false when the event
  /// already ran or does not exist.
  bool Cancel(EventId id) override;

  /// Simulated time replays identically.
  bool deterministic() const override { return true; }

  /// Pops and runs the next event. Returns false when the queue is empty.
  bool RunOne();

  /// Runs all events with time <= `deadline`; afterwards Now() == deadline
  /// (even if the queue drained early).
  void RunUntil(Time deadline);

  /// RunUntil(Now() + span).
  void RunFor(Duration span);

  /// Runs until the queue is empty. Use with care — periodic tasks never
  /// drain; prefer RunUntil for experiments.
  void RunAll();

  /// Number of pending events (periodic chains count once).
  size_t pending_count() const { return queue_.size() - cancelled_.size(); }

  /// Total events executed since construction.
  int64_t executed_count() const { return executed_; }

 private:
  struct Entry {
    Time time;
    EventId id;
    std::function<void()> fn;
  };
  // Heap order for std::push_heap/pop_heap: the earliest (time, id) sits at
  // front(), so ties execute in scheduling order.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  struct PeriodicState {
    Duration period;
    std::function<void()> fn;
    EventId next_event;
  };

  void ArmPeriodic(EventId id);
  void Push(Entry entry);
  /// Moves the earliest entry out of the heap (no copy of its closure).
  Entry Pop();

  ManualClock clock_;
  std::vector<Entry> queue_;  // binary heap under Later
  std::unordered_set<EventId> cancelled_;
  std::map<EventId, PeriodicState> periodics_;
  EventId next_id_ = 0;
  int64_t executed_ = 0;
};

}  // namespace scads

#endif  // SCADS_SIM_EVENT_LOOP_H_
