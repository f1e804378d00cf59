#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace scads {

EventLoop::EventId EventLoop::ScheduleAt(Time t, std::function<void()> fn) {
  if (t < Now()) t = Now();
  EventId id = next_id_++;
  Push(Entry{t, id, std::move(fn)});
  return id;
}

EventLoop::EventId EventLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  SCADS_CHECK(delay >= 0);
  return ScheduleAt(Now() + delay, std::move(fn));
}

EventLoop::EventId EventLoop::SchedulePeriodic(Duration period, std::function<void()> fn) {
  SCADS_CHECK(period > 0);
  // The periodic id is the id of its *first* firing; the chain keeps the
  // entry in periodics_ keyed by that id.
  EventId id = next_id_++;
  periodics_[id] = PeriodicState{period, std::move(fn), kInvalidEvent};
  Push(Entry{Now() + period, id, nullptr});  // nullptr marks periodic tick
  periodics_[id].next_event = id;
  return id;
}

void EventLoop::ArmPeriodic(EventId id) {
  auto it = periodics_.find(id);
  if (it == periodics_.end()) return;  // cancelled during callback
  EventId tick = next_id_++;
  it->second.next_event = tick;
  // Periodic ticks carry no fn; dispatch looks the chain up by owner id.
  Push(Entry{Now() + it->second.period, tick, [this, id] {
               auto owner = periodics_.find(id);
               if (owner == periodics_.end()) return;
               owner->second.fn();
               ArmPeriodic(id);
             }});
}

bool EventLoop::Cancel(EventId id) {
  auto it = periodics_.find(id);
  if (it != periodics_.end()) {
    cancelled_.insert(it->second.next_event);
    periodics_.erase(it);
    return true;
  }
  if (id < 0 || id >= next_id_) return false;
  // We cannot cheaply tell "already ran" from "pending" without a side
  // table; mark cancelled and let the pop skip it.
  cancelled_.insert(id);
  return true;
}

void EventLoop::Push(Entry entry) {
  queue_.push_back(std::move(entry));
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

EventLoop::Entry EventLoop::Pop() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Entry top = std::move(queue_.back());
  queue_.pop_back();
  return top;
}

bool EventLoop::RunOne() {
  while (!queue_.empty()) {
    Entry top = Pop();
    if (cancelled_.erase(top.id) > 0) continue;
    clock_.SetTime(top.time);
    ++executed_;
    if (top.fn) {
      top.fn();
    } else {
      // First firing of a periodic task.
      auto it = periodics_.find(top.id);
      if (it != periodics_.end()) {
        it->second.fn();
        ArmPeriodic(top.id);
      }
    }
    return true;
  }
  return false;
}

void EventLoop::RunUntil(Time deadline) {
  while (!queue_.empty()) {
    const Entry& top = queue_.front();
    if (top.time > deadline) break;
    if (cancelled_.erase(top.id) > 0) {
      Pop();
      continue;
    }
    RunOne();
  }
  if (Now() < deadline) clock_.SetTime(deadline);
}

void EventLoop::RunFor(Duration span) {
  SCADS_CHECK(span >= 0);
  RunUntil(Now() + span);
}

void EventLoop::RunAll() {
  while (RunOne()) {
  }
}

}  // namespace scads
