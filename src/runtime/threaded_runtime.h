// ThreadedRuntime: the real-threads ExecutionBackend.
//
// N worker threads, each with its own task queue and timer heap. Two
// dispatch rules give the data plane its serialization guarantees without
// a lock inside every component:
//
//  * Sharded delivery — a NodeId registered with RegisterDestination is
//    pinned to one worker; every fabric message addressed to it runs on
//    that worker, in enqueue order. Unregistered destinations (client
//    routers) are pinned by hash, so one client's responses serialize
//    too. A StorageNode therefore executes single-threaded, exactly as
//    it does on the simulator — only its *exported* signals (load
//    signal, liveness) need atomics.
//  * Worker-affine timers — ScheduleAfter/At/Periodic called on a worker
//    thread arms the timer on that same worker, so a node's service-
//    completion and replication-flush callbacks stay on its owner
//    worker. Calls from non-worker threads (clients arming request
//    timeouts) round-robin across workers; anything those timers touch
//    (Router request state) carries its own lock.
//
// Time is monotonic wall-clock microseconds (WallClock); deterministic()
// is false. Send() enqueues immediately — there is no simulated latency,
// loss, or partition model; chaos experiments stay on the simulator.
//
// Timer fidelity is bounded by condition_variable wait_for resolution
// (tens of microseconds on Linux); the saturation bench measures
// end-to-end latency against this same clock so the error is visible,
// not hidden.

#ifndef SCADS_RUNTIME_THREADED_RUNTIME_H_
#define SCADS_RUNTIME_THREADED_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "runtime/execution_backend.h"

namespace scads {

class ThreadedRuntime final : public ExecutionBackend {
 public:
  struct Options {
    /// Worker threads. 0 = hardware_concurrency, clamped to [2, 16].
    int workers = 0;
  };

  ThreadedRuntime() : ThreadedRuntime(Options()) {}
  explicit ThreadedRuntime(Options options);
  ~ThreadedRuntime() override;

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  /// Pins deliveries for `id` to one worker (round-robin assignment).
  /// Call per storage node before traffic; idempotent per id.
  void RegisterDestination(NodeId id);
  /// Explicit-worker form (tests; NUMA-style placement experiments).
  void RegisterDestination(NodeId id, int worker);

  /// Stops the workers. Queued tasks and pending timers are dropped —
  /// quiesce traffic first. Idempotent; the destructor calls it.
  void Shutdown();

  // --- Executor ----------------------------------------------------------
  Time Now() const override { return WallClock::Get()->Now(); }
  const Clock* clock() const override { return WallClock::Get(); }
  TaskId ScheduleAt(Time t, std::function<void()> fn) override;
  TaskId ScheduleAfter(Duration delay, std::function<void()> fn) override;
  TaskId SchedulePeriodic(Duration period, std::function<void()> fn) override;
  bool Cancel(TaskId id) override;
  bool deterministic() const override { return false; }

  // --- MessageFabric ------------------------------------------------------
  void Send(NodeId from, NodeId to, int64_t payload_bytes,
            std::function<void()> deliver) override;
  using MessageFabric::Send;

  // --- introspection ------------------------------------------------------
  int worker_count() const { return static_cast<int>(workers_.size()); }
  /// Tasks run across all workers (messages + timers + posts).
  int64_t tasks_executed() const { return tasks_executed_.load(std::memory_order_relaxed); }
  /// Messages handed to the fabric.
  int64_t sent_count() const { return sent_.load(std::memory_order_relaxed); }
  /// The worker a delivery to `to` would run on (tests).
  int WorkerOf(NodeId to) const;

 private:
  /// Max 64 workers: the low 6 TaskId bits route Cancel to the owning
  /// worker without a global table.
  static constexpr int kWorkerBits = 6;
  static constexpr TaskId kWorkerMask = (TaskId{1} << kWorkerBits) - 1;

  struct QueuedTask {
    TaskId id;
    std::function<void()> fn;
  };

  /// One-shot or periodic-firing heap entry. Periodic entries carry no fn;
  /// the body lives in `periodics` so the chain survives each firing.
  struct TimerEntry {
    Time when;
    TaskId id;
    std::function<void()> fn;
    bool periodic = false;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  struct PeriodicState {
    Duration period;
    std::function<void()> fn;
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<QueuedTask> queue;
    std::vector<TimerEntry> timers;  // heap via push_heap/pop_heap (TimerLater)
    std::unordered_set<TaskId> live;  // schedulable ids not yet run
    std::unordered_set<TaskId> cancelled;
    std::unordered_map<TaskId, PeriodicState> periodics;
    bool stop = false;
    std::thread thread;
  };

  void WorkerLoop(int index);
  /// Runs one due task if any (called with w.mu held; may unlock to run).
  /// Returns false when nothing was runnable.
  bool RunOneLocked(std::unique_lock<std::mutex>& lock, Worker& w);

  TaskId NextId(int worker) {
    return (next_serial_.fetch_add(1, std::memory_order_relaxed) << kWorkerBits) |
           static_cast<TaskId>(worker);
  }
  static int WorkerIndexOf(TaskId id) { return static_cast<int>(id & kWorkerMask); }
  /// The worker the calling thread runs on, or a round-robin pick for
  /// external threads.
  int HomeWorker();
  void EnqueueTask(int worker, TaskId id, std::function<void()> fn);
  TaskId ArmTimer(int worker, Time when, std::function<void()> fn, bool periodic,
                  TaskId reuse_id = kInvalidTask);

  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::shared_mutex destinations_mu_;
  std::unordered_map<NodeId, int> destinations_;
  int next_destination_worker_ = 0;

  std::atomic<TaskId> next_serial_{1};
  std::atomic<int> next_external_{0};
  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int64_t> sent_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace scads

#endif  // SCADS_RUNTIME_THREADED_RUNTIME_H_
