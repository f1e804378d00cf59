// Span tracing from outside the program.
//
// The benchmark records spans only around its own calls into the program
// and, where it assembles a deployment itself, inside the Executor and
// MessageFabric decorators it hands to StorageNode and Router. A span has a
// kind, start, end, the span that caused it, and the op it belongs to. The
// op id is captured at Send/ScheduleAfter and restored inside the wrapped
// closure, so every hop of one op shares its id. Self time is a span's
// duration minus the time covered by spans nested inside it on the same
// thread; self allocations are counted the same way.
//
// Spans stay in per-thread memory and are written out once, at the end of
// the run (see README.md for the file layout).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/execution_backend.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kRouterCall,      // benchmark -> Router / ScadsClient entry call
  kNodeDelivery,    // fabric delivery addressed to a storage node
  kOtherDelivery,   // fabric delivery addressed to a router or control sink
  kTimer,           // executor timer callback
  kQueryCall,       // benchmark -> Scads::Query
  kPutRowCall,      // benchmark -> Scads::PutRow
  kCacheProbe,      // benchmark -> CacheDirectory::LookupPoint
  kEngineGet,       // benchmark -> EngineInterface::Get
  kEngineScan,      // benchmark -> EngineInterface::Scan
  kCount,
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;
  int64_t allocs = 0;        // allocations on this thread during the span
  int64_t child_allocs = 0;  // of which inside nested spans
  int64_t op = -1;
  int64_t id = 0;
  int64_t parent = 0;        // 0 = none
  SpanKind kind = SpanKind::kCount;
};

struct KindSummary {
  int64_t count = 0;
  double self_ns = 0;      // summed
  double self_allocs = 0;  // summed
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Op id of the calling thread; every span it opens is tagged with it.
  static void SetOp(int64_t op);
  static int64_t CurrentOp();
  // Innermost open span of the calling thread (0 = none).
  static int64_t CurrentSpan();

  void RecordHandoff(int64_t ns);
  // Drops the hand-offs recorded so far; call while no thread records.
  void ClearHandoffs();

  struct ThreadBuf {
    int64_t thread_index = 0;
    std::vector<Span> spans;
    std::vector<size_t> stack;
    std::vector<int64_t> handoffs;
  };

  // Reads every thread's spans; call only once the threads that record
  // have stopped or are parked.
  std::vector<KindSummary> Summarize() const;
  std::vector<int64_t> Handoffs() const;
  // Writes all spans as raw `Span` records; returns false on I/O error.
  bool WriteSpans(const std::string& path) const;

 private:
  friend class ScopedSpan;
  ThreadBuf* Mine();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

// Opens a span on construction and closes it on destruction; a no-op while
// the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, int64_t parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  int64_t start_allocs_ = 0;
};

// Executor decorator: counts timers and cancels, and while tracing wraps
// each callback in a kTimer span that carries the scheduling op's id.
class TracingExecutor : public scads::Executor {
 public:
  explicit TracingExecutor(scads::Executor* inner) : inner_(inner) {}

  scads::Time Now() const override { return inner_->Now(); }
  const scads::Clock* clock() const override { return inner_->clock(); }
  TaskId ScheduleAt(scads::Time t, std::function<void()> fn) override;
  TaskId ScheduleAfter(scads::Duration delay, std::function<void()> fn) override;
  TaskId SchedulePeriodic(scads::Duration period, std::function<void()> fn) override;
  bool Cancel(TaskId id) override;
  bool deterministic() const override { return inner_->deterministic(); }

  int64_t timers() const { return timers_.load(std::memory_order_relaxed); }
  int64_t cancels() const { return cancels_.load(std::memory_order_relaxed); }

 private:
  std::function<void()> Wrap(std::function<void()> fn);

  scads::Executor* inner_;
  std::atomic<int64_t> timers_{0};
  std::atomic<int64_t> cancels_{0};
};

// MessageFabric decorator: counts sends, and while tracing wraps each
// delivery in a span (kNodeDelivery when `to` is below `first_client`,
// kOtherDelivery otherwise) and records the Send-to-delivery hand-off.
class TracingFabric : public scads::MessageFabric {
 public:
  TracingFabric(scads::MessageFabric* inner, scads::NodeId first_client)
      : inner_(inner), first_client_(first_client) {}

  void Send(scads::NodeId from, scads::NodeId to, int64_t payload_bytes,
            std::function<void()> deliver) override;
  using scads::MessageFabric::Send;

  int64_t sends() const { return sends_.load(std::memory_order_relaxed); }

 private:
  scads::MessageFabric* inner_;
  scads::NodeId first_client_;
  std::atomic<int64_t> sends_{0};
};

// Fills the span-derived per-layer metrics (mean self time and self
// allocations per span kind) for every kind that recorded spans.
void SpanLayers(std::map<std::string, double>* layers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
