#include "trace.h"

#include <cstdio>
#include <utility>

#include "alloc_counter.h"
#include "harness.h"

namespace perfbench {
namespace {

thread_local int64_t t_op = -1;
thread_local Tracer::ThreadBuf* t_buf = nullptr;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: worker threads may outlive main
  return *tracer;
}

void Tracer::SetOp(int64_t op) { t_op = op; }
int64_t Tracer::CurrentOp() { return t_op; }

int64_t Tracer::CurrentSpan() {
  if (t_buf == nullptr || t_buf->stack.empty()) return 0;
  return t_buf->spans[t_buf->stack.back()].id;
}

Tracer::ThreadBuf* Tracer::Mine() {
  if (t_buf == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    buf->spans.reserve(1 << 16);
    std::lock_guard<std::mutex> lock(mu_);
    buf->thread_index = static_cast<int64_t>(bufs_.size());
    t_buf = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return t_buf;
}

void Tracer::RecordHandoff(int64_t ns) { Mine()->handoffs.push_back(ns); }

void Tracer::ClearHandoffs() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : bufs_) buf->handoffs.clear();
}

std::vector<KindSummary> Tracer::Summarize() const {
  std::vector<KindSummary> out(static_cast<size_t>(SpanKind::kCount));
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    for (const Span& s : buf->spans) {
      if (s.end_ns == 0) continue;  // still open
      KindSummary& k = out[static_cast<size_t>(s.kind)];
      ++k.count;
      k.self_ns += static_cast<double>(s.end_ns - s.start_ns - s.child_ns);
      k.self_allocs += static_cast<double>(s.allocs - s.child_allocs);
    }
  }
  return out;
}

std::vector<int64_t> Tracer::Handoffs() const {
  std::vector<int64_t> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) out.insert(out.end(), buf->handoffs.begin(), buf->handoffs.end());
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    if (buf->spans.empty()) continue;
    ok = ok && std::fwrite(buf->spans.data(), sizeof(Span), buf->spans.size(), f) ==
                   buf->spans.size();
  }
  return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(SpanKind kind, int64_t parent) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  buf_ = tracer.Mine();
  Span span;
  span.kind = kind;
  span.op = t_op;
  span.id = (buf_->thread_index << 40) | static_cast<int64_t>(buf_->spans.size() + 1);
  span.parent = parent >= 0 ? parent : Tracer::CurrentSpan();
  buf_->stack.push_back(buf_->spans.size());
  buf_->spans.push_back(span);
  start_allocs_ = ThreadAllocCount();
  buf_->spans.back().start_ns = WallNanos();
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) return;
  int64_t end = WallNanos();
  size_t index = buf_->stack.back();
  buf_->stack.pop_back();
  Span& span = buf_->spans[index];
  span.end_ns = end;
  span.allocs = ThreadAllocCount() - start_allocs_;
  if (!buf_->stack.empty()) {
    Span& parent = buf_->spans[buf_->stack.back()];
    parent.child_ns += span.end_ns - span.start_ns;
    parent.child_allocs += span.allocs;
  }
}

std::function<void()> TracingExecutor::Wrap(std::function<void()> fn) {
  if (!Tracer::Get().enabled()) return fn;
  int64_t op = Tracer::CurrentOp();
  int64_t parent = Tracer::CurrentSpan();
  return [op, parent, fn = std::move(fn)] {
    int64_t saved = Tracer::CurrentOp();
    Tracer::SetOp(op);
    {
      ScopedSpan span(SpanKind::kTimer, parent);
      fn();
    }
    Tracer::SetOp(saved);
  };
}

scads::Executor::TaskId TracingExecutor::ScheduleAt(scads::Time t, std::function<void()> fn) {
  timers_.fetch_add(1, std::memory_order_relaxed);
  return inner_->ScheduleAt(t, Wrap(std::move(fn)));
}

scads::Executor::TaskId TracingExecutor::ScheduleAfter(scads::Duration delay,
                                                       std::function<void()> fn) {
  timers_.fetch_add(1, std::memory_order_relaxed);
  return inner_->ScheduleAfter(delay, Wrap(std::move(fn)));
}

scads::Executor::TaskId TracingExecutor::SchedulePeriodic(scads::Duration period,
                                                          std::function<void()> fn) {
  timers_.fetch_add(1, std::memory_order_relaxed);
  return inner_->SchedulePeriodic(period, Wrap(std::move(fn)));
}

bool TracingExecutor::Cancel(TaskId id) {
  cancels_.fetch_add(1, std::memory_order_relaxed);
  return inner_->Cancel(id);
}

void TracingFabric::Send(scads::NodeId from, scads::NodeId to, int64_t payload_bytes,
                         std::function<void()> deliver) {
  sends_.fetch_add(1, std::memory_order_relaxed);
  if (!Tracer::Get().enabled()) {
    inner_->Send(from, to, payload_bytes, std::move(deliver));
    return;
  }
  int64_t op = Tracer::CurrentOp();
  int64_t parent = Tracer::CurrentSpan();
  int64_t sent_ns = WallNanos();
  SpanKind kind = to < first_client_ ? SpanKind::kNodeDelivery : SpanKind::kOtherDelivery;
  inner_->Send(from, to, payload_bytes, [op, parent, sent_ns, kind, deliver = std::move(deliver)] {
    Tracer& tracer = Tracer::Get();
    tracer.RecordHandoff(WallNanos() - sent_ns);
    int64_t saved = Tracer::CurrentOp();
    Tracer::SetOp(op);
    {
      ScopedSpan span(kind, parent);
      deliver();
    }
    Tracer::SetOp(saved);
  });
}

void SpanLayers(std::map<std::string, double>* layers) {
  struct Out {
    SpanKind kind;
    const char* time_name;
    double scale;  // ns -> the metric's unit
    const char* allocs_name;
  };
  static const Out kOuts[] = {
      {SpanKind::kRouterCall, "router.call_us", 1e-3, "router.call_allocs"},
      {SpanKind::kNodeDelivery, "node.handler_us", 1e-3, "node.handler_allocs"},
      {SpanKind::kQueryCall, "query.call_us", 1e-3, "query.call_allocs"},
      {SpanKind::kPutRowCall, "core.putrow_call_us", 1e-3, nullptr},
      {SpanKind::kCacheProbe, "cache.probe_ns", 1.0, nullptr},
      {SpanKind::kEngineGet, "storage.get_ns", 1.0, nullptr},
      {SpanKind::kEngineScan, "storage.scan_ns", 1.0, nullptr},
  };
  std::vector<KindSummary> spans = Tracer::Get().Summarize();
  for (const Out& out : kOuts) {
    const KindSummary& s = spans[static_cast<size_t>(out.kind)];
    if (s.count == 0) continue;
    auto n = static_cast<double>(s.count);
    (*layers)[out.time_name] = s.self_ns / n * out.scale;
    if (out.allocs_name != nullptr) (*layers)[out.allocs_name] = s.self_allocs / n;
  }
}

}  // namespace perfbench
