// RoundTrip: one client -> storage node request/reply exchange with a
// timeout — the only way the cluster layer talks to a node.
//
// Router's point reads, MultiGet sub-batches, scans, single-key writes
// (conditional or not), MultiWrite chunks, and the ReadCoalescer's merged
// reads all run on it: arm the timer, ship the request, let the node serve
// it, ship the reply back. Exactly one of the reply and the timer claims the
// exchange and runs `done`; the other is dropped. The claim is atomic, not
// lock-guarded, because the two may fire on different ThreadedRuntime
// workers in the same instant.
//
// Ordering: the timer is armed before the request ships, so the simulator
// always sees the same event sequence, and on real threads the fabric
// enqueue publishes the timer id to the worker that delivers the reply.
// Only the reply cancels the timer. A timer that fired is never cancelled:
// EventLoop cannot tell a ran event from a pending one and would keep the
// stale id in its cancelled set forever.

#ifndef SCADS_CLUSTER_ROUND_TRIP_H_
#define SCADS_CLUSTER_ROUND_TRIP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "common/result.h"
#include "common/status.h"
#include "runtime/execution_backend.h"
#include "storage/engine.h"

namespace scads {

/// A point read's reply: the result plus the serving node's replication
/// watermark, snapshotted when it served the read.
struct PointReply {
  Result<Record> result;
  Time as_of = 0;
};

/// Reply payload bytes, one overload per reply type (the fabric adds its
/// per-message framing on top).
inline int64_t ReplyBytes(const Status&) { return 4; }
/// A write's replaced record is charged only when the reply carries one.
inline int64_t ReplyBytes(const WriteReply& reply) {
  return ReplyBytes(reply.status) + (reply.prior ? WireSize(*reply.prior) : 0);
}
inline int64_t ReplyBytes(const std::vector<Status>& statuses) {
  return static_cast<int64_t>(statuses.size()) * 4;
}
inline int64_t ReplyBytes(const Result<Record>& result) {
  return result.ok() ? WireSize(*result) : 8;
}
inline int64_t ReplyBytes(const PointReply& reply) { return ReplyBytes(reply.result); }
inline int64_t ReplyBytes(const MultiGetReply& reply) {
  int64_t bytes = 0;
  for (const Result<Record>& result : reply.results) bytes += ReplyBytes(result);
  return bytes;
}
inline int64_t ReplyBytes(const Result<std::vector<Record>>& rows) {
  int64_t bytes = 8;
  if (rows.ok()) {
    for (const Record& row : *rows) bytes += WireSize(row);
  }
  return bytes;
}

/// Sends a `request_bytes` request from `client` to `node` and runs
/// `done(std::optional<Reply>)` exactly once: with the reply, or with
/// std::nullopt when `timeout` elapses first. `serve(respond)` runs at the
/// node (on its owner worker) and hands `respond`, a callable taking a
/// Reply, to the node's handler. `done` runs with no lock held.
template <typename Reply, typename Serve, typename Done>
void RoundTrip(Executor* loop, MessageFabric* fabric, NodeId client, NodeId node,
               int64_t request_bytes, Duration timeout, Serve serve, Done done) {
  struct Exchange {
    explicit Exchange(Done fn) : done(std::move(fn)) {}
    std::atomic<bool> claimed{false};
    Executor::TaskId timer = Executor::kInvalidTask;
    Done done;

    /// True exactly once, for the first claimant.
    bool Claim() { return !claimed.exchange(true, std::memory_order_acq_rel); }
  };
  auto exchange = std::make_shared<Exchange>(std::move(done));
  exchange->timer = loop->ScheduleAfter(timeout, [exchange] {
    if (exchange->Claim()) exchange->done(std::nullopt);
  });
  fabric->Send(client, node, request_bytes,
               [loop, fabric, client, node, exchange, serve = std::move(serve)]() mutable {
    serve([loop, fabric, client, node, exchange](Reply reply) {
      // Sized before the reply moves into the delivery closure.
      int64_t reply_bytes = ReplyBytes(reply);
      fabric->Send(node, client, reply_bytes,
                   [loop, exchange, reply = std::move(reply)]() mutable {
        if (!exchange->Claim()) return;
        loop->Cancel(exchange->timer);
        exchange->done(std::move(reply));
      });
    });
  });
}

}  // namespace scads

#endif  // SCADS_CLUSTER_ROUND_TRIP_H_
