// Router: the client-side coordinator.
//
// Maps keys to partitions, picks replicas, composes the two network hops
// (request out, response back), enforces timeouts, and records the
// end-to-end latency histograms the SLA monitor consumes. One Router models
// one application server; experiments may run several.
//
// Thread safety: a Router may be driven from any thread on any
// ExecutionBackend. One plain mutex guards its mutable state — the window,
// the selector and breaker (stateful policies), and the in-flight MultiGet
// and MultiWrite fan-out bookkeeping. Every node exchange runs on
// RoundTrip (cluster/round_trip.h), whose atomic claim resolves the race
// between a reply and its timeout, so no lock is held across one. The lock
// is taken only to read or update that state: user callbacks, coalescer
// calls and fabric sends all run after it is released, so a callback may
// re-enter this router (or any other) from any completion path. The only
// locks taken under it are leaves that never wait on a router: cache
// shards (MultiGet replies and MultiWrite acks update the cache) and the
// ClusterState registry (node lookups and load signals for the selector
// and breaker).
#ifndef SCADS_CLUSTER_ROUTER_H_
#define SCADS_CLUSTER_ROUTER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/circuit_breaker.h"
#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/replica_selector.h"
#include "common/histogram.h"
#include "common/request_options.h"
#include "runtime/execution_backend.h"

namespace scads {

class CacheDirectory;
class ReadCoalescer;

/// Load-adaptive sub-batch sizing (MultiGet/MultiWrite). A node's sub-batch
/// is capped by a size derived from its exported load signal: idle nodes
/// get up to 128 keys/records per message (amortizing the per-message base
/// cost), loaded nodes get quadratically smaller batches down to
/// Router::kMinSubBatch (4) — at a busy server, sojourn scales with the
/// service lump it is handed, so many small lumps have a far lighter
/// completion tail than one big one, and a shed or timeout redirects fewer
/// keys. A mostly-spent deadline budget shrinks the cap the same way, so
/// the last messages a nearly-expired request sends are small and
/// shed-eligible.
struct AdaptiveBatchConfig {
  /// Off = ship whatever the partitioner produced (one message per node),
  /// the pre-adaptive behavior.
  bool enabled = true;
};

/// Router tunables.
struct RouterConfig {
  Duration request_timeout = 250 * kMillisecond;
  /// Reads that fail (timeout/unreachable) retry on other replicas up to
  /// this many times. Writes never retry automatically (no idempotence
  /// token at this layer).
  int read_retries = 1;
  ReadTarget read_target = ReadTarget::kAnyReplica;
  AdaptiveBatchConfig adaptive_batch;
  /// Read-routing policy (cluster/replica_selector.h). Default: power-of-
  /// two-choices against the per-node load signal.
  SelectorConfig selector;
  /// Per-node circuit breaker (cluster/circuit_breaker.h). With defaults, a
  /// healthy fleet behaves byte-identically: every breaker stays closed and
  /// neither ordering nor dispatch changes.
  CircuitBreakerConfig breaker;
};

/// Cumulative, resettable request statistics for one Router.
struct RouterWindow {
  LogHistogram read_latency;
  LogHistogram write_latency;
  int64_t reads_ok = 0;
  int64_t reads_failed = 0;  ///< Timeout/unavailable/shed (NotFound is ok).
  int64_t writes_ok = 0;
  int64_t writes_failed = 0;
  /// Requests shed because their deadline budget ran out (subset of the
  /// *_failed counts above). The overload signal the SLA monitor and
  /// Director read.
  int64_t deadline_exceeded = 0;
  /// Load-spreading replica picks the selection policy made (pin rules and
  /// single-replica partitions don't count — the policy never ran there).
  int64_t replica_picks = 0;
  /// Picks where load steered the policy away from its first sample (p2c
  /// diverting around a loaded replica; always 0 for uniform).
  int64_t replica_steers = 0;
  /// Read attempts / sub-batch candidates skipped in O(1) because the
  /// target's circuit breaker was open — failovers that did NOT pay a
  /// request timeout.
  int64_t breaker_skips = 0;
  /// Per-replica policy pick counts — the skew diagnostic: a node drawing
  /// far fewer picks than its partition share is being steered around.
  std::map<NodeId, int64_t> picks_by_node;

  /// Accumulates `other` into this window. Not internally synchronized:
  /// a Router records into its live window only under its own lock, and
  /// TakeWindow (also under the lock) moves the whole window out — so the
  /// windows being merged here are private snapshots owned by the caller.
  void MergeFrom(const RouterWindow& other);
};

/// Client entry point into the cluster.
class Router {
 public:
  /// Adaptive batching never shrinks a sub-batch below this many keys or
  /// records (an idle node gets up to 128 per message).
  static constexpr size_t kMinSubBatch = 4;

  Router(NodeId client_id, Executor* loop, MessageFabric* network, ClusterState* cluster,
         RouterConfig config, uint64_t seed);

  NodeId client_id() const { return client_id_; }
  /// Mutate config before traffic starts (or between sim events); config
  /// reads on the request path are not guarded.
  RouterConfig* mutable_config() { return &config_; }
  const RouterConfig& config() const { return config_; }
  /// The executor this router runs on (session/write-policy layers use its
  /// clock to arm a RequestOptions budget at their own entry point).
  Executor* loop() const { return loop_; }

  /// Attaches the staleness-aware read cache (may be shared by several
  /// Routers — the directory is thread-safe behind leaf shard locks).
  /// Non-pinned point reads are then answered from cache when the entry's
  /// age is within the spec's staleness bound; successful reads populate
  /// it, and every acked write refreshes/invalidates it synchronously
  /// (before the write callback), so the cache can never serve a value
  /// older than the declared bound. Hits are validated without this
  /// router's mutex (the lock-free hot path in Get/MultiGet); batched
  /// replies update it under the mutex, which is safe because cache shard
  /// locks are leaves that never wait on a router. Attach before traffic
  /// starts, like the coalescer.
  void set_cache(CacheDirectory* cache) { cache_ = cache; }
  CacheDirectory* cache() { return cache_; }

  /// Attaches the cross-router read coalescer (may be shared by several
  /// Routers). Non-pinned point reads that miss the cache then route
  /// through it; see cluster/coalescer.h.
  void set_coalescer(ReadCoalescer* coalescer) { coalescer_ = coalescer; }
  ReadCoalescer* coalescer() { return coalescer_; }

  /// The read-routing policy, built from RouterConfig::selector at
  /// construction.
  ReplicaSelector* selector() { return selector_.get(); }

  /// The per-node circuit breaker guarding this router's read path.
  CircuitBreaker* breaker() { return &breaker_; }

  /// Picks one node among `candidates` (non-empty) with the read-routing
  /// policy, counting the pick in the window. The consistency layer uses
  /// this to choose among provably-fresh (or last-resort) replicas, so
  /// every read-side choice flows through one policy.
  NodeId PickAmong(const std::vector<NodeId>& candidates);

  /// Point read under a per-request context. `options.read_mode` picks the
  /// serving tier (cache / any replica / pinned primary), the effective
  /// staleness bound and session version floor govern cache admission, and
  /// the deadline budget bounds the whole attempt chain: each network
  /// attempt's timeout is clamped to the remaining budget, the next replica
  /// is tried only while budget remains, and an exhausted budget sheds with
  /// kDeadlineExceeded (counted in RouterWindow::deadline_exceeded).
  /// kLow-priority reads skip replica retries (shed-first under failure).
  void Get(const std::string& key, RequestOptions options,
           std::function<void(Result<Record>)> callback);

  /// Batched point reads — the scatter-gather hot path for bounded query
  /// fan-outs. One result per input key, in input order (duplicates allowed;
  /// fetched once). The key set is partitioned by owning replica in one
  /// ClusterState pass, cache-fresh keys are served up front, and the
  /// misses go out as one message per storage node — or several, when the
  /// node's load signal says to cap sub-batches smaller (see
  /// AdaptiveBatchConfig). Each sub-batch has its
  /// own timeout; a failed or shed sub-batch retries its keys on the next
  /// replica candidate without disturbing the rest of the batch.
  /// (Deliberate asymmetry with Get: a shed single read surfaces
  /// kResourceExhausted immediately — overload is its backpressure signal —
  /// while a batch redirects shed keys, since one hot node must not fail a
  /// whole fan-out; a key whose every candidate sheds still reports
  /// kResourceExhausted.) Returned records populate the cache with their
  /// serve-time watermarks, so the staleness bound holds exactly as on
  /// single reads.
  /// The options-taking core: the fan-out shares one deadline budget —
  /// per-node sub-batch timeouts are clamped to the remaining budget, a
  /// shed/failed sub-batch redirects only while budget remains, and keys
  /// still unresolved at expiry resolve kDeadlineExceeded (budget-exhausted
  /// shedding mid-fan-out).
  void MultiGet(const std::vector<std::string>& keys, RequestOptions options,
                std::function<void(std::vector<Result<Record>>)> callback);

  /// One mutation of a single or batched write (MultiWrite stamps the
  /// version).
  struct WriteOp {
    enum class Kind { kPut, kDelete };
    Kind kind = Kind::kPut;
    std::string key;
    std::string value;  ///< Ignored for kDelete.
    /// Single writes only (MultiWrite ignores it): ask the primary for the
    /// record this write replaces, reported as WriteAck::prior.
    bool return_prior = false;
    /// Single writes only (MultiWrite rejects the op): compare-and-set.
    /// The primary applies the write only when the condition holds, else
    /// the write fails with kAborted and changes nothing.
    std::optional<WriteCondition> condition = std::nullopt;
  };

  /// What an acked single-key write reports.
  struct WriteAck {
    Version version;  ///< The stamp the write carried.
    /// With WriteOp::return_prior: the record the write replaced at the
    /// primary, tombstones included; empty when the key held nothing. The
    /// primary reads it in the step that applies the write, so a prior at
    /// or past `version` means the engine dropped the write as superseded.
    std::optional<Record> prior;
  };

  /// Single-key write (put or tombstone) with the given ack mode: the one
  /// single-key write entry point, conditional or not. The version is
  /// stamped here — {loop->Now(), client_id}: last-write-wins order is
  /// wall-clock time, writer id breaks ties — and reported on success
  /// (session guarantees keep it as their token). An acked write
  /// refreshes/invalidates the cache before the callback runs. A failed
  /// condition (kAborted) is an answered write in the window: the system
  /// worked, the CAS lost. Writes do not retry automatically (no
  /// idempotence token at this layer); ReadModifyWrite
  /// (consistency/write_policy.h) is the CAS retry loop.
  void Write(const WriteOp& op, AckMode ack, RequestOptions options,
             std::function<void(Result<WriteAck>)> callback);

  /// Write of a kPut / kDelete op that reports only its status.
  void Put(const std::string& key, const std::string& value, AckMode ack,
           RequestOptions options, std::function<void(Status)> callback);
  void Delete(const std::string& key, AckMode ack, RequestOptions options,
              std::function<void(Status)> callback);

  /// Batched writes: ops are grouped by primary node and shipped as one
  /// message per node (or several, under the same load-adaptive sub-batch
  /// cap as MultiGet); each node WAL-logs its sub-batch with one group-
  /// commit sync. One status per op, in op order. Ops on the same key
  /// coalesce to the last one (the whole batch carries one version stamp,
  /// so "apply in order" and "last wins" are the same outcome); the earlier
  /// ops report the winner's status. A conditioned op fails with
  /// kInvalidArgument and takes no part in that coalescing: a batch checks
  /// no preconditions, so it must not apply one unconditionally. Writes do
  /// not retry (same contract as Put). Acked ops refresh/invalidate the
  /// cache before the callback runs.
  void MultiWrite(std::vector<WriteOp> ops, AckMode ack, RequestOptions options,
                  std::function<void(std::vector<Status>)> callback);

  /// Range read [start, end) (single-partition ranges only: SCADS query
  /// compilation guarantees bounded ranges; cross-partition scans fan out at
  /// the query layer).
  void Scan(const std::string& start, const std::string& end, size_t limit,
            RequestOptions options, std::function<void(Result<std::vector<Record>>)> callback);

  /// Read directly from a chosen replica (consistency layer uses this for
  /// staleness-bounded and availability-prioritized reads). The options
  /// deadline bounds the single attempt; no other replica is tried.
  void GetFromReplica(const std::string& key, NodeId replica, RequestOptions options,
                      std::function<void(Result<Record>)> callback);

  /// Records a read that was served from cache outside the Router (the
  /// staleness controller's hit path), so RouterWindow — the SLA monitor's
  /// and Director's view — still sees every read.
  void CountCacheServedRead(Time start);

  // --- ReadCoalescer plumbing --------------------------------------------
  //
  // The coalescer resolves reads on behalf of their routers; these two
  // entry points keep each read's window accounting, cache policy, and
  // latency start time with the router that accepted it.

  /// Completes a coalesced read: records it in this router's window (with
  /// its original start time) and, for leaders only (`store_in_cache`),
  /// populates the cache with the reply's serve-time watermark. Followers
  /// pass false so a shared reply is cached exactly once, by the router
  /// that fetched it.
  void FinishCoalescedRead(const std::string& key, Time start, Result<Record> result,
                           Time as_of, bool store_in_cache,
                           const std::function<void(Result<Record>)>& callback);

  /// Re-dispatches a read the coalescer detached (follower whose bounds
  /// the shared reply can't prove) or failed over (merged-message timeout),
  /// preserving its original start time. `exclude` drops one node — the
  /// failed merge target — from the fresh candidate list when alternatives
  /// exist. An expired deadline sheds here, as on any dispatch.
  void RedispatchCoalesced(const std::string& key, RequestOptions options, Time start,
                           NodeId exclude, std::function<void(Result<Record>)> callback);

  /// Statistics since the last TakeWindow call. Safe to call while workers
  /// are completing requests: the swap happens under the router lock, so a
  /// concurrent completion lands wholly in the old window or wholly in the
  /// fresh one.
  RouterWindow TakeWindow();
  /// Direct view of the live window — single-threaded (sim/test) use only;
  /// threaded readers must TakeWindow.
  const RouterWindow& window() const { return window_; }

 private:
  using ReadCallback = std::function<void(Result<Record>)>;
  enum class Op { kRead, kWrite };

  /// Tries `candidates` from `index` on: skips unregistered nodes and
  /// breaker-refused ones, then sends one attempt; its timeout moves on to
  /// the next candidate.
  void GetAttempt(const std::string& key, std::vector<NodeId> candidates, size_t index, Time start,
                  RequestOptions options, ReadCallback callback);

  struct MultiGetState;  // scatter-gather bookkeeping (defined in router.cc)
  /// Groups the given pending fetches by their current replica candidate and
  /// sends each node's group as one or more sub-batch messages, sized by
  /// SubBatchLimit against the node's load signal; fetches whose candidates
  /// are exhausted resolve kUnavailable, and an exhausted deadline budget
  /// resolves everything still pending kDeadlineExceeded.
  void DispatchMultiGet(const std::shared_ptr<MultiGetState>& state,
                        std::vector<size_t> fetch_ids);
  /// Ships one sub-batch (<= SubBatchLimit fetches, all targeting `target`)
  /// as a single message with its own timeout; shed keys redirect via
  /// DispatchMultiGet, which re-sizes against fresh load.
  void SendMultiGetSubBatch(const std::shared_ptr<MultiGetState>& state, NodeId target,
                            std::vector<size_t> group);

  /// The sub-batch cap for messages to `target` right now: 128 shrunk
  /// quadratically toward kMinSubBatch by the node's load pressure, then
  /// scaled by the remaining fraction of the request's deadline budget.
  /// Unbounded when adaptive batching is disabled.
  size_t SubBatchLimit(NodeId target, const RequestOptions& options, Time now) const;
  void FinishMultiGet(const std::shared_ptr<MultiGetState>& state);

  /// Window accounting for one finished request: its latency since `start`,
  /// ok or failed, and a deadline shed when a failure carries
  /// kDeadlineExceeded. Caller holds mu_.
  void Account(Op op, Time start, bool ok, const Status& status);
  /// Account under a mu_ it takes itself.
  void Settle(Op op, Time start, bool ok, const Status& status);
  /// Settles a request that failed without a reply, then runs `callback`
  /// with `status` after the lock is released.
  template <typename Callback>
  void Fail(Op op, Time start, Status status, const Callback& callback);

  /// May this request be answered from the attached cache?
  bool CacheEligible(const RequestOptions& options) const;

  /// The configured timeout clamped to the remaining budget. `*budget_bound`
  /// reports whether the budget was the binding constraint — a fired
  /// timeout is then the deadline expiring, not a lost node.
  Duration ClampedTimeout(const RequestOptions& options, Time now, bool* budget_bound) const;
  /// The status a fired timeout should carry (see ClampedTimeout).
  static Status TimeoutStatus(bool budget_bound, std::string_view what);

  /// Both delegate to the selector policy and count policy picks/steers in
  /// the window. Shared by Get, MultiGet, Scan, and the coalescer
  /// redispatch path, so every read picks replicas identically. Caller
  /// holds mu_.
  NodeId ChooseReadReplica(const PartitionInfo& partition, const RequestOptions& options);
  std::vector<NodeId> ReadCandidates(const PartitionInfo& partition,
                                     const RequestOptions& options);
  /// Window accounting for one selector decision. Caller holds mu_.
  void CountPick(const ReplicaPick& pick);

  /// Caches `result` if it is a live record. `as_of` is the serving node's
  /// replication watermark snapshotted when it served the read.
  void MaybeCacheRead(const std::string& key, Time as_of, const Result<Record>& result);
  /// The cache write hook for an acked write: refreshes a put's entry or
  /// invalidates a tombstone's, before the writer's callback runs, so no
  /// later read through the cache can see the predecessor value.
  void CacheWrite(bool tombstone, const std::string& key, const std::string& value,
                  Version version);

  NodeId client_id_;
  Executor* loop_;
  MessageFabric* network_;
  ClusterState* cluster_;
  RouterConfig config_;
  /// Guards window_, breaker_, selector_, and in-flight MultiGetState /
  /// MultiWrite bookkeeping. Never held across a callback, a coalescer
  /// call, or a fabric send (see the file comment).
  std::mutex mu_;
  RouterWindow window_;
  CacheDirectory* cache_ = nullptr;
  ReadCoalescer* coalescer_ = nullptr;
  CircuitBreaker breaker_;
  std::unique_ptr<ReplicaSelector> selector_;
};

}  // namespace scads

#endif  // SCADS_CLUSTER_ROUTER_H_
