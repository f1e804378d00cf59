// StorageNode: one simulated server.
//
// Wraps a StorageEngine with (a) a service-time queueing model, so latency
// rises as utilization approaches 1 — the signal the Director's ML models
// learn from; and (b) reliable asynchronous replication streams (sequence-
// numbered log shipping with cumulative acks and retransmission), which give
// the bounded-staleness and durability behaviours of paper §3.3.
//
// Handlers are invoked via MessageFabric closures; responses are the caller's
// responsibility to route back (the Router composes the return hop).

#ifndef SCADS_CLUSTER_NODE_H_
#define SCADS_CLUSTER_NODE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "common/histogram.h"
#include "common/load_signal.h"
#include "common/request_options.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/execution_backend.h"
#include "storage/engine.h"
#include "storage/pagestore/page_store.h"

namespace scads {

/// How many replicas must acknowledge a write before the client is told it
/// committed (paper §3.3.1, durability vs latency).
enum class AckMode {
  kPrimary,  ///< Primary applied it; replication continues asynchronously.
  kQuorum,   ///< Majority of the replica set applied it.
  kAll,      ///< Every replica applied it.
};

/// Per-node service model and replication tunables.
struct NodeConfig {
  Duration get_service_time = 120;            ///< us of CPU per point read.
  Duration put_service_time = 180;            ///< us per write.
  Duration scan_service_base = 150;           ///< us per scan request.
  Duration scan_service_per_row = 4;          ///< us per row returned.
  Duration replicate_service_per_record = 40; ///< us per replicated record.
  /// us per key after the first in a batched read: request parsing,
  /// dispatch, and the syscall are paid once, the probes share traversal
  /// state, so the marginal key is far cheaper than a standalone get.
  Duration multiget_service_per_key = 25;
  /// us per record after the first in a batched write (group commit
  /// amortizes the WAL sync the same way).
  Duration multiwrite_service_per_record = 60;
  /// Overload shedding: requests that would wait longer than this are
  /// rejected immediately with kResourceExhausted. kLow work sheds at half
  /// of it (see StorageNode::Admit).
  Duration max_queue_delay = 2 * kSecond;
  /// Replication batching window (group commit for the streams).
  Duration replication_flush_interval = 2 * kMillisecond;
  /// Idle streams send watermark heartbeats at this period so staleness
  /// bounds stay measurable without writes. 0 disables the timer (large
  /// fleet simulations with rf=1 need no watermarks).
  Duration watermark_heartbeat = 500 * kMillisecond;
  /// Larger-than-memory tier: when paged_storage.enabled the node runs a
  /// PagedEngine (skiplist memtable over a paged cold tier) instead of the
  /// RAM-only StorageEngine; engine IO latency is charged to busy time and
  /// delays read responses.
  PagedStorageConfig paged_storage;
};

/// Cumulative node statistics; the Director samples these and differences
/// consecutive samples to get rates.
struct NodeStats {
  int64_t ops_completed = 0;
  int64_t ops_shed = 0;
  int64_t busy_micros = 0;
  int64_t records_replicated_out = 0;
  int64_t records_replicated_in = 0;
  int64_t retransmits = 0;
  /// Admission outcomes by RequestPriority class (kLow/kNormal/kHigh) for
  /// CLIENT requests only; the Director differences these to see *who* an
  /// overloaded node is turning away.
  int64_t admitted_by_priority[3] = {0, 0, 0};
  int64_t shed_by_priority[3] = {0, 0, 0};
  /// Inbound replication batches shed under overload (the primary
  /// retransmits them). Kept out of shed_by_priority so retransmit storms
  /// can't masquerade as interactive kNormal traffic being turned away.
  int64_t replication_sheds = 0;
  /// Crash-recovery delta syncs: requests this node served as primary,
  /// records shipped in those replies, and catch-ups this node completed
  /// as the recovering replica.
  int64_t delta_syncs_served = 0;
  int64_t delta_records_shipped = 0;
  int64_t delta_syncs_completed = 0;
};

/// Response to a batched read: one result per requested key, in request
/// order, plus the serving replica's replication watermark per key (the
/// instant each value is provably no staler than — the cache's as_of).
struct MultiGetReply {
  std::vector<Result<Record>> results;
  std::vector<Time> as_of;
};

/// Response to a single-key write: its status plus, when the request asked
/// for it, the record the write replaced (tombstones included; empty when
/// the key held nothing).
struct WriteReply {
  Status status;
  std::optional<Record> prior;
};

/// A single-key write's compare-and-set precondition (serializable writes):
/// the key's live record must carry `version`; with no version, the key
/// must hold no live record (absent or tombstoned).
struct WriteCondition {
  std::optional<Version> version;
};

/// One mutation of a batched write; the partition id rides along because a
/// node-batch may span every partition the node is primary for.
struct MultiWriteItem {
  PartitionId pid = -1;
  WalRecord record;
};

/// One storage server in the simulated cluster.
class StorageNode {
 public:
  StorageNode(NodeId id, Executor* exec, MessageFabric* network, ClusterState* cluster,
              NodeConfig config, uint64_t seed);
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  NodeId id() const { return id_; }
  EngineInterface* engine() { return engine_.get(); }
  const NodeConfig& config() const { return config_; }

  /// Arms the heartbeat timer. Call once the node joins the cluster.
  void Start();
  /// Cancels timers; the node stops initiating traffic (terminate path).
  void Stop();

  /// Crash/recover. A dead node ignores handler invocations (the network
  /// normally prevents delivery; this guards stray timers). The engine's
  /// contents survive, modelling a durable local disk. A false->true
  /// transition kicks the crash-recovery delta sync (StartRecovery), so
  /// every revive path — injector, ClusterState::SetNodeAlive, manual test
  /// wiring — catches the node up without extra choreography.
  void set_alive(bool alive);
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Crash-recovery catch-up: for every partition this node replicates but
  /// does not lead, ask the primary for the writes enqueued since our
  /// durable watermark. Until the response lands, the stale watermark keeps
  /// this replica out of the fresh-read set; once it lands, the watermark
  /// jumps to the primary's send-time "now" — re-entry is earned, not
  /// assumed. (The primary's streams retransmit forever too, but their
  /// backoff has decayed to 1s ticks by recovery time; the pull makes
  /// recovery time bounded by one round trip + apply.)
  void StartRecovery();

  // --- request handlers -----------------------------------------------
  //
  // Every request handler takes the request's RequestPriority so admission
  // can shed kLow work first under overload.

  /// Point read of `key`.
  void HandleGet(const std::string& key, RequestPriority priority,
                 std::function<void(Result<Record>)> respond);

  /// Batched point reads: one admission (base get cost + a smaller marginal
  /// cost per extra key) and one engine MultiGet over the whole key set.
  /// Under overload every key reports kResourceExhausted so the router can
  /// redirect the sub-batch.
  void HandleMultiGet(const std::vector<std::string>& keys, RequestPriority priority,
                      std::function<void(MultiGetReply)> respond);

  /// Batched writes: the whole batch is WAL-logged with one group-commit
  /// sync, applied, then each record replicates on the normal streams.
  /// `respond` fires once with a status per item, when every item has
  /// reached the requested ack level. This node must be primary for every
  /// item's partition.
  void HandleMultiWrite(std::vector<MultiWriteItem> items, AckMode ack,
                        RequestPriority priority,
                        std::function<void(std::vector<Status>)> respond);

  /// Range read [start, end) with limit.
  void HandleScan(const std::string& start, const std::string& end, size_t limit,
                  RequestPriority priority,
                  std::function<void(Result<std::vector<Record>>)> respond);

  /// Write (put or tombstone) for partition `pid`. This node must be the
  /// partition's primary; it applies locally then drives replication.
  /// `respond` fires according to `ack`. With `return_prior`, the reply
  /// carries the record the write replaced, read in the service step that
  /// applies the write, so it is the write's exact predecessor. With a
  /// `condition` (compare-and-set), the write applies only when the
  /// condition holds on that same read and the write's stamp is newer than
  /// the key's record, so the engine cannot drop it as superseded;
  /// otherwise it answers kAborted and writes nothing.
  void HandleWrite(PartitionId pid, const WalRecord& record, AckMode ack,
                   RequestPriority priority, bool return_prior,
                   const std::optional<WriteCondition>& condition,
                   std::function<void(WriteReply)> respond);

  /// Replication batch arrival (secondary side). Applies records with
  /// sequence numbers in (last_applied, ...] and acks cumulatively.
  void HandleReplicate(PartitionId pid, NodeId from, uint64_t first_seq,
                       std::vector<WalRecord> records, Time watermark);

  /// Ack arrival (primary side).
  void HandleReplicateAck(PartitionId pid, NodeId from, uint64_t acked_seq);

  /// Delta-sync request (primary side): `from` asks for every record of
  /// `pid` whose version is at or after `since` (its durable watermark at
  /// crash time). The reply carries the records plus the primary's current
  /// watermark.
  void HandleDeltaSyncRequest(PartitionId pid, NodeId from, Time since);

  /// Delta-sync reply (recovering side): applies the missed records (the
  /// engine's newer-version rule makes this idempotent against concurrent
  /// stream retransmits) and advances the partition watermark.
  void HandleDeltaSyncResponse(PartitionId pid, NodeId from, std::vector<WalRecord> records,
                               Time watermark);

  // --- observability ----------------------------------------------------

  /// Replication watermark for `pid` on this node: every write enqueued by
  /// the primary at or before this time has been applied here. A partition
  /// primary reports "now".
  Time replicated_through(PartitionId pid) const;

  const NodeStats& stats() const { return stats_; }
  /// Node-local sojourn times (queue wait + service), microseconds.
  const LogHistogram& sojourn_histogram() const { return sojourn_; }

  /// Current queue backlog in microseconds of work.
  Duration queue_delay() const;

  /// The load signal the Router sizes sub-batches from (and the Director
  /// reads for overload): explicit backlog, smoothed recent sojourn,
  /// declared background utilization, and the recent shed fraction.
  /// Exported to clients through ClusterState::NodeLoad.
  NodeLoadSignal load_signal() const;

  /// Charges `service_demand` microseconds of aggregate work to this node
  /// without materializing individual requests. System experiments use this
  /// hybrid-fidelity path: the bulk of the logical request rate arrives as
  /// background demand, while a sampled subset flows through the real
  /// request path and experiences the queueing delay the background load
  /// creates.
  void InjectBackgroundLoad(Duration service_demand);

  /// Smooth hybrid-fidelity load: declares that unsampled background
  /// traffic keeps this node at `utilization` (fraction of capacity).
  /// Sampled requests then wait an M/M/1-style queueing delay
  /// (service * rho/(1-rho), exponentially distributed) on top of the
  /// explicit queue; utilization at or above ~1 sheds the overload
  /// fraction. `busy_account` is added to the busy-time counters so rate
  /// estimation still works.
  void SetBackgroundLoad(double utilization, Duration busy_account);

 private:
  struct WriteWaiter {
    int remaining = 0;
    std::function<void(Status)> respond;
    bool done = false;
  };

  // Reliable, ordered, at-least-once stream of records to one secondary.
  struct ReplicationStream {
    std::deque<std::pair<uint64_t, WalRecord>> pending;  // (seq, record)
    std::deque<std::pair<uint64_t, Time>> enqueue_times; // (seq, enqueued_at)
    uint64_t next_seq = 1;
    uint64_t acked = 0;
    uint64_t sent_through = 0;
    bool inflight = false;
    bool flush_scheduled = false;
    Duration current_retry_delay = 0;
    Executor::TaskId retry_event = Executor::kInvalidTask;
    // Waiters blocked on this stream reaching a given seq.
    std::vector<std::pair<uint64_t, std::shared_ptr<WriteWaiter>>> waiters;
  };

  using StreamKey = std::pair<PartitionId, NodeId>;

  /// Admission + FIFO queue: reserves `service` capacity, returns total
  /// sojourn (wait+service), or nullopt when shedding. Priority steers the
  /// shed order: kLow sheds at half the queue cap
  /// (and outright under background saturation), kNormal at the cap, kHigh
  /// at the cap but exempt from the saturation admission lottery.
  /// `client` requests book into the per-priority counters; internal
  /// traffic (replication) books sheds into replication_sheds instead.
  std::optional<Duration> Admit(Duration service, RequestPriority priority,
                                bool client = true);

  /// Applies a write locally and fans out to the replica set of `pid`.
  void ApplyAndReplicate(PartitionId pid, const WalRecord& record, AckMode ack,
                         std::function<void(Status)> respond);

  /// The replication half shared by single and batched writes: fans an
  /// already-applied record out to pid's secondaries and invokes `respond`
  /// per `ack` (immediately for kPrimary, on sufficient acks otherwise).
  void ReplicateAndAck(PartitionId pid, const WalRecord& record, AckMode ack,
                       std::function<void(Status)> respond);

  /// Drains the engine's accrued simulated disk latency (page faults,
  /// forced write-backs) into busy time; returns the amount so read paths
  /// can also delay their response by it. Zero for the RAM engine.
  Duration ChargeEngineIo();

  /// Extends busy_until_ by `amount` of work from `now` and books the busy
  /// time (single writer: the owner worker).
  void AccrueBusy(Time now, Duration amount);

  void EnqueueReplication(PartitionId pid, NodeId to, const WalRecord& record,
                          const std::shared_ptr<WriteWaiter>& waiter);
  void FlushStream(PartitionId pid, NodeId to);
  void SendBatch(PartitionId pid, NodeId to, ReplicationStream* stream);
  void HeartbeatTick();

  /// True while this node leads `pid` and `to` is still in its replica
  /// set. A stream whose target was dropped (re-replication removed a dead
  /// node) or whose leadership moved is torn down instead of
  /// retransmitting forever.
  bool StreamStillValid(PartitionId pid, NodeId to) const;
  /// Cancels the stream's retry timer, fails its unmet waiters with
  /// kUnavailable, and erases it.
  void TearDownStream(PartitionId pid, NodeId to);

  // On the threaded backend all of this node's handlers and timers run on
  // its one owner worker (pinned delivery + worker-affine timers), so the
  // node body needs no lock. The exceptions — fields read live by OTHER
  // threads through ClusterState::NodeLoad / liveness checks — are
  // atomics: alive_, busy_until_, and the smoothed load-signal components.
  NodeId id_;
  Executor* loop_;
  MessageFabric* network_;
  ClusterState* cluster_;
  NodeConfig config_;
  std::unique_ptr<EngineInterface> engine_;
  Rng rng_;
  std::atomic<bool> alive_{true};

  std::atomic<double> background_utilization_{0};
  std::atomic<Time> busy_until_{0};
  NodeStats stats_;
  LogHistogram sojourn_;
  // Smoothed load-signal components (see load_signal()); single writer
  // (the owner worker), racing readers via load_signal().
  std::atomic<double> ewma_sojourn_{0};
  std::atomic<double> shed_ewma_{0};

  std::map<StreamKey, ReplicationStream> streams_;
  // Secondary-side per-stream state.
  std::map<StreamKey, uint64_t> last_applied_seq_;
  std::map<PartitionId, Time> replicated_through_;

  Executor::TaskId heartbeat_event_ = Executor::kInvalidTask;
};

}  // namespace scads

#endif  // SCADS_CLUSTER_NODE_H_
