// StorageNode: one simulated server.
//
// Wraps a StorageEngine with (a) a service-time queueing model, so latency
// rises as utilization approaches 1 — the signal the Director's ML models
// learn from; and (b) reliable asynchronous replication (sequence-numbered
// log shipping with cumulative acks and retransmission), which gives the
// bounded-staleness and durability behaviours of paper §3.3.
//
// Replication runs on one channel per destination node. A channel holds one
// lane per partition: the lane numbers its records, takes cumulative acks
// and keeps one batch in flight. The channel ships every ready lane in one
// message of at most kReplicationBatchMax records, which the secondary
// answers with one message of per-lane acks, and it owns one retry timer,
// one async flush window and one watermark heartbeat per tick.
//
// Writes have one handler, HandleMultiWrite: a single-key write is a
// one-item batch. A batch's service is its group commit on the primary
// (apply plus one WAL sync). The primary checks each item's condition,
// applies the batch and puts its records on the lanes when the service
// starts, so the commit runs while the secondaries apply them, as a
// consensus leader writes its own disk in parallel with replicating; the
// reply goes out once the service has ended and the ack level is met.
//
// The node serves one FIFO (busy_until_), but a long request, one whose
// service exceeds a 320 us quantum, enters it a quantum at a time: a
// multi-key read, a channel message or a delta-sync reply waits in the
// node's long queue, and its next quantum joins the FIFO when the one
// before it ends, so a point read (120 us) or a write (180 us) that
// arrives meanwhile waits behind at most one quantum. The request's step
// (engine read and reply, or apply and ack) runs when its last quantum
// ends, and its sojourn is recorded then. The long queue serves multi-key
// reads before replication, unless a message has waited half the
// replication retry base (25 ms), or its quanta, after those of the
// replication ahead of it and each behind the most other work allowed,
// could end too late for its ack to reach the primary before the primary
// resends it. Once more than four quanta of other work are queued, every
// queued long request joins the FIFO whole, in arrival order: an
// overloaded node serves plain FIFO until its backlog drains, and long
// work cannot starve. A long request is shed or admitted whole at arrival,
// and it is admitted whole under declared background utilization. Writes
// never enter in quanta: a batch is one group commit.
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
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/execution_backend.h"
#include "storage/engine.h"
#include "storage/pagestore/page_store.h"

namespace scads {

/// How many replicas must acknowledge a write before the client is told it
/// committed (paper §3.3.1, durability vs latency). The primary's own
/// commit, the end of the write's service, always counts as one of them.
enum class AckMode {
  kPrimary,  ///< Primary committed it; replication continues asynchronously.
  kQuorum,   ///< Primary committed it and enough secondaries applied it to
             ///< make a majority of the replica set.
  kAll,      ///< Primary committed it and every secondary applied it.
};

/// Per-node service model and replication tunables.
struct NodeConfig {
  Duration get_service_time = 120;            ///< us of CPU per point read.
  /// us per write: the primary's commit (apply plus WAL sync). It overlaps
  /// the replica round trip, since the write ships when it starts.
  Duration put_service_time = 180;
  Duration scan_service_base = 150;           ///< us per scan request.
  Duration scan_service_per_row = 4;          ///< us per row returned.
  Duration replicate_service_per_record = 40; ///< us per replicated record.
  /// us per key after the first in a batched read: request parsing,
  /// dispatch, and the syscall are paid once, the probes share traversal
  /// state, so the marginal key is far cheaper than a standalone get.
  Duration multiget_service_per_key = 25;
  /// us per record after the first in a batched write (group commit
  /// amortizes the WAL sync the same way). The batch's commit overlaps its
  /// replica round trips like a single write's.
  Duration multiwrite_service_per_record = 60;
  /// Overload shedding: requests that would wait longer than this are
  /// rejected immediately with kResourceExhausted. kLow work sheds at half
  /// of it (see StorageNode::Admit).
  Duration max_queue_delay = 2 * kSecond;
  /// Async replication batching window: a kPrimary write's records ship
  /// with their channel's next message, at the latest this long after they
  /// reach a lane with nothing in flight.
  Duration replication_flush_interval = 2 * kMillisecond;
  /// Each channel carries its idle lanes' watermarks in one heartbeat at
  /// this period, so staleness bounds stay measurable without writes. 0
  /// disables the timer (large fleet simulations with rf=1 need no
  /// watermarks).
  Duration watermark_heartbeat = 500 * kMillisecond;
  /// Larger-than-memory tier: when paged_storage.enabled the node runs a
  /// PagedEngine (B+-tree memtable over a paged cold tier) instead of the
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
  /// Inbound replication messages shed under overload (the primary
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

/// Response to one item of a batched write: its status plus, when the item
/// asked for it, the record the write replaced (tombstones included; empty
/// when the key held nothing).
struct WriteReply {
  Status status;
  std::optional<Record> prior;
};

/// A write's compare-and-set precondition (serializable writes): the key's
/// live record must carry `version`; with no version, the key must hold no
/// live record (absent or tombstoned).
struct WriteCondition {
  std::optional<Version> version;
};

/// One mutation of a batched write; the partition id rides along because a
/// node-batch may span every partition the node is primary for.
struct MultiWriteItem {
  PartitionId pid = -1;
  WalRecord record;
  /// Ask for the record this write replaces (WriteReply::prior).
  bool return_prior = false;
  /// Compare-and-set: apply only when the condition holds.
  std::optional<WriteCondition> condition;
};

/// A record on the replication lanes: one immutable copy per write, held by
/// every secondary's lane and every message that ships it. A batched
/// write's records share one block, which their copies alias.
using SharedRecord = std::shared_ptr<const WalRecord>;

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
  /// assumed. (The primary's channels retransmit forever too, but their
  /// backoff has decayed to 1s ticks by recovery time; the pull makes
  /// recovery time bounded by one round trip + apply.)
  void StartRecovery();

  // --- request handlers -----------------------------------------------
  //
  // Every request handler takes the request's RequestPriority so admission
  // can shed kLow work first under overload.

  /// Point reads, one key or a batch: one admission (base get cost + a
  /// smaller marginal cost per extra key) and one engine MultiGet over the
  /// whole key set, after the batch's last quantum when its service
  /// exceeds one. Under overload every key reports kResourceExhausted so
  /// the router can redirect the sub-batch.
  void HandleMultiGet(std::vector<std::string> keys, RequestPriority priority,
                      std::function<void(MultiGetReply)> respond);

  /// Writes (puts or tombstones), one item or a batch: one group commit (a
  /// WAL sync for the whole batch) is the batch's service. When it starts,
  /// each item that asks for its prior record or carries a condition reads
  /// that record, in the same step that applies the batch, so it is the
  /// write's exact predecessor. A conditioned item answers kAborted, and
  /// neither applies nor ships, when its condition (compare-and-set) fails
  /// on that read or its stamp is not newer than the key's record (the
  /// engine would drop it as superseded). The rest apply, and their
  /// records go out on the lanes of their partitions. `respond` fires once
  /// with a reply per item, at the later of the commit's end and the
  /// replica ack that completes the requested level for the last item, so
  /// a kQuorum or kAll write waits for the later of its commit and its
  /// replica acks, not their sum. This node must be primary for every
  /// item's partition. A node that dies before its commit ends never
  /// answers, though the batch may have reached the secondaries.
  void HandleMultiWrite(std::vector<MultiWriteItem> items, AckMode ack,
                        RequestPriority priority,
                        std::function<void(std::vector<WriteReply>)> respond);

  /// Range read [start, end) with limit.
  void HandleScan(const std::string& start, const std::string& end, size_t limit,
                  RequestPriority priority,
                  std::function<void(Result<std::vector<Record>>)> respond);

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

  /// Current queue backlog in microseconds of work: the FIFO's plus the
  /// long queue's service not yet in the FIFO.
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
  // One partition's run of a batched write, waiting on the replica acks it
  // still needs.
  struct WriteWaiter {
    int remaining = 0;
    std::function<void(Status)> respond;
    bool done = false;
  };

  // One unacked record on a lane. The record is one immutable copy shared
  // by every secondary's lane and every (re)transmission; `enqueued_at` is
  // the watermark a lane batch ending at this entry carries.
  struct LaneEntry {
    uint64_t seq = 0;
    Time enqueued_at = 0;
    SharedRecord record;
  };

  // One partition's reliable, ordered, at-least-once stream of records to
  // one secondary, with a window of one batch in flight. Seqs are never
  // reused: the secondary skips a seq it has already applied.
  struct Lane {
    std::deque<LaneEntry> pending;  // unacked, in seq order
    uint64_t next_seq = 1;
    uint64_t acked = 0;
    uint64_t sent_through = 0;
    bool inflight = false;
    Time sent_at = 0;  // when the batch in flight went out
    // Waiters blocked on this lane reaching a given seq, in seq order.
    std::vector<std::pair<uint64_t, std::shared_ptr<WriteWaiter>>> waiters;
  };

  // Every lane from this node to one destination node. One retry timer is
  // due at the oldest in-flight lane's send time plus the backoff; it may
  // fire early, and then re-arms.
  struct Channel {
    std::map<PartitionId, Lane> lanes;
    Duration retry_delay = 0;  // the backoff; 0 until a retransmit doubles it
    Executor::TaskId retry_event = Executor::kInvalidTask;
    bool flush_scheduled = false;  // the async flush window is open
    bool flush_listed = false;     // on flush_list_, for the end of the step
  };

  // Wire forms of a channel message and its ack (defined in node.cc).
  struct ChannelMessage;
  struct ChannelAck;
  // A request in the long queue (defined in node.cc).
  struct LongRequest;

  using LaneKey = std::pair<PartitionId, NodeId>;  // (partition, primary)

  /// Admission + FIFO queue: reserves `service` capacity, returns total
  /// sojourn (wait+service), or nullopt when shedding. Priority steers the
  /// shed order: kLow sheds at half the queue cap
  /// (and outright under background saturation), kNormal at the cap, kHigh
  /// at the cap but exempt from the saturation admission lottery.
  /// `client` requests book into the per-priority counters; internal
  /// traffic (replication) books sheds into replication_sheds instead.
  /// With `in_quanta`, a request longer than a quantum on a node with no
  /// declared background utilization waits behind the long backlog too and
  /// reserves nothing: Admit sets *in_quanta and the caller hands the
  /// request to QueueLong, whose tick records its sojourn when its last
  /// quantum ends.
  std::optional<Duration> Admit(Duration service, RequestPriority priority,
                                bool client = true, bool* in_quanta = nullptr);
  /// Adds a served request's sojourn to the histogram and the smoothed
  /// sojourn of the load signal.
  void RecordSojourn(Duration sojourn);

  /// Puts an admitted long request in the long queue with `service` to
  /// serve, and feeds the FIFO.
  void QueueLong(Duration service, LongRequest request);
  /// Commits long work to the FIFO: every queued request whole, in arrival
  /// order, once more than four quanta of other work are queued; otherwise
  /// the next quantum, once the last one has ended. Then arms the tick.
  void FeedLong(Time now);
  /// Commits `amount` of `request`'s service to the FIFO.
  void CommitLong(LongRequest& request, Duration amount, Time now);
  /// Arms the long queue's one timer for its next quantum end, unless it
  /// is armed.
  void ArmLongTick(Time now);
  /// The timer: runs the steps whose last quantum has ended, then feeds
  /// the FIFO.
  void LongTick();

  /// The steps of the long-capable requests, run when their service ends.
  void ServeMultiGet(const std::vector<std::string>& keys,
                     std::function<void(MultiGetReply)> respond);
  void ApplyMessage(NodeId from, const ChannelMessage& message);
  void ApplyDeltaSync(PartitionId pid, const std::vector<WalRecord>& records, Time watermark);

  /// The replication half of a write: puts `count` already-applied records
  /// of `pid` (`record_at(i)` yields the i-th) on the lane to each of pid's
  /// secondaries, and invokes `respond` per `ack`: at once for kPrimary,
  /// otherwise at the last replica ack the ack level needs. One waiter
  /// covers all `count` records, since a cumulative ack of the last one
  /// acks the rest. A kQuorum or kAll write lists its channels for
  /// FlushListed; a kPrimary one opens their async flush window.
  template <typename RecordAt>
  void ReplicateAndAck(PartitionId pid, size_t count, RecordAt record_at, AckMode ack,
                       std::function<void(Status)> respond);

  /// Marks `waiter` done and answers it with `status`.
  void Answer(const std::shared_ptr<WriteWaiter>& waiter, Status status);

  /// Drains the engine's accrued simulated disk latency (page faults,
  /// forced write-backs) into busy time; returns the amount so read paths
  /// can also delay their response by it. Zero for the RAM engine.
  Duration ChargeEngineIo();

  /// Extends busy_until_ by `amount` of work from `now` and books the busy
  /// time (single writer: the owner worker).
  void AccrueBusy(Time now, Duration amount);

  /// Ships the channels the step's kQuorum and kAll records touched, once
  /// each, at the end of a write's apply step.
  void FlushListed();
  /// Ships every ready lane of the channel to `to` (unacked records, no
  /// batch in flight), packing lanes into messages of at most
  /// kReplicationBatchMax records.
  void SendReady(NodeId to, Channel& channel);
  /// Sends one channel message to `to`.
  void Ship(NodeId to, ChannelMessage message);
  /// Arms the channel's retry timer for its oldest in-flight lane, unless
  /// one is armed. On a dead node it is due one backoff from now, so it
  /// keeps ticking until the node revives.
  void ArmRetry(NodeId to, Channel& channel);
  /// The retry timer: resends every in-flight lane whose backoff has
  /// passed, then re-arms.
  void RetryTick(NodeId to);
  void HeartbeatTick();

  /// Replication message arrival (secondary side). Applies each lane's
  /// records with seqs past the last applied one, advances the lanes'
  /// watermarks, and answers with one message of cumulative acks for the
  /// lanes that carried records (a heartbeat's answer carries none, but
  /// still proves this node alive).
  void HandleReplicate(NodeId from, ChannelMessage message);
  /// Ack arrival (primary side).
  void HandleReplicateAck(NodeId from, ChannelAck ack);

  /// True while this node leads `pid` and `to` is still in its replica
  /// set. A lane whose target was dropped (re-replication removed a dead
  /// node) or whose leadership moved is torn down instead of
  /// retransmitting forever.
  bool LaneStillValid(PartitionId pid, NodeId to) const;
  /// Fails the lane's unmet waiters with kUnavailable and drops its unacked
  /// records; its seqs carry on.
  void TearDownLane(Lane& lane);

  // On the threaded backend all of this node's handlers and timers run on
  // its one owner worker (pinned delivery + worker-affine timers), so the
  // node body needs no lock. The exceptions — fields read live by OTHER
  // threads through ClusterState::NodeLoad / liveness checks — are
  // atomics: alive_, busy_until_, long_backlog_, and the smoothed
  // load-signal components.
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
  // The long queue: requests in arrival order, each with service left to
  // commit or waiting for its last quantum to end; when the latest quantum
  // ends; whether the tick is armed; and the service left to commit.
  std::vector<LongRequest> long_queue_;
  Time quantum_end_ = 0;
  bool long_tick_armed_ = false;
  std::atomic<Duration> long_backlog_{0};
  NodeStats stats_;
  LogHistogram sojourn_;
  // Smoothed load-signal components (see load_signal()); single writer
  // (the owner worker), racing readers via load_signal().
  std::atomic<double> ewma_sojourn_{0};
  std::atomic<double> shed_ewma_{0};

  std::map<NodeId, Channel> channels_;  // by destination
  // Channels listed by the current write step (capacity kept across steps).
  std::vector<NodeId> flush_list_;
  // Secondary-side per-lane state.
  std::map<LaneKey, uint64_t> last_applied_seq_;
  std::map<PartitionId, Time> replicated_through_;

  Executor::TaskId heartbeat_event_ = Executor::kInvalidTask;
};

}  // namespace scads

#endif  // SCADS_CLUSTER_NODE_H_
