#include "cluster/node.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/strings.h"
#include "storage/pagestore/paged_engine.h"

namespace scads {

namespace {
// Unacked replication batches retransmit after kReplicationRetryBase,
// doubling up to kMaxRetryDelay under sustained partition.
constexpr Duration kReplicationRetryBase = 50 * kMillisecond;
constexpr Duration kMaxRetryDelay = kSecond;
// Max records per replication message, over all its lanes, so one message
// costs a secondary at most this many record applies.
constexpr size_t kReplicationBatchMax = 128;
// Priority admission: kLow work is shed once the queue backlog exceeds
// this fraction of max_queue_delay, so an overloaded node drops background
// traffic before it queues kNormal/kHigh work (the paper's per-request
// performance dial, enforced server-side).
constexpr double kLowPriorityShedFraction = 0.5;
// Smoothing factor for the load-signal EWMAs (sojourn, shed fraction).
constexpr double kLoadEwmaAlpha = 0.2;
// A request whose service exceeds this enters the FIFO a quantum at a time.
constexpr Duration kQuantum = 320;
// Past this much other work queued, long work enters the FIFO whole.
constexpr Duration kShortWorkCap = 4 * kQuantum;
// Outside a fallback a quantum waits behind at most kShortWorkCap of other
// work, so a long request's next quantum ends within this of its last.
constexpr Duration kLongCycle = kQuantum + kShortWorkCap;
// A replication message that has waited this long goes before multi-key
// reads.
constexpr Duration kReplicationPatience = kReplicationRetryBase / 2;
// A message applied within this of its arrival is acked before its primary
// resends it; the rest of the retry base covers the message's trip and the
// ack's.
constexpr Duration kReplicationDeadline = kReplicationRetryBase - 2 * kMillisecond;

// A list whose first element lives inline: a channel message or ack with
// one lane, the common case, takes no heap vector.
template <typename T>
class InlineFirstList {
 public:
  size_t size() const { return size_; }
  const T& operator[](size_t i) const { return i == 0 ? first_ : rest_[i - 1]; }
  void reserve(size_t n) {
    if (n > 1) rest_.reserve(n - 1);
  }
  void push_back(const T& value) {
    if (size_++ == 0) {
      first_ = value;
    } else {
      rest_.push_back(value);
    }
  }

 private:
  T first_{};
  std::vector<T> rest_;
  size_t size_ = 0;
};

// One lane's part of a channel message: `count` records from `first_seq`
// on (the message's next `count` records) and the watermark they prove. A
// heartbeat lane carries no records.
struct LaneBatch {
  PartitionId pid = -1;
  uint32_t count = 0;
  uint64_t first_seq = 0;
  Time watermark = 0;
};

// One lane's cumulative ack: every seq through `seq` is applied.
struct LaneAck {
  PartitionId pid = -1;
  uint64_t seq = 0;
};

Duration RetryDelayOf(Duration backoff) {
  return backoff == 0 ? kReplicationRetryBase : backoff;
}

int AcksNeeded(AckMode ack, size_t replica_count) {
  switch (ack) {
    case AckMode::kPrimary:
      return 1;
    case AckMode::kQuorum:
      return static_cast<int>(replica_count / 2 + 1);
    case AckMode::kAll:
      return static_cast<int>(replica_count);
  }
  return 1;
}
}  // namespace

// Lane batches in partition order, their records back to back.
struct StorageNode::ChannelMessage {
  InlineFirstList<LaneBatch> lanes;
  std::vector<SharedRecord> records;
};

struct StorageNode::ChannelAck {
  InlineFirstList<LaneAck> lanes;
};

struct StorageNode::LongRequest {
  struct Read {
    std::vector<std::string> keys;
    std::function<void(MultiGetReply)> respond;
  };
  struct Message {
    NodeId from = -1;
    ChannelMessage message;
  };
  struct DeltaSync {
    PartitionId pid = -1;
    std::vector<WalRecord> records;
    Time watermark = 0;
  };

  Time arrived = 0;
  Duration remaining = 0;  // service not yet committed to the FIFO
  Time ends_at = 0;        // end of its latest piece in the FIFO
  std::variant<Read, Message, DeltaSync> step;
};

StorageNode::StorageNode(NodeId id, Executor* exec, MessageFabric* network, ClusterState* cluster,
                         NodeConfig config, uint64_t seed)
    : id_(id),
      loop_(exec),
      network_(network),
      cluster_(cluster),
      config_(config),
      rng_(seed ^ 0xab54a98ceb1f0ad2ULL) {
  if (config_.paged_storage.enabled) {
    PagedEngineOptions engine_options;
    engine_options.config = config_.paged_storage;
    engine_ = std::make_unique<PagedEngine>(loop_, std::move(engine_options));
  } else {
    engine_ = std::make_unique<StorageEngine>();
  }
}

StorageNode::~StorageNode() { Stop(); }

void StorageNode::set_alive(bool alive) {
  const bool was_alive = alive_.exchange(alive, std::memory_order_acq_rel);
  if (alive && !was_alive) {
    // Records whose flush window closed while the node was dead ship now;
    // batches in flight resend on their channel's next retry tick, which
    // kept ticking through the outage.
    for (auto& [to, channel] : channels_) SendReady(to, channel);
    StartRecovery();
  }
}

void StorageNode::Start() {
  if (heartbeat_event_ != Executor::kInvalidTask) return;
  if (config_.watermark_heartbeat <= 0) return;
  heartbeat_event_ =
      loop_->SchedulePeriodic(config_.watermark_heartbeat, [this] { HeartbeatTick(); });
}

void StorageNode::Stop() {
  if (heartbeat_event_ != Executor::kInvalidTask) {
    loop_->Cancel(heartbeat_event_);
    heartbeat_event_ = Executor::kInvalidTask;
  }
  for (auto& [to, channel] : channels_) {
    if (channel.retry_event != Executor::kInvalidTask) {
      loop_->Cancel(channel.retry_event);
      channel.retry_event = Executor::kInvalidTask;
    }
  }
}

Duration StorageNode::queue_delay() const {
  return std::max<Duration>(0, busy_until_.load(std::memory_order_relaxed) - loop_->Now()) +
         long_backlog_.load(std::memory_order_relaxed);
}

void StorageNode::InjectBackgroundLoad(Duration service_demand) {
  if (!alive_ || service_demand <= 0) return;
  // Saturation cap: a node can at most accumulate max_queue_delay of
  // backlog; beyond that, real traffic would be shed, so excess background
  // demand is dropped the same way.
  Time now = loop_->Now();
  Duration backlog = std::max<Duration>(0, busy_until_.load(std::memory_order_relaxed) - now);
  Duration admissible = std::max<Duration>(0, config_.max_queue_delay + service_demand / 4 -
                                                  backlog);
  Duration charged = std::min(service_demand, admissible);
  if (charged <= 0) {
    stats_.ops_shed += service_demand / std::max<Duration>(1, config_.get_service_time);
    return;
  }
  AccrueBusy(now, charged);
}

std::optional<Duration> StorageNode::Admit(Duration service, RequestPriority priority,
                                           bool client, bool* in_quanta) {
  Time now = loop_->Now();
  Duration wait = std::max<Duration>(0, busy_until_.load(std::memory_order_relaxed) - now);
  double rho = background_utilization_.load(std::memory_order_relaxed);
  const bool sliced = in_quanta != nullptr && service > kQuantum && rho <= 0;
  if (sliced) wait += long_backlog_.load(std::memory_order_relaxed);
  const int pclass = static_cast<int>(priority);
  auto shed = [this, pclass, client]() {
    ++stats_.ops_shed;
    if (client) {
      ++stats_.shed_by_priority[pclass];
    } else {
      ++stats_.replication_sheds;
    }
    double shed_now = shed_ewma_.load(std::memory_order_relaxed);
    shed_ewma_.store(shed_now + kLoadEwmaAlpha * (1.0 - shed_now), std::memory_order_relaxed);
  };
  // Priority shed order: kLow gives up well before the hard cap, so an
  // overloaded node clears background work while kNormal/kHigh still queue.
  Duration shed_at = config_.max_queue_delay;
  if (priority == RequestPriority::kLow) {
    shed_at = static_cast<Duration>(static_cast<double>(config_.max_queue_delay) *
                                    kLowPriorityShedFraction);
  }
  // Background (unsampled) traffic: M/M/1-style delay rising steeply as
  // utilization approaches 1; past saturation the overload fraction sheds.
  if (rho > 0) {
    if (rho >= 0.99) {
      // Saturated: kLow sheds outright, kNormal survives an admission
      // lottery matching remaining capacity, kHigh is always queued (it
      // still pays the heavy wait below).
      if (priority == RequestPriority::kLow) {
        shed();
        return std::nullopt;
      }
      double admit_probability = 1.0 / std::max(1.01, rho);
      if (priority != RequestPriority::kHigh && !rng_.Bernoulli(admit_probability)) {
        shed();
        return std::nullopt;
      }
      wait += config_.max_queue_delay / 2 +
              static_cast<Duration>(rng_.Exponential(
                  static_cast<double>(config_.max_queue_delay) / 4));
    } else {
      double mean_wait = rho / (1.0 - rho) * static_cast<double>(service);
      if (mean_wait >= 1.0) wait += static_cast<Duration>(rng_.Exponential(mean_wait));
    }
  }
  if (wait > shed_at) {
    shed();
    return std::nullopt;
  }
  if (client) ++stats_.admitted_by_priority[pclass];
  shed_ewma_.store(shed_ewma_.load(std::memory_order_relaxed) * (1.0 - kLoadEwmaAlpha),
                   std::memory_order_relaxed);
  Duration sojourn = wait + service;
  if (sliced) {
    // Its sojourn is known, and recorded, when its last quantum ends.
    *in_quanta = true;
    return sojourn;
  }
  AccrueBusy(now, service);
  // Short work past the cap sends the queued long work to the FIFO.
  if (long_backlog_.load(std::memory_order_relaxed) > 0) FeedLong(now);
  RecordSojourn(sojourn);
  return sojourn;
}

void StorageNode::RecordSojourn(Duration sojourn) {
  sojourn_.Record(sojourn);
  double ewma = ewma_sojourn_.load(std::memory_order_relaxed);
  ewma_sojourn_.store(ewma + kLoadEwmaAlpha * (static_cast<double>(sojourn) - ewma),
                      std::memory_order_relaxed);
}

NodeLoadSignal StorageNode::load_signal() const {
  // Read concurrently by client threads via ClusterState::NodeLoad; every
  // field here comes from an atomic (or, for io_backlog, a counter only
  // the RAM engine exposes as a constant 0 — the paged engine is
  // simulator-only for now).
  NodeLoadSignal signal;
  signal.queue_delay = queue_delay();
  signal.ewma_sojourn = static_cast<Duration>(ewma_sojourn_.load(std::memory_order_relaxed));
  signal.utilization = background_utilization_.load(std::memory_order_relaxed);
  signal.shed_fraction = shed_ewma_.load(std::memory_order_relaxed);
  signal.io_backlog = engine_->io_backlog();
  return signal;
}

void StorageNode::AccrueBusy(Time now, Duration amount) {
  busy_until_.store(std::max(busy_until_.load(std::memory_order_relaxed), now) + amount,
                    std::memory_order_relaxed);
  stats_.busy_micros += amount;
}

Duration StorageNode::ChargeEngineIo() {
  Duration io = engine_->TakeAccruedIo();
  if (io > 0) AccrueBusy(loop_->Now(), io);
  return io;
}

void StorageNode::SetBackgroundLoad(double utilization, Duration busy_account) {
  if (!alive_) return;
  background_utilization_.store(std::max(0.0, utilization), std::memory_order_relaxed);
  // Busy time accrues at most at capacity.
  stats_.busy_micros += std::min(busy_account, static_cast<Duration>(
                                                   static_cast<double>(busy_account) /
                                                   std::max(1.0, utilization)));
}

void StorageNode::HandleMultiGet(std::vector<std::string> keys, RequestPriority priority,
                                 std::function<void(MultiGetReply)> respond) {
  if (!alive_) return;
  Duration service =
      config_.get_service_time +
      config_.multiget_service_per_key *
          static_cast<Duration>(keys.empty() ? 0 : keys.size() - 1);
  bool in_quanta = false;
  std::optional<Duration> sojourn = Admit(service, priority, /*client=*/true, &in_quanta);
  if (!sojourn.has_value()) {
    // Shed the whole batch, per key, so the router can redirect it.
    MultiGetReply reply;
    reply.results.assign(keys.size(),
                         Result<Record>(ResourceExhaustedError("node overloaded")));
    reply.as_of.assign(keys.size(), 0);
    respond(std::move(reply));
    return;
  }
  if (in_quanta) {
    QueueLong(service, {.step = LongRequest::Read{std::move(keys), std::move(respond)}});
    return;
  }
  loop_->ScheduleAfter(*sojourn,
                       [this, keys = std::move(keys), respond = std::move(respond)]() mutable {
                         if (alive_) ServeMultiGet(keys, std::move(respond));
                       });
}

void StorageNode::ServeMultiGet(const std::vector<std::string>& keys,
                                std::function<void(MultiGetReply)> respond) {
  MultiGetReply reply;
  reply.results = engine_->MultiGet(keys);
  reply.as_of.reserve(keys.size());
  for (const std::string& key : keys) {
    // Serve-time watermark, per key: sub-batches may span partitions with
    // different replication progress.
    reply.as_of.push_back(replicated_through(cluster_->partitions()->ForKey(key).id));
  }
  Duration io = ChargeEngineIo();
  if (io <= 0) {
    stats_.ops_completed += static_cast<int64_t>(keys.size());
    respond(std::move(reply));
    return;
  }
  loop_->ScheduleAfter(io, [this, count = keys.size(), reply = std::move(reply),
                            respond = std::move(respond)]() mutable {
    if (!alive_) return;
    stats_.ops_completed += static_cast<int64_t>(count);
    respond(std::move(reply));
  });
}

void StorageNode::Answer(const std::shared_ptr<WriteWaiter>& waiter, Status status) {
  waiter->done = true;
  waiter->respond(std::move(status));
}

void StorageNode::HandleMultiWrite(std::vector<MultiWriteItem> items, AckMode ack,
                                   RequestPriority priority,
                                   std::function<void(std::vector<WriteReply>)> respond) {
  if (!alive_) return;
  if (items.empty()) {
    respond({});  // vacuously committed; the ack loop below would never fire
    return;
  }
  Duration service = config_.put_service_time +
                     config_.multiwrite_service_per_record *
                         static_cast<Duration>(items.size() - 1);
  std::optional<Duration> sojourn = Admit(service, priority);
  if (!sojourn.has_value()) {
    respond(std::vector<WriteReply>(items.size(),
                                    {ResourceExhaustedError("node overloaded"), std::nullopt}));
    return;
  }
  // The batch applies and ships when its service (the group commit)
  // starts, and replies once that service has ended too.
  loop_->ScheduleAfter(*sojourn - service, [this, items = std::move(items), ack, service,
                                            respond = std::move(respond)]() mutable {
    if (!alive_) return;
    stats_.ops_completed += static_cast<int64_t>(items.size());
    // The lane entries alias `records`, so the state lives until the last
    // replica acks.
    struct BatchState {
      std::vector<WalRecord> records;  // the items that apply, in item order
      std::vector<WriteReply> replies;
      size_t runs_left = 0;
      Time committed_at = 0;
      std::function<void(std::vector<WriteReply>)> respond;
    };
    auto batch = std::make_shared<BatchState>();
    batch->records.reserve(items.size());
    batch->replies.resize(items.size());
    batch->committed_at = loop_->Now() + service;
    batch->respond = std::move(respond);
    for (size_t i = 0; i < items.size(); ++i) {
      MultiWriteItem& item = items[i];
      WriteReply& reply = batch->replies[i];
      // Read in the step that applies the batch: the primary serializes
      // its partitions' writers, so no other write lands in between, and a
      // condition checked here holds when the item applies. No extra
      // service time, since a put already locates its key to check the
      // version.
      if (item.return_prior || item.condition.has_value()) {
        reply.prior = engine_->GetRaw(item.record.key);
        ChargeEngineIo();  // the read may fault the covering page
      }
      if (item.condition.has_value()) {
        const std::optional<Record>& prior = reply.prior;
        bool live = prior.has_value() && !prior->tombstone;
        if (item.condition->version.has_value() &&
            !(live && prior->version == *item.condition->version)) {
          reply.status = AbortedError("version mismatch");
        } else if (!item.condition->version.has_value() && live) {
          reply.status = AbortedError("key already exists");
        } else if (prior.has_value() && !(item.record.version > prior->version)) {
          // The engine would drop this write as superseded (say, behind a
          // newer tombstone): a CAS must not report a write it did not make.
          reply.status = AbortedError("superseded by a newer version");
        }
        // A lost CAS returns no prior; one that holds read it only to check.
        if (!reply.status.ok() || !item.return_prior) reply.prior.reset();
      }
      if (reply.status.ok()) batch->records.push_back(std::move(item.record));
    }
    // Group commit: one WAL sync covers every record of the batch.
    Status applied = engine_->ApplyBatch(batch->records);
    ChargeEngineIo();  // write-path faults/forced write-backs: busy time only
    auto applies = [&batch](size_t i) { return batch->replies[i].status.ok(); };
    if (!applied.ok()) {
      for (WriteReply& reply : batch->replies) {
        if (reply.status.ok()) reply.status = applied;
      }
    }
    // A run is a stretch of items whose applied ones share a partition (an
    // aborted item ships nothing); its records go out on that partition's
    // lanes under one waiter. The batch responds when every run has reached
    // the requested ack level and the group commit has ended (a crash
    // before then loses the reply). It holds one count itself until every
    // run is out, since a run that needs no replica ack settles at once.
    auto settle = [this, batch] {
      if (--batch->runs_left > 0) return;
      if (loop_->Now() >= batch->committed_at) return batch->respond(std::move(batch->replies));
      loop_->ScheduleAt(batch->committed_at, [this, batch] {
        if (alive_) batch->respond(std::move(batch->replies));
      });
    };
    batch->runs_left = 1;
    for (size_t begin = 0, record = 0; begin < items.size();) {
      if (!applies(begin)) {
        ++begin;
        continue;
      }
      size_t end = begin + 1;
      size_t count = 1;
      for (; end < items.size() && (!applies(end) || items[end].pid == items[begin].pid); ++end) {
        if (applies(end)) ++count;
      }
      ++batch->runs_left;
      ReplicateAndAck(
          items[begin].pid, count,
          [&batch, record](size_t i) { return SharedRecord(batch, &batch->records[record + i]); },
          ack, [batch, begin, end, settle](const Status& status) {
            for (size_t i = begin; i < end; ++i) {
              if (batch->replies[i].status.ok()) batch->replies[i].status = status;
            }
            settle();
          });
      begin = end;
      record += count;
    }
    FlushListed();
    settle();
  });
}

void StorageNode::HandleScan(const std::string& start, const std::string& end, size_t limit,
                             RequestPriority priority,
                             std::function<void(Result<std::vector<Record>>)> respond) {
  if (!alive_) return;
  // Service cost depends on rows returned; we charge after execution by
  // first paying the base, running, then paying per-row (approximating a
  // cursor that streams rows while holding the executor).
  std::optional<Duration> sojourn = Admit(config_.scan_service_base, priority);
  if (!sojourn.has_value()) {
    respond(ResourceExhaustedError("node overloaded"));
    return;
  }
  loop_->ScheduleAfter(*sojourn, [this, start, end, limit, respond = std::move(respond)] {
    if (!alive_) return;
    Result<std::vector<Record>> rows = engine_->Scan(start, end, limit);
    Duration row_cost = 0;
    if (rows.ok()) {
      row_cost = config_.scan_service_per_row * static_cast<Duration>(rows->size());
      AccrueBusy(loop_->Now(), row_cost);
    }
    // Pages faulted while scanning delay the response like row cost does.
    row_cost += ChargeEngineIo();
    loop_->ScheduleAfter(row_cost, [this, rows = std::move(rows),
                                    respond = std::move(respond)]() mutable {
      if (!alive_) return;
      ++stats_.ops_completed;
      respond(std::move(rows));
    });
  });
}

template <typename RecordAt>
void StorageNode::ReplicateAndAck(PartitionId pid, size_t count, RecordAt record_at, AckMode ack,
                                  std::function<void(Status)> respond) {
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition == nullptr) {
    respond(NotFoundError(StrFormat("partition %d", pid)));
    return;
  }
  // The primary's own commit is the one ack AcksNeeded counts it as.
  int needed = AcksNeeded(ack, partition->replicas.size()) - 1;
  std::shared_ptr<WriteWaiter> waiter;
  if (needed > 0) {
    waiter = std::make_shared<WriteWaiter>();
    waiter->remaining = needed;
    waiter->respond = std::move(respond);
  } else {
    respond(Status::Ok());
  }
  const Time now = loop_->Now();
  for (NodeId replica : partition->replicas) {
    if (replica == id_) continue;
    Channel& channel = channels_[replica];
    Lane& lane = channel.lanes[pid];
    for (size_t i = 0; i < count; ++i) lane.pending.push_back({lane.next_seq++, now, record_at(i)});
    if (waiter != nullptr) {
      lane.waiters.emplace_back(lane.next_seq - 1, waiter);
      if (!channel.flush_listed) {
        channel.flush_listed = true;
        flush_list_.push_back(replica);
      }
    } else if (!lane.inflight && !channel.flush_scheduled) {
      // An in-flight lane ships the rest on its ack; otherwise the records
      // wait out the async window, or go sooner with any other flush.
      channel.flush_scheduled = true;
      loop_->ScheduleAfter(config_.replication_flush_interval, [this, to = replica] {
        Channel& window = channels_[to];
        window.flush_scheduled = false;
        SendReady(to, window);
      });
    }
  }
}

void StorageNode::FlushListed() {
  for (NodeId to : flush_list_) {
    Channel& channel = channels_[to];
    channel.flush_listed = false;
    SendReady(to, channel);
  }
  flush_list_.clear();
}

bool StorageNode::LaneStillValid(PartitionId pid, NodeId to) const {
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition == nullptr) return false;
  bool member = std::find(partition->replicas.begin(), partition->replicas.end(), to) !=
                partition->replicas.end();
  if (member && partition->primary() == id_) return true;
  // Topology moved on (leadership transferred, or `to` left the replica
  // set). A LIVE destination still drains the unacked tail — it may be the
  // new primary, and those records are data it needs (WritesDuringMove
  // relies on this). Only a dead or unregistered destination makes further
  // retransmission pointless: its catch-up path is delta-sync on restart,
  // not this lane.
  StorageNode* target = cluster_->GetNode(to);
  return target != nullptr && target->alive();
}

void StorageNode::TearDownLane(Lane& lane) {
  // Unmet waiters fail honestly: the ack they were counting on will never
  // come from this replica (re-replication streams the data to its
  // replacement out of band, but that is a copy, not this write's ack).
  for (auto& [seq, waiter] : lane.waiters) {
    if (!waiter->done) Answer(waiter, UnavailableError("replica removed from partition"));
  }
  lane.waiters.clear();
  lane.pending.clear();
  lane.acked = lane.sent_through = lane.next_seq - 1;
  lane.inflight = false;
}

void StorageNode::SendReady(NodeId to, Channel& channel) {
  if (!alive_) return;
  // A ready lane ships everything it holds past its cumulative ack, up to
  // the cap; a retransmission resends the same prefix.
  size_t ready_lanes = 0;
  size_t ready_records = 0;
  for (auto& [pid, lane] : channel.lanes) {
    if (lane.inflight || lane.pending.empty()) continue;
    if (!LaneStillValid(pid, to)) {
      TearDownLane(lane);
      continue;
    }
    ++ready_lanes;
    ready_records += std::min(lane.pending.size(), kReplicationBatchMax);
  }
  if (ready_lanes == 0) return;
  const Time now = loop_->Now();
  ChannelMessage message;
  message.lanes.reserve(ready_lanes);
  message.records.reserve(std::min(ready_records, kReplicationBatchMax));
  for (auto& [pid, lane] : channel.lanes) {
    if (lane.inflight || lane.pending.empty()) continue;
    const size_t count = std::min(lane.pending.size(), kReplicationBatchMax);
    if (message.records.size() + count > kReplicationBatchMax) {
      // A lane that does not fit goes whole in the next message.
      Ship(to, std::move(message));
      message = ChannelMessage{};
    }
    LaneBatch batch;
    batch.pid = pid;
    batch.count = static_cast<uint32_t>(count);
    batch.first_seq = lane.pending.front().seq;
    batch.watermark = lane.pending[count - 1].enqueued_at;
    for (size_t i = 0; i < count; ++i) message.records.push_back(lane.pending[i].record);
    message.lanes.push_back(batch);
    if (batch.first_seq <= lane.sent_through) ++stats_.retransmits;
    lane.sent_through = batch.first_seq + count - 1;
    lane.inflight = true;
    lane.sent_at = now;
  }
  Ship(to, std::move(message));
  ArmRetry(to, channel);
}

void StorageNode::Ship(NodeId to, ChannelMessage message) {
  stats_.records_replicated_out += static_cast<int64_t>(message.records.size());
  StorageNode* target = cluster_->GetNode(to);
  if (target == nullptr) return;
  int64_t payload_bytes = 0;
  for (const SharedRecord& record : message.records) payload_bytes += WireSize(*record);
  NodeId self = id_;
  network_->Send(self, to, payload_bytes,
                 [target, self, message = std::move(message)]() mutable {
                   target->HandleReplicate(self, std::move(message));
                 });
}

void StorageNode::ArmRetry(NodeId to, Channel& channel) {
  if (channel.retry_event != Executor::kInvalidTask) return;
  Time oldest = std::numeric_limits<Time>::max();
  for (const auto& [pid, lane] : channel.lanes) {
    if (lane.inflight) oldest = std::min(oldest, lane.sent_at);
  }
  if (oldest == std::numeric_limits<Time>::max()) return;
  // A dead node sends nothing, but its timer keeps ticking one backoff at
  // a time, so the first tick after revival resends every unacked lane.
  const Time from = alive_ ? oldest : loop_->Now();
  channel.retry_event = loop_->ScheduleAt(from + RetryDelayOf(channel.retry_delay),
                                          [this, to] { RetryTick(to); });
}

void StorageNode::RetryTick(NodeId to) {
  auto it = channels_.find(to);
  if (it == channels_.end()) return;
  Channel& channel = it->second;
  channel.retry_event = Executor::kInvalidTask;
  if (alive_) {
    const Time now = loop_->Now();
    const Duration delay = RetryDelayOf(channel.retry_delay);
    bool timed_out = false;
    for (auto& [pid, lane] : channel.lanes) {
      if (!lane.inflight || lane.sent_at + delay > now) continue;
      // The batch, or its ack, was lost or shed: send it again.
      lane.inflight = false;
      timed_out = true;
    }
    if (timed_out) {
      channel.retry_delay = std::min(kMaxRetryDelay, 2 * delay);
      SendReady(to, channel);
    }
  }
  ArmRetry(to, channel);
}

void StorageNode::HandleReplicate(NodeId from, ChannelMessage message) {
  if (!alive_) return;
  // Any delivery from `from` is proof of life — the watermark-heartbeat
  // traffic doubles as the failure detector's primary signal (even a shed
  // message was still sent by a live node).
  cluster_->RecordHeartbeat(from, loop_->Now());
  Duration service = config_.replicate_service_per_record *
                     std::max<Duration>(1, static_cast<Duration>(message.records.size()));
  bool in_quanta = false;
  std::optional<Duration> sojourn =
      Admit(service, RequestPriority::kNormal, /*client=*/false, &in_quanta);
  if (!sojourn.has_value()) return;  // shed; primary will retransmit
  if (in_quanta) {
    QueueLong(service, {.step = LongRequest::Message{from, std::move(message)}});
    return;
  }
  loop_->ScheduleAfter(*sojourn, [this, from, message = std::move(message)] {
    if (alive_) ApplyMessage(from, message);
  });
}

void StorageNode::ApplyMessage(NodeId from, const ChannelMessage& message) {
  ChannelAck ack;
  ack.lanes.reserve(message.lanes.size());
  size_t next = 0;  // the message's next record
  for (size_t l = 0; l < message.lanes.size(); ++l) {
    const LaneBatch& batch = message.lanes[l];
    uint64_t& applied = last_applied_seq_[{batch.pid, from}];
    for (uint64_t seq = batch.first_seq; seq < batch.first_seq + batch.count; ++seq, ++next) {
      if (seq <= applied) continue;
      (void)engine_->Apply(*message.records[next]);  // version rule dedups content anyway
      applied = seq;
      ++stats_.records_replicated_in;
    }
    Time& through = replicated_through_[batch.pid];
    through = std::max(through, batch.watermark);
    if (batch.count > 0) ack.lanes.push_back({batch.pid, applied});
  }
  ChargeEngineIo();  // replication-apply faults: busy time only
  // Cumulative acks back to the primary, in one message.
  StorageNode* primary = cluster_->GetNode(from);
  if (primary != nullptr) {
    NodeId self = id_;
    network_->Send(self, from, [primary, self, ack = std::move(ack)]() mutable {
      primary->HandleReplicateAck(self, std::move(ack));
    });
  }
}

void StorageNode::HandleReplicateAck(NodeId from, ChannelAck ack) {
  if (!alive_) return;
  cluster_->RecordHeartbeat(from, loop_->Now());
  auto it = channels_.find(from);
  if (it == channels_.end()) return;
  Channel& channel = it->second;
  bool progressed = false;
  for (size_t l = 0; l < ack.lanes.size(); ++l) {
    auto lane_it = channel.lanes.find(ack.lanes[l].pid);
    if (lane_it == channel.lanes.end()) continue;
    Lane& lane = lane_it->second;
    const uint64_t acked_seq = ack.lanes[l].seq;
    if (acked_seq <= lane.acked) continue;  // stale/duplicate ack
    lane.acked = acked_seq;
    while (!lane.pending.empty() && lane.pending.front().seq <= acked_seq) {
      lane.pending.pop_front();
    }
    // Wake the write waiters this ack satisfies: a seq-ordered prefix.
    auto satisfied = lane.waiters.begin();
    for (; satisfied != lane.waiters.end() && satisfied->first <= acked_seq; ++satisfied) {
      const std::shared_ptr<WriteWaiter>& waiter = satisfied->second;
      if (!waiter->done && --waiter->remaining <= 0) Answer(waiter, Status::Ok());
    }
    lane.waiters.erase(lane.waiters.begin(), satisfied);
    // An ack of an earlier transmission leaves the latest one in flight.
    if (lane.acked >= lane.sent_through) lane.inflight = false;
    progressed = true;
  }
  if (!progressed) return;
  if (channel.retry_delay != 0) {
    // The destination answers again: lanes still in flight wait out the
    // base backoff, not the one a timer was armed with.
    channel.retry_delay = 0;
    if (channel.retry_event != Executor::kInvalidTask) {
      loop_->Cancel(channel.retry_event);
      channel.retry_event = Executor::kInvalidTask;
    }
    ArmRetry(from, channel);
  }
  SendReady(from, channel);
}

void StorageNode::StartRecovery() {
  if (!alive_) return;
  for (PartitionId pid : cluster_->partitions()->PartitionsOnNode(id_)) {
    const PartitionInfo* partition = cluster_->partitions()->Get(pid);
    if (partition == nullptr || partition->primary() == id_) continue;
    StorageNode* primary = cluster_->GetNode(partition->primary());
    if (primary == nullptr) continue;
    Time since = replicated_through(pid);
    NodeId self = id_;
    network_->Send(self, partition->primary(), [primary, pid, self, since] {
      primary->HandleDeltaSyncRequest(pid, self, since);
    });
  }
}

void StorageNode::HandleDeltaSyncRequest(PartitionId pid, NodeId from, Time since) {
  if (!alive_) return;
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition == nullptr || partition->primary() != id_) return;  // stale map; streams cover it
  StorageNode* requester = cluster_->GetNode(from);
  if (requester == nullptr) return;
  // The scan pays admitted service like any range read; recovery traffic
  // must not jump the queue ahead of client work.
  std::optional<Duration> sojourn =
      Admit(config_.scan_service_base, RequestPriority::kNormal, /*client=*/false);
  if (!sojourn.has_value()) return;  // overloaded; the recovering node still has the streams
  loop_->ScheduleAfter(*sojourn, [this, pid, from, since, requester] {
    if (!alive_) return;
    const PartitionInfo* partition = cluster_->partitions()->Get(pid);
    if (partition == nullptr || partition->primary() != id_) return;
    // Everything whose version stamp is at or after the requester's durable
    // watermark. Versions are stamped at write arrival and the watermark is
    // the enqueue time of the last applied record, so >= since is a
    // superset of what was missed (the engine's newer-version rule makes
    // re-application a no-op).
    std::vector<WalRecord> missed;
    int64_t payload_bytes = 0;
    for (const Record& record :
         engine_->ScanRaw(partition->start, partition->end, /*limit=*/0)) {
      if (record.version.timestamp < since) continue;
      WalRecord wal;
      wal.type = record.tombstone ? WalRecord::Type::kDelete : WalRecord::Type::kPut;
      wal.key = record.key;
      wal.value = record.value;
      wal.version = record.version;
      payload_bytes += WireSize(wal);
      missed.push_back(std::move(wal));
    }
    Duration row_cost =
        config_.scan_service_per_row * static_cast<Duration>(missed.size());
    AccrueBusy(loop_->Now(), row_cost);
    ChargeEngineIo();
    ++stats_.delta_syncs_served;
    stats_.delta_records_shipped += static_cast<int64_t>(missed.size());
    Time watermark = loop_->Now();
    NodeId self = id_;
    network_->Send(self, from, payload_bytes,
                   [requester, pid, self, missed = std::move(missed), watermark]() mutable {
                     requester->HandleDeltaSyncResponse(pid, self, std::move(missed), watermark);
                   });
  });
}

void StorageNode::HandleDeltaSyncResponse(PartitionId pid, NodeId from,
                                          std::vector<WalRecord> records, Time watermark) {
  if (!alive_) return;
  cluster_->RecordHeartbeat(from, loop_->Now());
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition == nullptr || partition->primary() != from) return;
  if (std::find(partition->replicas.begin(), partition->replicas.end(), id_) ==
      partition->replicas.end()) {
    return;  // dropped from the set while recovering
  }
  Duration service = config_.replicate_service_per_record *
                     std::max<Duration>(1, static_cast<Duration>(records.size()));
  bool in_quanta = false;
  std::optional<Duration> sojourn =
      Admit(service, RequestPriority::kNormal, /*client=*/false, &in_quanta);
  if (!sojourn.has_value()) return;  // shed; the streams still converge eventually
  if (in_quanta) {
    QueueLong(service, {.step = LongRequest::DeltaSync{pid, std::move(records), watermark}});
    return;
  }
  loop_->ScheduleAfter(*sojourn, [this, pid, records = std::move(records), watermark] {
    if (alive_) ApplyDeltaSync(pid, records, watermark);
  });
}

void StorageNode::ApplyDeltaSync(PartitionId pid, const std::vector<WalRecord>& records,
                                 Time watermark) {
  for (const WalRecord& record : records) {
    (void)engine_->Apply(record);
    ++stats_.records_replicated_in;
  }
  ChargeEngineIo();
  Time& through = replicated_through_[pid];
  through = std::max(through, watermark);
  ++stats_.delta_syncs_completed;
}

void StorageNode::QueueLong(Duration service, LongRequest request) {
  const Time now = loop_->Now();
  request.arrived = now;
  request.remaining = service;
  long_queue_.push_back(std::move(request));
  long_backlog_.store(long_backlog_.load(std::memory_order_relaxed) + service,
                      std::memory_order_relaxed);
  FeedLong(now);
}

void StorageNode::FeedLong(Time now) {
  // Outside a fallback the FIFO holds at most one long piece, the latest
  // quantum; the rest of it is other work. After a fallback the long work
  // committed whole counts as other work, so the node stays plain FIFO
  // until its backlog drains.
  const Duration short_work =
      std::max<Duration>(0, busy_until_.load(std::memory_order_relaxed) - now) -
      std::clamp<Duration>(quantum_end_ - now, 0, kQuantum);
  if (short_work > kShortWorkCap) {
    // Overloaded: plain FIFO, so no long request starves.
    for (LongRequest& request : long_queue_) {
      if (request.remaining > 0) CommitLong(request, request.remaining, now);
    }
  } else if (now >= quantum_end_) {
    // Multi-key reads first, then replication in arrival order, unless a
    // message has run out of patience, or would miss its deadline if a read
    // took this quantum: its quanta and those of the replication ahead of
    // it each take up to a cycle.
    LongRequest* read = nullptr;
    LongRequest* apply = nullptr;
    bool urgent = false;
    int64_t cycles = 1;  // this quantum's
    for (LongRequest& request : long_queue_) {
      if (request.remaining == 0) continue;
      if (std::holds_alternative<LongRequest::Read>(request.step)) {
        if (read == nullptr) read = &request;
        continue;
      }
      if (apply == nullptr) apply = &request;
      cycles += (request.remaining + kQuantum - 1) / kQuantum;
      const Duration waited = now - request.arrived;
      urgent = urgent || waited >= kReplicationPatience ||
               waited + cycles * kLongCycle >= kReplicationDeadline;
    }
    LongRequest* next = apply != nullptr && (read == nullptr || urgent) ? apply : read;
    if (next != nullptr) {
      CommitLong(*next, std::min(kQuantum, next->remaining), now);
      quantum_end_ = next->ends_at;
    }
  }
  ArmLongTick(now);
}

void StorageNode::CommitLong(LongRequest& request, Duration amount, Time now) {
  AccrueBusy(now, amount);
  request.remaining -= amount;
  request.ends_at = busy_until_.load(std::memory_order_relaxed);
  long_backlog_.store(long_backlog_.load(std::memory_order_relaxed) - amount,
                      std::memory_order_relaxed);
}

void StorageNode::ArmLongTick(Time now) {
  if (long_tick_armed_) return;
  Time next = quantum_end_ > now ? quantum_end_ : std::numeric_limits<Time>::max();
  for (const LongRequest& request : long_queue_) {
    if (request.remaining == 0) next = std::min(next, request.ends_at);
  }
  if (next == std::numeric_limits<Time>::max()) return;
  long_tick_armed_ = true;
  loop_->ScheduleAt(next, [this] { LongTick(); });
}

void StorageNode::LongTick() {
  long_tick_armed_ = false;
  const Time now = loop_->Now();
  // Steps whose service has ended run in the order it ended. Each leaves
  // the queue before it runs, since its reply may queue more work here.
  for (;;) {
    auto due = long_queue_.end();
    for (auto it = long_queue_.begin(); it != long_queue_.end(); ++it) {
      if (it->remaining == 0 && it->ends_at <= now &&
          (due == long_queue_.end() || it->ends_at < due->ends_at)) {
        due = it;
      }
    }
    if (due == long_queue_.end()) break;
    LongRequest request = std::move(*due);
    long_queue_.erase(due);
    if (!alive_) continue;
    RecordSojourn(now - request.arrived);
    if (auto* read = std::get_if<LongRequest::Read>(&request.step)) {
      ServeMultiGet(read->keys, std::move(read->respond));
    } else if (auto* message = std::get_if<LongRequest::Message>(&request.step)) {
      ApplyMessage(message->from, message->message);
    } else {
      auto& delta = std::get<LongRequest::DeltaSync>(request.step);
      ApplyDeltaSync(delta.pid, delta.records, delta.watermark);
    }
  }
  FeedLong(now);
}

void StorageNode::HeartbeatTick() {
  if (!alive_) return;
  // Liveness beacon to the control-plane observer. It rides the simulated
  // network (loss, partitions, and gray delays shape it), so the failure
  // detector in ClusterState measures reachability rather than trusting an
  // oracle. Every node beacons — secondaries and rf=1 nodes carry no
  // outbound watermark streams, yet their death must still be detectable.
  {
    ClusterState* cluster = cluster_;
    NodeId self = id_;
    Executor* loop = loop_;
    network_->Send(self, ClusterState::kControlPlane,
                   [cluster, self, loop] { cluster->RecordHeartbeat(self, loop->Now()); });
  }
  // One heartbeat per destination carries the watermark of every idle lane
  // (nothing unacked), so secondaries can prove freshness without writes.
  // A lane with unacked records carries its watermark with its data.
  const Time now = loop_->Now();
  std::map<NodeId, ChannelMessage> beats;
  for (PartitionId pid : cluster_->partitions()->PartitionsOnNode(id_, /*primary_only=*/true)) {
    const PartitionInfo* partition = cluster_->partitions()->Get(pid);
    if (partition == nullptr) continue;
    for (NodeId replica : partition->replicas) {
      if (replica == id_) continue;
      const Lane& lane = channels_[replica].lanes[pid];
      if (!lane.pending.empty() || lane.inflight) continue;
      LaneBatch beat;
      beat.pid = pid;
      beat.first_seq = lane.next_seq;  // no records: no seq consumed
      beat.watermark = now;
      beats[replica].lanes.push_back(beat);
    }
  }
  for (auto& [to, message] : beats) Ship(to, std::move(message));
}

Time StorageNode::replicated_through(PartitionId pid) const {
  // A primary is definitionally current.
  if (cluster_->partitions()->Get(pid) != nullptr &&
      cluster_->partitions()->Get(pid)->primary() == id_) {
    return loop_->Now();
  }
  auto it = replicated_through_.find(pid);
  return it == replicated_through_.end() ? 0 : it->second;
}

}  // namespace scads
