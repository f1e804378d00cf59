#include "cluster/router.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "cache/cache_directory.h"
#include "cluster/coalescer.h"
#include "cluster/round_trip.h"
#include "common/strings.h"

namespace scads {

void RouterWindow::MergeFrom(const RouterWindow& other) {
  read_latency.Merge(other.read_latency);
  write_latency.Merge(other.write_latency);
  reads_ok += other.reads_ok;
  reads_failed += other.reads_failed;
  writes_ok += other.writes_ok;
  writes_failed += other.writes_failed;
  deadline_exceeded += other.deadline_exceeded;
  replica_picks += other.replica_picks;
  replica_steers += other.replica_steers;
  breaker_skips += other.breaker_skips;
  for (const auto& [node, picks] : other.picks_by_node) picks_by_node[node] += picks;
}

Router::Router(NodeId client_id, Executor* loop, MessageFabric* network, ClusterState* cluster,
               RouterConfig config, uint64_t seed)
    : client_id_(client_id),
      loop_(loop),
      network_(network),
      cluster_(cluster),
      config_(config),
      breaker_(cluster, loop->clock(), config.breaker, seed ^ 0x62726b72ULL),
      selector_(MakeSelector(config.selector, cluster, seed ^ 0x73656c65ULL)) {
  selector_->set_breaker(&breaker_);
}

void Router::CountPick(const ReplicaPick& pick) {
  if (!pick.policy) return;
  ++window_.replica_picks;
  ++window_.picks_by_node[pick.node];
  if (pick.steered) ++window_.replica_steers;
}

NodeId Router::ChooseReadReplica(const PartitionInfo& partition,
                                 const RequestOptions& options) {
  ReplicaPick pick = selector_->ChooseReadReplica(partition, options, config_.read_target);
  CountPick(pick);
  return pick.node;
}

std::vector<NodeId> Router::ReadCandidates(const PartitionInfo& partition,
                                           const RequestOptions& options) {
  ReplicaPick pick;
  std::vector<NodeId> candidates = selector_->ReadCandidates(
      partition, options, config_.read_target, config_.read_retries, &pick);
  CountPick(pick);
  return candidates;
}

NodeId Router::PickAmong(const std::vector<NodeId>& candidates) {
  if (candidates.empty()) return kInvalidNode;
  std::lock_guard<std::mutex> lock(mu_);
  // Prefer nodes whose breaker would admit a request right now; when every
  // candidate is refused there is nothing better to do than pick normally
  // (the caller's attempt chain still bounds the damage).
  std::vector<NodeId> healthy;
  healthy.reserve(candidates.size());
  for (NodeId id : candidates) {
    if (breaker_.Healthy(id)) healthy.push_back(id);
  }
  ReplicaPick pick = selector_->Pick(
      !healthy.empty() && healthy.size() < candidates.size() ? healthy : candidates);
  CountPick(pick);
  return pick.node;
}

void Router::Account(Op op, Time start, bool ok, const Status& status) {
  bool read = op == Op::kRead;
  (read ? window_.read_latency : window_.write_latency).Record(loop_->Now() - start);
  if (ok) {
    ++(read ? window_.reads_ok : window_.writes_ok);
    return;
  }
  ++(read ? window_.reads_failed : window_.writes_failed);
  if (IsDeadlineExceeded(status)) ++window_.deadline_exceeded;
}

void Router::Settle(Op op, Time start, bool ok, const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  Account(op, start, ok, status);
}

template <typename Callback>
void Router::Fail(Op op, Time start, Status status, const Callback& callback) {
  Settle(op, start, false, status);
  callback(std::move(status));
}

void Router::CountCacheServedRead(Time start) { Settle(Op::kRead, start, true, Status::Ok()); }

size_t Router::SubBatchLimit(NodeId target, const RequestOptions& options, Time now) const {
  const AdaptiveBatchConfig& ab = config_.adaptive_batch;
  if (!ab.enabled) return std::numeric_limits<size_t>::max();
  size_t min_batch = std::max<size_t>(1, ab.min_sub_batch);
  size_t max_batch = std::max(min_batch, ab.max_sub_batch);
  // Quadratic shrink: at a busy server the sojourn of a batch scales with
  // its service lump, so the cap must fall faster than the pressure rises
  // for the completion tail to actually flatten.
  double pressure = cluster_->NodeLoad(target).Pressure(ab.backlog_ref, ab.sojourn_ref);
  double idle = (1.0 - pressure) * (1.0 - pressure);
  double size = static_cast<double>(min_batch) +
                idle * static_cast<double>(max_batch - min_batch);
  // Deadline weighting: a request whose budget is mostly gone sends small,
  // shed-eligible batches — if they shed, little is lost; if they land,
  // they are served soonest.
  if (options.has_deadline() && options.deadline > 0) {
    double remaining = static_cast<double>(options.deadline_at - now) /
                       static_cast<double>(options.deadline);
    remaining = std::clamp(remaining, 0.0, 1.0);
    size = static_cast<double>(min_batch) +
           remaining * (size - static_cast<double>(min_batch));
  }
  return std::clamp(static_cast<size_t>(size), min_batch, max_batch);
}

Duration Router::ClampedTimeout(const RequestOptions& options, Time now,
                                bool* budget_bound) const {
  Duration timeout = options.ClampTimeout(config_.request_timeout, now);
  *budget_bound = timeout < config_.request_timeout;
  return timeout;
}

Status Router::TimeoutStatus(bool budget_bound, std::string_view what) {
  if (budget_bound) {
    return DeadlineExceededError(std::string(what) + ": deadline budget exhausted");
  }
  return UnavailableError(std::string(what) + " timeout");
}

void Router::MaybeCacheRead(const std::string& key, Time as_of, const Result<Record>& result) {
  if (cache_ == nullptr || !result.ok() || result->tombstone) return;
  cache_->StorePoint(key, result->value, result->version, as_of);
}

void Router::CacheWrite(bool tombstone, const std::string& key, const std::string& value,
                        Version version) {
  if (cache_ == nullptr) return;
  if (tombstone) {
    cache_->OnDelete(key, version, loop_->Now());
  } else {
    cache_->OnPut(key, value, version, loop_->Now());
  }
}

void Router::GetAttempt(const std::string& key, std::vector<NodeId> candidates, size_t index,
                        Time start, RequestOptions options, ReadCallback callback) {
  StorageNode* node = nullptr;
  Status failure;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Budget check precedes the candidate check: a retry whose budget is
    // gone sheds with the deadline error, not a synthetic unreachability
    // error.
    if (options.Expired(loop_->Now())) {
      failure = TimeoutStatus(/*budget_bound=*/true, "read");
    } else {
      for (; index < candidates.size(); ++index) {
        node = cluster_->GetNode(candidates[index]);
        if (node == nullptr) continue;
        // O(1) failover: an open breaker refuses the attempt outright, so
        // this read moves to the next replica without paying the timeout a
        // dead node would cost.
        if (breaker_.TryAcquire(candidates[index])) break;
        ++window_.breaker_skips;
        node = nullptr;
      }
      if (node == nullptr) failure = UnavailableError("all replicas unreachable");
    }
  }
  if (!failure.ok()) {
    Fail(Op::kRead, start, std::move(failure), callback);
    return;
  }
  NodeId target = candidates[index];
  // Each attempt may wait at most the remaining deadline budget; the retry
  // it hands off to then sees an expired budget and sheds.
  bool budget_bound = false;
  Duration timeout = ClampedTimeout(options, loop_->Now(), &budget_bound);
  RoundTrip<PointReply>(
      loop_, network_, client_id_, target, static_cast<int64_t>(key.size()) + 4, timeout,
      [this, node, key, priority = options.priority](auto respond) {
        node->HandleGet(key, priority,
                        [this, node, key, respond = std::move(respond)](Result<Record> result) {
          // Snapshot the freshness watermark at serve time, not response
          // time: a write acked while this response is on the wire must not
          // lend the (predecessor) value a fresh staleness lease.
          Time as_of = node->replicated_through(cluster_->partitions()->ForKey(key).id);
          respond(PointReply{std::move(result), as_of});
        });
      },
      [this, key, target, budget_bound, start, candidates = std::move(candidates), index,
       options = std::move(options),
       callback = std::move(callback)](std::optional<PointReply> reply) mutable {
        if (!reply) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            // A full attempt timeout is transport-level evidence of death;
            // a budget-clamped timeout is the deadline running out, which
            // says nothing about the node.
            if (!budget_bound) breaker_.RecordFailure(target);
          }
          // Try the next replica; the attempt budget is candidates.size().
          GetAttempt(key, std::move(candidates), index + 1, start, std::move(options),
                     std::move(callback));
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          // Any reply — even an error reply — proves the node alive.
          breaker_.RecordSuccess(target);
          // NotFound counts as a successful (answered) read.
          const Status& status = reply->result.status();
          Account(Op::kRead, start, status.ok() || IsNotFound(status), status);
        }
        MaybeCacheRead(key, reply->as_of, reply->result);
        callback(std::move(reply->result));
      });
}

bool Router::CacheEligible(const RequestOptions& options) const {
  if (cache_ == nullptr) return false;
  switch (options.read_mode) {
    case ReadMode::kCacheOk:
      return true;
    // Pinned/replica reads (session fallbacks, read-modify-write) always
    // reach a storage node, and a deployment configured for primary-only
    // reads opted for freshness over load spreading — honor that too.
    case ReadMode::kDefault:
      return config_.read_target != ReadTarget::kPrimary;
    case ReadMode::kAnyReplica:
    case ReadMode::kPrimaryOnly:
      return false;
  }
  return false;
}

void Router::Get(const std::string& key, RequestOptions options,
                 std::function<void(Result<Record>)> callback) {
  options.Arm(loop_->Now());
  if (options.Expired(loop_->Now())) {
    Fail(Op::kRead, loop_->Now(), TimeoutStatus(/*budget_bound=*/true, "read"), callback);
    return;
  }
  // Cache hot path, consulted without the router mutex: the directory's
  // shard locks are leaves (see cache_directory.h), so a hit on one client
  // thread never contends with this router's in-flight completions.
  // Entries are served fresh under the *request's* effective staleness
  // bound (and at or above its session version floor) without touching a
  // storage node; misses fall through to dispatch unchanged.
  if (CacheEligible(options)) {
    Record cached;
    if (cache_->LookupPoint(key, loop_->Now(), options, &cached)) {
      Time start = loop_->Now();
      loop_->ScheduleAfter(cache_->hit_service_time(),
                           [this, start, cached = std::move(cached),
                            callback = std::move(callback)]() mutable {
        CountCacheServedRead(start);
        callback(std::move(cached));
      });
      return;
    }
  }
  const PartitionInfo& partition = cluster_->partitions()->ForKey(key);
  if (partition.replicas.empty()) {
    Fail(Op::kRead, loop_->Now(), UnavailableError("partition has no replicas"), callback);
    return;
  }
  std::vector<NodeId> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    candidates = ReadCandidates(partition, options);
  }
  // Coalescing: concurrent reads of the same key share one node round
  // trip, and same-node leaders within the hold window share one message.
  // Pinned reads keep their own serve (their semantics demand it).
  if (coalescer_ != nullptr && coalescer_->enabled() &&
      options.read_mode != ReadMode::kPrimaryOnly && !candidates.empty()) {
    ReadCoalescer::PendingRead read;
    read.router = this;
    read.key = key;
    read.candidates = std::move(candidates);
    read.options = std::move(options);
    read.start = loop_->Now();
    read.callback = std::move(callback);
    coalescer_->Submit(std::move(read));
    return;
  }
  GetAttempt(key, std::move(candidates), 0, loop_->Now(), std::move(options),
             std::move(callback));
}

void Router::FinishCoalescedRead(const std::string& key, Time start, Result<Record> result,
                                 Time as_of, bool store_in_cache,
                                 const std::function<void(Result<Record>)>& callback) {
  const Status& status = result.status();
  Settle(Op::kRead, start, status.ok() || IsNotFound(status), status);
  if (store_in_cache) MaybeCacheRead(key, as_of, result);
  callback(std::move(result));
}

void Router::RedispatchCoalesced(const std::string& key, RequestOptions options, Time start,
                                 NodeId exclude, std::function<void(Result<Record>)> callback) {
  const PartitionInfo& partition = cluster_->partitions()->ForKey(key);
  if (partition.replicas.empty()) {
    Fail(Op::kRead, start, UnavailableError("partition has no replicas"), callback);
    return;
  }
  // Candidates come straight from the selector, NOT via ReadCandidates:
  // this read was already counted as a pick when it first dispatched, and
  // counting the re-dispatch would inflate the pick/steer window exactly
  // during failure windows, when the Director most needs the signal clean.
  std::vector<NodeId> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    candidates = selector_->ReadCandidates(partition, options, config_.read_target,
                                           config_.read_retries);
  }
  if (exclude != kInvalidNode) {
    std::vector<NodeId> kept;
    for (NodeId candidate : candidates) {
      if (candidate != exclude) kept.push_back(candidate);
    }
    // A single-replica partition has nowhere else to go: retry the failed
    // node rather than failing outright (its timeout chain still bounds
    // the attempt).
    if (!kept.empty()) candidates = std::move(kept);
  }
  GetAttempt(key, std::move(candidates), 0, start, std::move(options), std::move(callback));
}

void Router::GetFromReplica(const std::string& key, NodeId replica, RequestOptions options,
                            std::function<void(Result<Record>)> callback) {
  options.Arm(loop_->Now());
  GetAttempt(key, {replica}, 0, loop_->Now(), std::move(options), std::move(callback));
}

// ---------------------------------------------------------------- MultiGet

struct Router::MultiGetState {
  // One in-flight unique key: where it may still be served from, and which
  // caller slots (duplicates) it fills.
  struct Fetch {
    std::string key;
    std::vector<NodeId> candidates;
    size_t next_candidate = 0;
    std::vector<size_t> slots;
    bool resolved = false;
  };

  Time start = 0;
  RequestOptions options;  // shared deadline budget for the whole fan-out
  std::vector<std::optional<Result<Record>>> results;  // caller order
  std::vector<Fetch> fetches;
  size_t unresolved = 0;
  std::function<void(std::vector<Result<Record>>)> callback;

  void Resolve(size_t fetch_id, Result<Record> result) {
    Fetch& fetch = fetches[fetch_id];
    if (fetch.resolved) return;
    fetch.resolved = true;
    for (size_t slot : fetch.slots) results[slot] = result;
    --unresolved;
  }
};

void Router::FinishMultiGet(const std::shared_ptr<MultiGetState>& state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Every logical read in the batch is accounted individually, so the SLA
    // monitor and Director see the same read volume batched or not.
    for (const auto& slot : state->results) {
      const Status& status = slot->status();
      Account(Op::kRead, state->start, status.ok() || IsNotFound(status), status);
    }
  }
  std::vector<Result<Record>> out;
  out.reserve(state->results.size());
  for (auto& slot : state->results) out.push_back(std::move(*slot));
  state->callback(std::move(out));
}

void Router::DispatchMultiGet(const std::shared_ptr<MultiGetState>& state,
                              std::vector<size_t> fetch_ids) {
  std::map<NodeId, std::vector<size_t>> by_node;
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Budget-exhausted shedding mid-fan-out: keys already answered keep
    // their results; everything still pending (first dispatch or a redirect
    // after a timed-out/shed sub-batch) resolves kDeadlineExceeded.
    if (state->options.Expired(loop_->Now())) {
      for (size_t fetch_id : fetch_ids) {
        state->Resolve(fetch_id,
                       DeadlineExceededError("multiget: deadline budget exhausted mid-fan-out"));
      }
      fetch_ids.clear();
    }
    // Group the still-pending fetches by the node that should serve them
    // now. The breaker verdict is memoized per dispatch: TryAcquire consumes
    // the half-open probe token, and one dispatch probing a recovering node
    // with one key per sub-batch is exactly the intended dose.
    std::map<NodeId, bool> admitted;
    for (size_t fetch_id : fetch_ids) {
      MultiGetState::Fetch& fetch = state->fetches[fetch_id];
      if (fetch.resolved) continue;
      bool placed = false;
      while (fetch.next_candidate < fetch.candidates.size()) {
        NodeId target = fetch.candidates[fetch.next_candidate];
        if (cluster_->GetNode(target) == nullptr) {
          ++fetch.next_candidate;  // unregistered node: skip without a timeout
          continue;
        }
        auto [it, fresh] = admitted.try_emplace(target, false);
        if (fresh) it->second = breaker_.TryAcquire(target);
        if (!it->second) {
          ++window_.breaker_skips;
          ++fetch.next_candidate;  // open breaker: fail over without a timeout
          continue;
        }
        by_node[target].push_back(fetch_id);
        placed = true;
        break;
      }
      if (!placed) state->Resolve(fetch_id, UnavailableError("all replicas unreachable"));
    }
    finished = state->unresolved == 0;
  }
  if (finished) {
    FinishMultiGet(state);
    return;
  }
  // Load-adaptive sizing: each node's group ships as sub-batches no larger
  // than its current load signal (and the remaining deadline budget) allow.
  // The redirect path re-enters here, so retries are re-sized against fresh
  // load too.
  Time now = loop_->Now();
  for (auto& [target, group] : by_node) {
    size_t limit = SubBatchLimit(target, state->options, now);
    for (size_t offset = 0; offset < group.size(); offset += limit) {
      size_t count = std::min(limit, group.size() - offset);
      SendMultiGetSubBatch(
          state, target,
          std::vector<size_t>(group.begin() + static_cast<ptrdiff_t>(offset),
                              group.begin() + static_cast<ptrdiff_t>(offset + count)));
    }
  }
}

void Router::SendMultiGetSubBatch(const std::shared_ptr<MultiGetState>& state, NodeId target,
                                  std::vector<size_t> group) {
  StorageNode* node = cluster_->GetNode(target);
  std::vector<std::string> batch_keys;
  int64_t request_bytes = 0;
  batch_keys.reserve(group.size());
  for (size_t fetch_id : group) {
    const std::string& key = state->fetches[fetch_id].key;
    batch_keys.push_back(key);
    request_bytes += static_cast<int64_t>(key.size()) + 4;
  }
  bool budget_bound = false;
  Duration timeout = ClampedTimeout(state->options, loop_->Now(), &budget_bound);
  RoundTrip<MultiGetReply>(
      loop_, network_, client_id_, target, request_bytes, timeout,
      [node, priority = state->options.priority,
       batch_keys = std::move(batch_keys)](auto respond) {
        node->HandleMultiGet(batch_keys, priority, std::move(respond));
      },
      [this, state, target, budget_bound,
       group = std::move(group)](std::optional<MultiGetReply> reply) {
        std::vector<size_t> retry;
        bool finished = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!reply) {
            // Transport-level evidence only: a budget-clamped timeout is the
            // deadline running out, not the node's fault.
            if (!budget_bound) breaker_.RecordFailure(target);
          } else {
            // Any reply proves the node alive.
            breaker_.RecordSuccess(target);
          }
          for (size_t i = 0; i < group.size(); ++i) {
            size_t fetch_id = group[i];
            MultiGetState::Fetch& fetch = state->fetches[fetch_id];
            if (fetch.resolved) continue;
            // Timeout: the node (or the path to it) is unresponsive, so the
            // whole sub-batch moves to each key's next replica candidate.
            if (!reply) {
              ++fetch.next_candidate;
              retry.push_back(fetch_id);
              continue;
            }
            // Shed keys (node overload) move to their next replica
            // candidate; answered keys resolve and populate the cache.
            Result<Record>& result = reply->results[i];
            if (!result.ok() && result.status().code() == StatusCode::kResourceExhausted) {
              ++fetch.next_candidate;
              if (fetch.next_candidate >= fetch.candidates.size()) {
                // Every candidate shed: surface the overload itself
                // (matching single-Get semantics), not a synthetic
                // unreachability error.
                state->Resolve(fetch_id, std::move(result));
              } else {
                retry.push_back(fetch_id);
              }
              continue;
            }
            MaybeCacheRead(fetch.key, reply->as_of[i], result);
            state->Resolve(fetch_id, std::move(result));
          }
          finished = reply && retry.empty() && state->unresolved == 0;
        }
        if (!retry.empty()) {
          DispatchMultiGet(state, std::move(retry));
        } else if (finished) {
          FinishMultiGet(state);
        }
      });
}

void Router::MultiGet(const std::vector<std::string>& keys, RequestOptions options,
                      std::function<void(std::vector<Result<Record>>)> callback) {
  if (keys.empty()) {
    callback({});
    return;
  }
  options.Arm(loop_->Now());
  auto state = std::make_shared<MultiGetState>();
  state->start = loop_->Now();
  state->options = options;
  state->results.resize(keys.size());
  state->callback = std::move(callback);
  if (options.Expired(loop_->Now())) {
    for (auto& slot : state->results) {
      slot = Result<Record>(DeadlineExceededError("multiget: deadline budget exhausted"));
    }
    FinishMultiGet(state);
    return;
  }

  // Pass 1, BEFORE the router mutex: dedup the key set and serve
  // cache-fresh keys through the directory's leaf shard locks, so an
  // all-hit batch never contends with this router's in-flight completions
  // (same lock-free hot path as Get).
  bool cache_eligible = CacheEligible(options);
  std::map<std::string, size_t> fetch_index;  // key -> fetches index
  std::map<std::string, size_t> cached_slot;  // cache-hit key -> first slot
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    const std::string& key = keys[slot];
    auto cached_it = cached_slot.find(key);
    if (cached_it != cached_slot.end()) {
      state->results[slot] = state->results[cached_it->second];
      continue;
    }
    auto fetch_it = fetch_index.find(key);
    if (fetch_it != fetch_index.end()) {
      state->fetches[fetch_it->second].slots.push_back(slot);
      continue;
    }
    if (cache_eligible) {
      Record cached;
      if (cache_->LookupPoint(key, loop_->Now(), options, &cached)) {
        state->results[slot] = Result<Record>(std::move(cached));
        cached_slot.emplace(key, slot);
        continue;
      }
    }
    MultiGetState::Fetch fetch;
    fetch.key = key;
    fetch.slots.push_back(slot);
    fetch_index.emplace(key, state->fetches.size());
    state->fetches.push_back(std::move(fetch));
  }
  state->unresolved = state->fetches.size();
  if (state->unresolved == 0) {
    // Every unique key was a cache hit (misses — even unroutable ones —
    // become fetches): charge one cache service interval, like the
    // point-read hit path.
    loop_->ScheduleAfter(cache_->hit_service_time(), [this, state] { FinishMultiGet(state); });
    return;
  }
  // Pass 2, under the router mutex: each miss's replica candidate list from
  // one ClusterState lookup.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (MultiGetState::Fetch& fetch : state->fetches) {
      fetch.candidates =
          ReadCandidates(cluster_->partitions()->ForKey(fetch.key), state->options);
    }
  }
  std::vector<size_t> all(state->fetches.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  DispatchMultiGet(state, std::move(all));
}

void Router::Scan(const std::string& start, const std::string& end, size_t limit,
                  RequestOptions options, std::function<void(Result<std::vector<Record>>)> callback) {
  Time started = loop_->Now();
  options.Arm(started);
  const PartitionInfo& partition = cluster_->partitions()->ForKey(start);
  NodeId target = kInvalidNode;
  StorageNode* node = nullptr;
  Status failure;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options.Expired(started)) {
      failure = TimeoutStatus(/*budget_bound=*/true, "scan");
    } else if (!end.empty() && !(partition.end.empty() || end <= partition.end)) {
      failure = InvalidArgumentError("scan range spans partitions; fan out at the query layer");
    } else {
      target = ChooseReadReplica(partition, options);
      node = cluster_->GetNode(target);
      if (node == nullptr) failure = UnavailableError("replica not registered");
    }
  }
  if (!failure.ok()) {
    Fail(Op::kRead, started, std::move(failure), callback);
    return;
  }
  bool budget_bound = false;
  Duration timeout = ClampedTimeout(options, started, &budget_bound);
  RoundTrip<Result<std::vector<Record>>>(
      loop_, network_, client_id_, target, static_cast<int64_t>(start.size() + end.size()) + 16,
      timeout,
      [node, start, end, limit, priority = options.priority](auto respond) {
        node->HandleScan(start, end, limit, priority, std::move(respond));
      },
      [this, started, budget_bound,
       callback = std::move(callback)](std::optional<Result<std::vector<Record>>> reply) {
        Result<std::vector<Record>> rows =
            reply ? std::move(*reply)
                  : Result<std::vector<Record>>(TimeoutStatus(budget_bound, "scan"));
        Settle(Op::kRead, started, rows.ok(), rows.status());
        callback(std::move(rows));
      });
}

void Router::Write(const WriteOp& op, AckMode ack, RequestOptions options,
                   std::function<void(Result<WriteAck>)> callback) {
  Time started = loop_->Now();
  options.Arm(started);
  // Shared, not copied per closure: the node handler and the cache hook
  // both read the one record.
  auto record = std::make_shared<WalRecord>();
  record->type = op.kind == WriteOp::Kind::kPut ? WalRecord::Type::kPut : WalRecord::Type::kDelete;
  record->key = op.key;
  if (op.kind == WriteOp::Kind::kPut) record->value = op.value;
  record->version = Version{started, client_id_};
  const PartitionInfo& partition = cluster_->partitions()->ForKey(record->key);
  NodeId target = partition.primary();
  StorageNode* node = cluster_->GetNode(target);
  Status failure;
  if (options.Expired(started)) {
    failure = TimeoutStatus(/*budget_bound=*/true, "write");
  } else if (node == nullptr) {
    failure = UnavailableError("primary not registered");
  }
  if (!failure.ok()) {
    Fail(Op::kWrite, started, std::move(failure), callback);
    return;
  }
  bool budget_bound = false;
  Duration timeout = ClampedTimeout(options, started, &budget_bound);
  // A condition adds 16 bytes: its expected version and that field's framing.
  int64_t request_bytes = WireSize(*record) + (op.condition.has_value() ? 16 : 0);
  RoundTrip<WriteReply>(
      loop_, network_, client_id_, target, request_bytes, timeout,
      [node, pid = partition.id, record, ack, priority = options.priority,
       return_prior = op.return_prior, condition = op.condition](auto respond) {
        node->HandleWrite(pid, *record, ack, priority, return_prior, condition,
                          std::move(respond));
      },
      [this, started, budget_bound, record,
       callback = std::move(callback)](std::optional<WriteReply> reply) {
        // Writes never retry (no idempotence token).
        Status status = reply ? std::move(reply->status) : TimeoutStatus(budget_bound, "write");
        // kAborted is an answered request: the system worked, the CAS lost.
        Settle(Op::kWrite, started, status.ok() || IsAborted(status), status);
        if (!status.ok()) {
          callback(std::move(status));
          return;
        }
        CacheWrite(record->type == WalRecord::Type::kDelete, record->key, record->value,
                   record->version);
        callback(WriteAck{record->version, std::move(reply->prior)});
      });
}

namespace {

/// Adapts a status-only callback to Write's acked one.
std::function<void(Result<Router::WriteAck>)> StatusOnly(std::function<void(Status)> callback) {
  return [callback = std::move(callback)](Result<Router::WriteAck> result) {
    callback(result.status());
  };
}

}  // namespace

void Router::Put(const std::string& key, const std::string& value, AckMode ack,
                 RequestOptions options, std::function<void(Status)> callback) {
  Write({WriteOp::Kind::kPut, key, value}, ack, std::move(options),
        StatusOnly(std::move(callback)));
}

void Router::Delete(const std::string& key, AckMode ack, RequestOptions options,
                    std::function<void(Status)> callback) {
  Write({WriteOp::Kind::kDelete, key, {}}, ack, std::move(options),
        StatusOnly(std::move(callback)));
}

void Router::MultiWrite(std::vector<WriteOp> ops, AckMode ack, RequestOptions options,
                        std::function<void(std::vector<Status>)> callback) {
  if (ops.empty()) {
    callback({});
    return;
  }
  const size_t n = ops.size();
  Time started = loop_->Now();
  options.Arm(started);
  if (options.Expired(started)) {
    std::vector<Status> shed(n, TimeoutStatus(/*budget_bound=*/true, "multiwrite"));
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const Status& status : shed) Account(Op::kWrite, started, false, status);
    }
    callback(std::move(shed));
    return;
  }
  Version version{loop_->Now(), client_id_};
  struct BatchState {
    std::vector<WriteOp> ops;
    std::vector<Status> statuses;
    std::map<std::string, size_t> winner_of;  // key -> winning op index
    size_t groups_pending = 0;
    std::function<void(std::vector<Status>)> callback;
  };
  auto state = std::make_shared<BatchState>();
  state->ops = std::move(ops);
  state->statuses.assign(n, Status::Ok());
  state->callback = std::move(callback);
  // Same-key ops coalesce to the last one: the whole batch carries one
  // version stamp, so "apply in order" degenerates to "last op wins" anyway;
  // shipping only the winner keeps that outcome instead of letting the
  // engine's newer-version rule drop the later op as superseded. A
  // conditioned op is rejected instead: a batch checks no condition, so
  // shipping it would apply it unconditionally.
  for (size_t i = 0; i < n; ++i) {
    if (state->ops[i].condition.has_value()) {
      state->statuses[i] = InvalidArgumentError("conditional write in a batch");
    } else {
      state->winner_of[state->ops[i].key] = i;
    }
  }

  auto finalize = [this, state, started]() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Coalesced losers inherit their winner's outcome; then every logical
      // write is accounted individually, batched or not.
      for (size_t i = 0; i < state->ops.size(); ++i) {
        if (state->ops[i].condition.has_value()) continue;  // rejected above
        auto it = state->winner_of.find(state->ops[i].key);
        if (it->second != i) state->statuses[i] = state->statuses[it->second];
      }
      for (const Status& status : state->statuses) {
        Account(Op::kWrite, started, status.ok(), status);
      }
    }
    state->callback(std::move(state->statuses));
  };

  // Group the winning ops by the primary that owns each key.
  struct Group {
    std::vector<size_t> op_ids;
    std::vector<MultiWriteItem> items;
    size_t limit = 0;
  };
  std::map<NodeId, Group> groups;
  for (const auto& [key, op_id] : state->winner_of) {
    const WriteOp& op = state->ops[op_id];
    if (key.empty()) {
      // Per-op validation, as with single writes: one bad op must not fail
      // (or poison the engine's batch apply for) its siblings.
      state->statuses[op_id] = InvalidArgumentError("empty key");
      continue;
    }
    const PartitionInfo& partition = cluster_->partitions()->ForKey(key);
    NodeId target = partition.primary();
    if (cluster_->GetNode(target) == nullptr) {
      state->statuses[op_id] = UnavailableError("primary not registered");
      continue;
    }
    MultiWriteItem item;
    item.pid = partition.id;
    item.record.type =
        op.kind == WriteOp::Kind::kPut ? WalRecord::Type::kPut : WalRecord::Type::kDelete;
    item.record.key = key;
    if (op.kind == WriteOp::Kind::kPut) item.record.value = op.value;
    item.record.version = version;
    Group& group = groups[target];
    group.op_ids.push_back(op_id);
    group.items.push_back(std::move(item));
  }
  if (groups.empty()) {
    finalize();
    return;
  }

  // Load-adaptive sizing: each primary's ops ship as chunks capped by its
  // load signal and the remaining deadline budget, the same rule as
  // MultiGet (SubBatchLimit). Writes do not redirect — a shed or timed-out
  // chunk fails only its own ops. Every chunk is counted before the first
  // ships, since its reply may land on another worker mid-loop.
  Time now = loop_->Now();
  for (auto& [target, group] : groups) {
    group.limit = SubBatchLimit(target, options, now);
    state->groups_pending += 1 + (group.items.size() - 1) / group.limit;
  }
  for (auto& [target, group] : groups) {
    StorageNode* node = cluster_->GetNode(target);
    for (size_t offset = 0; offset < group.items.size(); offset += group.limit) {
      size_t count = std::min(group.limit, group.items.size() - offset);
      auto first = static_cast<ptrdiff_t>(offset);
      auto last = static_cast<ptrdiff_t>(offset + count);
      std::vector<size_t> op_ids(group.op_ids.begin() + first, group.op_ids.begin() + last);
      std::vector<MultiWriteItem> items(std::make_move_iterator(group.items.begin() + first),
                                        std::make_move_iterator(group.items.begin() + last));
      int64_t request_bytes = 0;
      for (const MultiWriteItem& item : items) request_bytes += WireSize(item.record);
      bool budget_bound = false;
      Duration timeout = ClampedTimeout(options, loop_->Now(), &budget_bound);
      RoundTrip<std::vector<Status>>(
          loop_, network_, client_id_, target, request_bytes, timeout,
          [node, items = std::move(items), ack, priority = options.priority](auto respond) mutable {
            node->HandleMultiWrite(std::move(items), ack, priority, std::move(respond));
          },
          [this, state, version, budget_bound, finalize,
           op_ids = std::move(op_ids)](std::optional<std::vector<Status>> reply) {
            // Writes never retry (no idempotence token): a timed-out chunk
            // fails its own ops; other chunks are unaffected.
            std::vector<Status> statuses =
                reply ? std::move(*reply)
                      : std::vector<Status>(op_ids.size(), TimeoutStatus(budget_bound, "write"));
            bool last_chunk = false;
            {
              std::lock_guard<std::mutex> lock(mu_);
              for (size_t i = 0; i < op_ids.size(); ++i) {
                Status status = i < statuses.size() ? std::move(statuses[i])
                                                    : InternalError("short multi-write reply");
                const WriteOp& op = state->ops[op_ids[i]];
                if (status.ok()) {
                  CacheWrite(op.kind == WriteOp::Kind::kDelete, op.key, op.value, version);
                }
                state->statuses[op_ids[i]] = std::move(status);
              }
              last_chunk = --state->groups_pending == 0;
            }
            if (last_chunk) finalize();
          });
    }
  }
}

RouterWindow Router::TakeWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  RouterWindow out = std::move(window_);
  window_ = RouterWindow{};
  return out;
}

}  // namespace scads
