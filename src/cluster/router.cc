#include "cluster/router.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "cache/cache_directory.h"
#include "cluster/coalescer.h"
#include "cluster/round_trip.h"
#include "common/strings.h"

namespace scads {

namespace {
// Adaptive batching's cap for an idle node's sub-batch.
constexpr size_t kMaxSubBatch = 128;
// A point read's one fetch, which is also its one caller slot.
constexpr size_t kPointFetch[] = {0};
}  // namespace

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
  if (!config_.adaptive_batch.enabled) return std::numeric_limits<size_t>::max();
  // Quadratic shrink: at a busy server the sojourn of a batch scales with
  // its service lump, so the cap must fall faster than the pressure rises
  // for the completion tail to actually flatten.
  double pressure = cluster_->NodeLoad(target).Pressure();
  double idle = (1.0 - pressure) * (1.0 - pressure);
  double size = static_cast<double>(kMinSubBatch) +
                idle * static_cast<double>(kMaxSubBatch - kMinSubBatch);
  // Deadline weighting: a request whose budget is mostly gone sends small,
  // shed-eligible batches — if they shed, little is lost; if they land,
  // they are served soonest.
  if (options.has_deadline() && options.deadline > 0) {
    double remaining = static_cast<double>(options.deadline_at - now) /
                       static_cast<double>(options.deadline);
    remaining = std::clamp(remaining, 0.0, 1.0);
    size = static_cast<double>(kMinSubBatch) +
           remaining * (size - static_cast<double>(kMinSubBatch));
  }
  return std::clamp(static_cast<size_t>(size), kMinSubBatch, kMaxSubBatch);
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

bool Router::CacheEligible(const RequestOptions& options) const {
  if (cache_ == nullptr) return false;
  switch (options.read_mode) {
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
  std::vector<NodeId> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    candidates = ReadCandidates(cluster_->partitions()->ForKey(key), options);
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
  FetchOne(key, std::move(candidates), loop_->Now(), std::move(options), std::move(callback));
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
  // Candidates come straight from the selector, NOT via ReadCandidates:
  // this read was already counted as a pick when it first dispatched, and
  // counting the re-dispatch would inflate the pick/steer window exactly
  // during failure windows, when the Director most needs the signal clean.
  std::vector<NodeId> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    candidates = selector_->ReadCandidates(cluster_->partitions()->ForKey(key), options,
                                           config_.read_target, config_.read_retries);
  }
  // A single-replica partition has nowhere else to go: retry the failed
  // node rather than failing outright (its timeout still bounds the
  // attempt).
  if (std::any_of(candidates.begin(), candidates.end(),
                  [exclude](NodeId candidate) { return candidate != exclude; })) {
    std::erase(candidates, exclude);
  }
  FetchOne(key, std::move(candidates), start, std::move(options), std::move(callback));
}

void Router::GetFromReplica(const std::string& key, NodeId replica, RequestOptions options,
                            std::function<void(Result<Record>)> callback) {
  options.Arm(loop_->Now());
  FetchOne(key, {replica}, loop_->Now(), std::move(options), std::move(callback));
}

// ---------------------------------------------------------------- MultiGet

struct Router::MultiGetState {
  // One unique key: where it may still be served from, and its result once
  // resolved (a cache hit resolves before dispatch).
  struct Fetch {
    std::string key;
    std::vector<NodeId> candidates;
    size_t next_candidate = 0;
    size_t last_slot = 0;  // the last caller slot it fills: that slot takes the result
    std::optional<Result<Record>> result;
  };

  Time start = 0;
  RequestOptions options;  // shared deadline budget for the whole fan-out
  std::vector<Fetch> fetches;
  size_t unresolved = 0;
  // A point read (FetchOne): one fetch, whose shed surfaces instead of
  // redirecting, answered through `read_callback`.
  bool point = false;
  ReadCallback read_callback;
  // A batch: the fetch filling each caller slot, and the callback taking
  // one result per slot.
  std::vector<size_t> slot_fetch;
  std::function<void(std::vector<Result<Record>>)> batch_callback;

  void Resolve(size_t fetch_id, Result<Record> result) {
    Fetch& fetch = fetches[fetch_id];
    if (fetch.result) return;
    fetch.result = std::move(result);
    --unresolved;
  }
};

void Router::FinishMultiGet(const std::shared_ptr<MultiGetState>& state) {
  auto slots = state->point ? std::span<const size_t>(kPointFetch) : state->slot_fetch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Every logical read in the batch is accounted individually, so the SLA
    // monitor and Director see the same read volume batched or not.
    for (size_t fetch_id : slots) {
      const Status& status = state->fetches[fetch_id].result->status();
      Account(Op::kRead, state->start, status.ok() || IsNotFound(status), status);
    }
  }
  if (state->point) {
    state->read_callback(std::move(*state->fetches[0].result));
    return;
  }
  std::vector<Result<Record>> out;
  out.reserve(slots.size());
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    MultiGetState::Fetch& fetch = state->fetches[slots[slot]];
    if (slot == fetch.last_slot) {
      out.push_back(std::move(*fetch.result));
    } else {
      out.push_back(*fetch.result);
    }
  }
  state->batch_callback(std::move(out));
}

void Router::FetchOne(const std::string& key, std::vector<NodeId> candidates, Time start,
                      RequestOptions options, ReadCallback callback) {
  auto state = std::make_shared<MultiGetState>();
  state->start = start;
  state->options = std::move(options);
  state->point = true;
  state->read_callback = std::move(callback);
  MultiGetState::Fetch& fetch = state->fetches.emplace_back();
  fetch.key = key;
  fetch.candidates = std::move(candidates);
  state->unresolved = 1;
  DispatchMultiGet(state, kPointFetch);
}

void Router::DispatchMultiGet(const std::shared_ptr<MultiGetState>& state,
                              std::span<const size_t> fetch_ids) {
  // (node, fetch) placements. A (node, kRefused) entry memoizes a breaker
  // refusal: the verdict is taken once per node per dispatch, because
  // TryAcquire consumes the half-open probe token, and one dispatch probing
  // a recovering node with one sub-batch is exactly the intended dose.
  constexpr size_t kRefused = std::numeric_limits<size_t>::max();
  std::vector<std::pair<NodeId, size_t>> placed;
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Budget-exhausted shedding mid-fan-out: keys already answered keep
    // their results; everything still pending (first dispatch or a redirect
    // after a timed-out/shed sub-batch) resolves kDeadlineExceeded.
    bool expired = state->options.Expired(loop_->Now());
    if (!expired) placed.reserve(fetch_ids.size());
    for (size_t fetch_id : fetch_ids) {
      MultiGetState::Fetch& fetch = state->fetches[fetch_id];
      if (fetch.result) continue;
      if (expired) {
        state->Resolve(fetch_id, TimeoutStatus(/*budget_bound=*/true, "read"));
        continue;
      }
      // The node that should serve this fetch now: unregistered nodes and
      // open breakers fail over without paying a timeout.
      for (; fetch.next_candidate < fetch.candidates.size(); ++fetch.next_candidate) {
        NodeId target = fetch.candidates[fetch.next_candidate];
        if (cluster_->GetNode(target) == nullptr) continue;
        auto memo = std::find_if(placed.begin(), placed.end(),
                                 [target](const auto& entry) { return entry.first == target; });
        if (memo == placed.end() ? breaker_.TryAcquire(target) : memo->second != kRefused) {
          placed.emplace_back(target, fetch_id);
          break;
        }
        if (memo == placed.end()) placed.emplace_back(target, kRefused);
        ++window_.breaker_skips;
      }
      if (fetch.next_candidate >= fetch.candidates.size()) {
        state->Resolve(fetch_id, UnavailableError("all replicas unreachable"));
      }
    }
    finished = state->unresolved == 0;
  }
  if (finished) {
    FinishMultiGet(state);
    return;
  }
  // By node, then by fetch: ids arrive ascending, so each node keeps its
  // fetch order. Load-adaptive sizing: each node's group ships as
  // sub-batches no larger than its current load signal (and the remaining
  // deadline budget) allow. The redirect path re-enters here, so retries
  // are re-sized against fresh load too.
  std::erase_if(placed, [](const auto& entry) { return entry.second == kRefused; });
  std::sort(placed.begin(), placed.end());
  Time now = loop_->Now();
  for (auto run = placed.begin(); run != placed.end();) {
    NodeId target = run->first;
    auto run_end = std::find_if(run, placed.end(),
                                [target](const auto& entry) { return entry.first != target; });
    size_t limit = SubBatchLimit(target, state->options, now);
    while (run != run_end) {
      std::vector<size_t> group;
      group.reserve(std::min(limit, static_cast<size_t>(run_end - run)));
      for (; run != run_end && group.size() < limit; ++run) group.push_back(run->second);
      SendMultiGetSubBatch(state, target, std::move(group));
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
       batch_keys = std::move(batch_keys)](auto respond) mutable {
        node->HandleMultiGet(std::move(batch_keys), priority, std::move(respond));
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
            // Any reply — even an error reply — proves the node alive.
            breaker_.RecordSuccess(target);
          }
          for (size_t i = 0; i < group.size(); ++i) {
            size_t fetch_id = group[i];
            MultiGetState::Fetch& fetch = state->fetches[fetch_id];
            if (fetch.result) continue;
            // Timeout: the node (or the path to it) is unresponsive, so the
            // whole sub-batch moves to each key's next replica candidate.
            if (!reply) {
              ++fetch.next_candidate;
              retry.push_back(fetch_id);
              continue;
            }
            // Shed keys (node overload) of a batch move to their next
            // replica candidate; answered keys resolve and populate the
            // cache.
            Result<Record>& result = reply->results[i];
            if (!result.ok() && result.status().code() == StatusCode::kResourceExhausted) {
              ++fetch.next_candidate;
              if (state->point || fetch.next_candidate >= fetch.candidates.size()) {
                // A point read, or a key every candidate shed: surface the
                // overload itself, not a synthetic unreachability error.
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
          DispatchMultiGet(state, retry);
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
  Time start = loop_->Now();
  options.Arm(start);
  if (options.Expired(start)) {
    Status shed = TimeoutStatus(/*budget_bound=*/true, "read");
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t slot = 0; slot < keys.size(); ++slot) Account(Op::kRead, start, false, shed);
    }
    callback(std::vector<Result<Record>>(keys.size(), shed));
    return;
  }
  auto state = std::make_shared<MultiGetState>();
  state->start = start;
  state->options = options;
  state->batch_callback = std::move(callback);
  state->slot_fetch.resize(keys.size());
  state->fetches.reserve(keys.size());

  // Pass 1, BEFORE the router mutex: dedup the key set and serve
  // cache-fresh keys through the directory's leaf shard locks, so an
  // all-hit batch never contends with this router's in-flight completions
  // (same lock-free hot path as Get). Every unique key becomes a fetch,
  // numbered in first-occurrence order; a hit is resolved here. The dedup
  // sorts the slots by (key, slot), which puts each key's slots side by
  // side, first occurrence first, and points every slot at that first
  // slot; the slot-order pass then turns first slots into fetch ids.
  std::vector<size_t> by_key(keys.size());
  std::iota(by_key.begin(), by_key.end(), size_t{0});
  std::sort(by_key.begin(), by_key.end(), [&keys](size_t a, size_t b) {
    int order = keys[a].compare(keys[b]);
    return order != 0 ? order < 0 : a < b;
  });
  for (size_t i = 0; i < by_key.size(); ++i) {
    size_t slot = by_key[i];
    bool repeat = i > 0 && keys[slot] == keys[by_key[i - 1]];
    state->slot_fetch[slot] = repeat ? state->slot_fetch[by_key[i - 1]] : slot;
  }
  bool cache_eligible = CacheEligible(options);
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    size_t first_slot = state->slot_fetch[slot];
    if (first_slot != slot) {
      // first_slot < slot already holds its fetch id.
      size_t fetch_id = state->slot_fetch[first_slot];
      state->slot_fetch[slot] = fetch_id;
      state->fetches[fetch_id].last_slot = slot;
      continue;
    }
    const std::string& key = keys[slot];
    state->slot_fetch[slot] = state->fetches.size();
    MultiGetState::Fetch& fetch = state->fetches.emplace_back();
    fetch.key = key;
    fetch.last_slot = slot;
    Record cached;
    if (cache_eligible && cache_->LookupPoint(key, loop_->Now(), options, &cached)) {
      fetch.result = Result<Record>(std::move(cached));
    } else {
      ++state->unresolved;
    }
  }
  if (state->unresolved == 0) {
    // Every unique key was a cache hit (misses — even unroutable ones —
    // stay pending): charge one cache service interval, like the
    // point-read hit path.
    loop_->ScheduleAfter(cache_->hit_service_time(), [this, state] { FinishMultiGet(state); });
    return;
  }
  // Pass 2, under the router mutex: each miss's partition from one
  // ClusterState lookup, then every miss's replica candidate list from one
  // selector call (ReplicaSelector::BatchReadCandidates).
  std::vector<size_t> misses;
  misses.reserve(state->unresolved);
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const PartitionInfo*> partitions;
    partitions.reserve(state->unresolved);
    for (size_t fetch_id = 0; fetch_id < state->fetches.size(); ++fetch_id) {
      const MultiGetState::Fetch& fetch = state->fetches[fetch_id];
      if (fetch.result) continue;
      partitions.push_back(&cluster_->partitions()->ForKey(fetch.key));
      misses.push_back(fetch_id);
    }
    std::vector<ReplicaPick> picks;
    std::vector<std::vector<NodeId>> candidates = selector_->BatchReadCandidates(
        partitions, state->options, config_.read_target, config_.read_retries, picks);
    for (size_t i = 0; i < misses.size(); ++i) {
      state->fetches[misses[i]].candidates = std::move(candidates[i]);
      CountPick(picks[i]);
    }
  }
  DispatchMultiGet(state, misses);
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

// -------------------------------------------------------------- MultiWrite

struct Router::MultiWriteState {
  // One op and its primary. Sorted by (primary, key, op), each primary's
  // ops form one run in key order, and a key's ops sit side by side with
  // the last one, the op that ships, last.
  struct Placement {
    NodeId primary = kInvalidNode;
    PartitionId pid = -1;
    size_t op = 0;
    size_t chunk_end = 0;  // on the first op of a message: one past its last
  };

  Time start = 0;
  Version version;  // one stamp for every op
  std::vector<WriteOp> ops;
  std::vector<Placement> placed;
  std::vector<Status> statuses;
  size_t chunks_pending = 0;
  // A single write (Write, Put, Delete): one op, answered through
  // `write_callback` with its stamp and `prior`. Else a batch, answered
  // through `batch_callback` with a status per op.
  bool single = false;
  std::optional<Record> prior;
  std::function<void(Result<WriteAck>)> write_callback;
  std::function<void(std::vector<Status>)> batch_callback;

  // Whether placed[i] ships: no later op on its key follows it.
  bool Ships(size_t i) const {
    return i + 1 == placed.size() || ops[placed[i + 1].op].key != ops[placed[i].op].key;
  }
};

void Router::Write(WriteOp op, AckMode ack, RequestOptions options,
                   std::function<void(Result<WriteAck>)> callback) {
  auto state = std::make_shared<MultiWriteState>();
  state->ops.push_back(std::move(op));
  state->single = true;
  state->write_callback = std::move(callback);
  DispatchMultiWrite(state, ack, std::move(options));
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
  auto state = std::make_shared<MultiWriteState>();
  state->ops = std::move(ops);
  state->batch_callback = std::move(callback);
  DispatchMultiWrite(state, ack, std::move(options));
}

void Router::DispatchMultiWrite(const std::shared_ptr<MultiWriteState>& state, AckMode ack,
                                RequestOptions options) {
  const Time now = loop_->Now();
  options.Arm(now);
  state->start = now;
  state->version = Version{now, client_id_};
  const std::vector<WriteOp>& ops = state->ops;
  if (options.Expired(now)) {
    state->statuses.assign(ops.size(), TimeoutStatus(/*budget_bound=*/true, "write"));
    FinishMultiWrite(state);
    return;
  }
  state->statuses.assign(ops.size(), Status::Ok());
  std::vector<MultiWriteState::Placement>& placed = state->placed;
  placed.reserve(ops.size());
  for (size_t id = 0; id < ops.size(); ++id) {
    if (ops[id].key.empty()) {
      // Per-op validation: one bad op must not fail (or poison the engine's
      // batch apply for) its siblings, and it never reaches a node.
      state->statuses[id] = InvalidArgumentError("empty key");
      continue;
    }
    const PartitionInfo& partition = cluster_->partitions()->ForKey(ops[id].key);
    placed.push_back({partition.primary(), partition.id, id});
  }
  std::sort(placed.begin(), placed.end(), [&ops](const auto& a, const auto& b) {
    if (a.primary != b.primary) return a.primary < b.primary;
    int order = ops[a.op].key.compare(ops[b.op].key);
    return order != 0 ? order < 0 : a.op < b.op;
  });
  // Load-adaptive sizing: each primary's ops ship as chunks capped by its
  // load signal and the remaining deadline budget, the same rule as
  // MultiGet (SubBatchLimit). Writes do not redirect — a shed or timed-out
  // chunk fails only its own ops. Every chunk is counted before the first
  // ships, since its reply may land on another worker mid-loop.
  for (size_t run = 0; run < placed.size();) {
    const NodeId target = placed[run].primary;
    size_t run_end = run;
    while (run_end < placed.size() && placed[run_end].primary == target) ++run_end;
    if (cluster_->GetNode(target) == nullptr) {
      for (; run < run_end; ++run) {
        state->statuses[placed[run].op] = UnavailableError("primary not registered");
      }
      continue;
    }
    const size_t limit = SubBatchLimit(target, options, now);
    for (size_t first = run, shipping = 0; run < run_end; ++run) {
      if (shipping == limit) {  // the open chunk is full: this op opens the next
        first = run;
        shipping = 0;
      }
      if (first == run) ++state->chunks_pending;
      if (state->Ships(run)) ++shipping;
      placed[first].chunk_end = run + 1;
    }
  }
  if (state->chunks_pending == 0) {
    FinishMultiWrite(state);
    return;
  }
  for (size_t i = 0; i < placed.size(); ++i) {
    if (placed[i].chunk_end > i) SendMultiWriteChunk(state, i, placed[i].chunk_end, ack, options);
  }
}

void Router::SendMultiWriteChunk(const std::shared_ptr<MultiWriteState>& state, size_t begin,
                                 size_t end, AckMode ack, const RequestOptions& options) {
  const NodeId target = state->placed[begin].primary;
  StorageNode* node = cluster_->GetNode(target);
  std::vector<MultiWriteItem> items;
  items.reserve(end - begin);
  int64_t request_bytes = 0;
  for (size_t i = begin; i < end; ++i) {
    if (!state->Ships(i)) continue;
    const WriteOp& op = state->ops[state->placed[i].op];
    const bool put = op.kind == WriteOp::Kind::kPut;
    // Only Write reports a prior, so only a single write asks for one.
    items.push_back({state->placed[i].pid,
                     {put ? WalRecord::Type::kPut : WalRecord::Type::kDelete, op.key,
                      put ? op.value : std::string(), state->version},
                     state->single && op.return_prior, op.condition});
    // A condition adds 16 bytes: its expected version and that field's framing.
    request_bytes += WireSize(items.back().record) + (op.condition.has_value() ? 16 : 0);
  }
  bool budget_bound = false;
  Duration timeout = ClampedTimeout(options, loop_->Now(), &budget_bound);
  RoundTrip<std::vector<WriteReply>>(
      loop_, network_, client_id_, target, request_bytes, timeout,
      [node, items = std::move(items), ack, priority = options.priority](auto respond) mutable {
        node->HandleMultiWrite(std::move(items), ack, priority, std::move(respond));
      },
      [this, state, begin, end, budget_bound](std::optional<std::vector<WriteReply>> reply) {
        bool last_chunk = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          size_t next = 0;  // the reply to the next op that shipped
          for (size_t i = begin; i < end; ++i) {
            if (!state->Ships(i)) continue;
            const size_t id = state->placed[i].op;
            Status& status = state->statuses[id];
            // Writes never retry (no idempotence token): a timed-out chunk
            // fails its own ops; other chunks are unaffected.
            if (!reply || next == reply->size()) {
              status = reply ? InternalError("short write reply")
                             : TimeoutStatus(budget_bound, "write");
              continue;
            }
            WriteReply& answer = (*reply)[next++];
            status = std::move(answer.status);
            if (!status.ok()) continue;
            const WriteOp& op = state->ops[id];
            CacheWrite(op.kind == WriteOp::Kind::kDelete, op.key, op.value, state->version);
            state->prior = std::move(answer.prior);
          }
          last_chunk = --state->chunks_pending == 0;
        }
        if (last_chunk) FinishMultiWrite(state);
      });
}

void Router::FinishMultiWrite(const std::shared_ptr<MultiWriteState>& state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A coalesced op takes the outcome of the op that shipped for its key,
    // except a conditioned one, whose condition was never checked. Walked
    // backwards, each key's shipped op comes first.
    const Status* shipped = nullptr;
    for (size_t i = state->placed.size(); i-- > 0;) {
      const size_t id = state->placed[i].op;
      if (state->Ships(i)) {
        shipped = &state->statuses[id];
      } else {
        state->statuses[id] = state->ops[id].condition.has_value()
                                  ? InvalidArgumentError("conditioned op superseded in its batch")
                                  : *shipped;
      }
    }
    // Every logical write is accounted individually, batched or not. A lost
    // CAS (kAborted) is an answered write: the system worked, the CAS lost.
    for (const Status& status : state->statuses) {
      Account(Op::kWrite, state->start, status.ok() || IsAborted(status), status);
    }
  }
  if (!state->single) {
    state->batch_callback(std::move(state->statuses));
  } else if (!state->statuses[0].ok()) {
    state->write_callback(std::move(state->statuses[0]));
  } else {
    state->write_callback(WriteAck{state->version, std::move(state->prior)});
  }
}

RouterWindow Router::TakeWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  RouterWindow out = std::move(window_);
  window_ = RouterWindow{};
  return out;
}

}  // namespace scads
