#include "cluster/rebalancer.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace scads {

namespace {
// Snapshot streaming: records per batch, modelled throughput, and a floor
// on each batch's transfer time.
constexpr size_t kBatchRecords = 256;
constexpr int64_t kStreamBandwidthBytesPerSec = 50'000'000;
constexpr Duration kMinBatchLatency = kMillisecond;
}  // namespace

Rebalancer::Rebalancer(EventLoop* loop, ClusterState* cluster) : loop_(loop), cluster_(cluster) {}

void Rebalancer::MoveReplica(PartitionId pid, NodeId from, NodeId to,
                             std::function<void(Status)> done) {
  StartCopy(pid, from, to, /*remove_source=*/true, std::move(done));
}

void Rebalancer::CopyReplica(PartitionId pid, NodeId from, NodeId to,
                             std::function<void(Status)> done) {
  StartCopy(pid, from, to, /*remove_source=*/false, std::move(done));
}

void Rebalancer::StartCopy(PartitionId pid, NodeId from, NodeId to, bool remove_source,
                           std::function<void(Status)> done) {
  PartitionInfo* partition = cluster_->partitions()->GetMutable(pid);
  if (partition == nullptr) {
    done(NotFoundError(StrFormat("partition %d", pid)));
    return;
  }
  if (moving_.count(pid) > 0) {
    done(FailedPreconditionError(StrFormat("partition %d already moving", pid)));
    return;
  }
  auto& replicas = partition->replicas;
  if (std::find(replicas.begin(), replicas.end(), from) == replicas.end()) {
    done(FailedPreconditionError(StrFormat("node %d not a replica of partition %d", from, pid)));
    return;
  }
  if (std::find(replicas.begin(), replicas.end(), to) != replicas.end()) {
    done(FailedPreconditionError(StrFormat("node %d already a replica of partition %d", to, pid)));
    return;
  }
  if (cluster_->GetNode(from) == nullptr || cluster_->GetNode(to) == nullptr) {
    done(NotFoundError("source or target node not registered"));
    return;
  }
  moving_.insert(pid);
  // Step 1: the target joins the replica set (as a trailing secondary) so
  // live writes start flowing to it before the snapshot lands.
  replicas.push_back(to);
  // Step 2: stream the snapshot; a copy's source keeps its replica.
  StreamNext(pid, from, to, partition->start, remove_source, std::move(done));
}

Status Rebalancer::RemoveReplica(PartitionId pid, NodeId node) {
  PartitionInfo* partition = cluster_->partitions()->GetMutable(pid);
  if (partition == nullptr) return NotFoundError(StrFormat("partition %d", pid));
  auto& replicas = partition->replicas;
  auto it = std::find(replicas.begin(), replicas.end(), node);
  if (it == replicas.end()) {
    return FailedPreconditionError(
        StrFormat("node %d not a replica of partition %d", node, pid));
  }
  if (replicas.size() <= 1) {
    return FailedPreconditionError(
        StrFormat("refusing to remove the last replica of partition %d", pid));
  }
  // Erasing the front entry implicitly promotes the next replica in set
  // order — the one that has been receiving the primary's stream longest.
  replicas.erase(it);
  return Status::Ok();
}

void Rebalancer::StreamNext(PartitionId pid, NodeId from, NodeId to, std::string cursor,
                            bool remove_source, std::function<void(Status)> done) {
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  StorageNode* source = cluster_->GetNode(from);
  StorageNode* target = cluster_->GetNode(to);
  if (partition == nullptr || source == nullptr || target == nullptr) {
    moving_.erase(pid);
    done(UnavailableError("topology changed mid-move"));
    return;
  }
  std::vector<Record> batch =
      source->engine()->ScanRaw(cursor, partition->end, kBatchRecords);
  if (batch.empty()) {
    FinishMove(pid, from, to, remove_source, std::move(done));
    return;
  }
  int64_t bytes = 0;
  for (const Record& r : batch) {
    bytes += static_cast<int64_t>(r.key.size() + r.value.size() + 16);
  }
  Duration transfer =
      std::max<Duration>(kMinBatchLatency, bytes * kSecond / kStreamBandwidthBytesPerSec);
  std::string next_cursor = batch.back().key + std::string(1, '\0');  // resume strictly after
  records_streamed_ += static_cast<int64_t>(batch.size());
  bool more = batch.size() == kBatchRecords;
  loop_->ScheduleAfter(transfer, [this, pid, from, to, target, batch = std::move(batch),
                                  next_cursor = std::move(next_cursor), more, remove_source,
                                  done = std::move(done)]() mutable {
    for (const Record& r : batch) {
      WalRecord record;
      record.type = r.tombstone ? WalRecord::Type::kDelete : WalRecord::Type::kPut;
      record.key = r.key;
      record.value = r.value;
      record.version = r.version;
      (void)target->engine()->Apply(record);  // version rule reconciles races
    }
    if (more) {
      StreamNext(pid, from, to, std::move(next_cursor), remove_source, std::move(done));
    } else {
      FinishMove(pid, from, to, remove_source, std::move(done));
    }
  });
}

void Rebalancer::FinishMove(PartitionId pid, NodeId from, NodeId to, bool remove_source,
                            std::function<void(Status)> done) {
  PartitionInfo* partition = cluster_->partitions()->GetMutable(pid);
  if (partition == nullptr) {
    moving_.erase(pid);
    done(UnavailableError("partition vanished mid-move"));
    return;
  }
  if (remove_source) {
    bool was_primary = partition->primary() == from;
    auto& replicas = partition->replicas;
    replicas.erase(std::remove(replicas.begin(), replicas.end(), from), replicas.end());
    if (was_primary) {
      // Promote the freshly-copied node to primary: move it to the front.
      auto it = std::find(replicas.begin(), replicas.end(), to);
      if (it != replicas.end()) std::rotate(replicas.begin(), it, it + 1);
    }
  }
  moving_.erase(pid);
  done(Status::Ok());
}

void Rebalancer::DrainNode(NodeId node, std::vector<NodeId> targets,
                           std::function<void(Status)> done) {
  if (targets.empty()) {
    done(InvalidArgumentError("no drain targets"));
    return;
  }
  std::vector<PartitionId> to_move = cluster_->partitions()->PartitionsOnNode(node);
  if (to_move.empty()) {
    done(Status::Ok());
    return;
  }
  struct DrainState {
    size_t remaining;
    Status first_error;
    std::function<void(Status)> done;
  };
  auto state = std::make_shared<DrainState>();
  state->remaining = to_move.size();
  state->done = std::move(done);
  // Partitions assigned to each target within THIS drain: the load signal
  // won't reflect a move until its stream lands, so without this tiebreak
  // an idle fleet would pile every drained partition onto one node.
  std::map<NodeId, size_t> assigned;
  for (size_t i = 0; i < to_move.size(); ++i) {
    PartitionId pid = to_move[i];
    // Destination: the least-loaded eligible live target by pressure
    // (ties: fewest partitions already assigned this drain, then
    // round-robin scan order).
    const PartitionInfo* partition = cluster_->partitions()->Get(pid);
    NodeId target = kInvalidNode;
    double best_pressure = 0;
    size_t best_assigned = 0;
    for (size_t j = 0; j < targets.size(); ++j) {
      NodeId candidate = targets[(i + j) % targets.size()];
      if (candidate == node) continue;
      if (cluster_->GetNode(candidate) == nullptr || !cluster_->IsAlive(candidate)) continue;
      const auto& replicas = partition->replicas;
      if (std::find(replicas.begin(), replicas.end(), candidate) != replicas.end()) continue;
      double pressure = cluster_->NodeLoad(candidate).Pressure();
      size_t candidate_assigned = assigned[candidate];
      if (target == kInvalidNode || pressure < best_pressure ||
          (pressure == best_pressure && candidate_assigned < best_assigned)) {
        target = candidate;
        best_pressure = pressure;
        best_assigned = candidate_assigned;
      }
    }
    if (target != kInvalidNode) ++assigned[target];
    auto finish_one = [state](Status status) {
      if (!status.ok() && state->first_error.ok()) state->first_error = status;
      if (--state->remaining == 0) state->done(state->first_error);
    };
    if (target == kInvalidNode) {
      finish_one(FailedPreconditionError(
          StrFormat("no eligible drain target for partition %d", pid)));
      continue;
    }
    MoveReplica(pid, node, target, finish_one);
  }
}

}  // namespace scads
