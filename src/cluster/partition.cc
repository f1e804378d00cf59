#include "cluster/partition.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace scads {

Result<PartitionMap> PartitionMap::Create(const std::vector<std::string>& boundaries,
                                          const std::vector<NodeId>& nodes,
                                          int replication_factor) {
  if (nodes.empty()) return InvalidArgumentError("no nodes");
  if (replication_factor < 1) return InvalidArgumentError("replication factor < 1");
  for (size_t i = 0; i < boundaries.size(); ++i) {
    if (boundaries[i].empty()) return InvalidArgumentError("empty boundary");
    if (i > 0 && boundaries[i] <= boundaries[i - 1]) {
      return InvalidArgumentError("boundaries not strictly increasing");
    }
  }
  int rf = std::min<int>(replication_factor, static_cast<int>(nodes.size()));
  PartitionMap map;
  map.replication_factor_ = rf;
  size_t count = boundaries.size() + 1;
  for (size_t i = 0; i < count; ++i) {
    PartitionInfo p;
    p.id = map.next_id_++;
    p.start = i == 0 ? "" : boundaries[i - 1];
    p.end = i == boundaries.size() ? "" : boundaries[i];
    for (int r = 0; r < rf; ++r) {
      p.replicas.push_back(nodes[(i + static_cast<size_t>(r)) % nodes.size()]);
    }
    map.partitions_.push_back(std::move(p));
  }
  return map;
}

Result<PartitionMap> PartitionMap::CreateUniform(int num_partitions,
                                                 const std::vector<NodeId>& nodes,
                                                 int replication_factor) {
  if (num_partitions < 1) return InvalidArgumentError("num_partitions < 1");
  std::vector<std::string> boundaries;
  for (int i = 1; i < num_partitions; ++i) {
    uint32_t split = static_cast<uint32_t>((static_cast<uint64_t>(i) << 16) /
                                           static_cast<uint64_t>(num_partitions));
    std::string b;
    b.push_back(static_cast<char>((split >> 8) & 0xff));
    b.push_back(static_cast<char>(split & 0xff));
    boundaries.push_back(std::move(b));
  }
  return Create(boundaries, nodes, replication_factor);
}

size_t PartitionMap::IndexForKey(std::string_view key) const {
  SCADS_CHECK(!partitions_.empty());
  // Last partition whose start <= key.
  size_t lo = 0, hi = partitions_.size();
  while (hi - lo > 1) {
    size_t mid = (lo + hi) / 2;
    if (partitions_[mid].start <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

const PartitionInfo& PartitionMap::ForKey(std::string_view key) const {
  return partitions_[IndexForKey(key)];
}

const PartitionInfo* PartitionMap::Get(PartitionId id) const {
  for (const auto& p : partitions_) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

PartitionInfo* PartitionMap::GetMutable(PartitionId id) {
  return const_cast<PartitionInfo*>(Get(id));
}

Result<PartitionId> PartitionMap::Split(std::string_view split_key) {
  if (split_key.empty()) return InvalidArgumentError("empty split key");
  size_t idx = IndexForKey(split_key);
  PartitionInfo& left = partitions_[idx];
  if (left.start == split_key) {
    return AlreadyExistsError("split key already a boundary");
  }
  PartitionInfo right;
  right.id = next_id_++;
  right.start.assign(split_key);
  right.end = left.end;
  right.replicas = left.replicas;
  left.end.assign(split_key);
  PartitionId new_id = right.id;
  partitions_.insert(partitions_.begin() + static_cast<ptrdiff_t>(idx) + 1, std::move(right));
  return new_id;
}

Status PartitionMap::MergeWithRight(PartitionId id) {
  for (size_t i = 0; i < partitions_.size(); ++i) {
    if (partitions_[i].id != id) continue;
    if (i + 1 >= partitions_.size()) {
      return FailedPreconditionError("no right neighbour");
    }
    if (partitions_[i].replicas != partitions_[i + 1].replicas) {
      return FailedPreconditionError("replica sets differ; move replicas first");
    }
    partitions_[i].end = partitions_[i + 1].end;
    partitions_.erase(partitions_.begin() + static_cast<ptrdiff_t>(i) + 1);
    return Status::Ok();
  }
  return NotFoundError(StrFormat("partition %d", id));
}

Status PartitionMap::SetReplicas(PartitionId id, std::vector<NodeId> replicas) {
  if (replicas.empty()) return InvalidArgumentError("empty replica set");
  PartitionInfo* p = GetMutable(id);
  if (p == nullptr) return NotFoundError(StrFormat("partition %d", id));
  p->replicas = std::move(replicas);
  return Status::Ok();
}

std::vector<PartitionId> PartitionMap::PartitionsOnNode(NodeId node, bool primary_only) const {
  std::vector<PartitionId> out;
  for (const auto& p : partitions_) {
    if (primary_only) {
      if (p.primary() == node) out.push_back(p.id);
    } else if (std::find(p.replicas.begin(), p.replicas.end(), node) != p.replicas.end()) {
      out.push_back(p.id);
    }
  }
  return out;
}

}  // namespace scads
