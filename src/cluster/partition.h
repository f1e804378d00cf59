// Range partitioning of the ordered keyspace.
//
// SCADS serves "lookups over a bounded contiguous range of an index"
// (paper §3.1), so the keyspace is divided into contiguous ranges, each
// owned by a replica group. The first replica is the primary: it serializes
// writes and feeds the replication streams.

#ifndef SCADS_CLUSTER_PARTITION_H_
#define SCADS_CLUSTER_PARTITION_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace scads {

/// One contiguous key range and its replica set.
struct PartitionInfo {
  PartitionId id = -1;
  std::string start;  ///< Inclusive lower bound ("" = -inf).
  std::string end;    ///< Exclusive upper bound ("" = +inf).
  std::vector<NodeId> replicas;  ///< replicas[0] is the primary.

  bool Contains(std::string_view key) const {
    return key >= start && (end.empty() || key < end);
  }
  NodeId primary() const { return replicas.empty() ? kInvalidNode : replicas[0]; }
};

/// Ordered set of non-overlapping partitions covering the whole keyspace.
class PartitionMap {
 public:
  PartitionMap() = default;

  /// Builds a map whose boundaries are `boundaries` (sorted, distinct,
  /// non-empty strings); produces boundaries.size()+1 partitions. Replicas
  /// are assigned round-robin over `nodes` with `replication_factor` copies
  /// (capped at nodes.size()).
  static Result<PartitionMap> Create(const std::vector<std::string>& boundaries,
                                     const std::vector<NodeId>& nodes, int replication_factor);

  /// Builds `num_partitions` ranges splitting the space of 2-byte key
  /// prefixes evenly — a reasonable default when keys hash-prefix or spread
  /// over the byte space.
  static Result<PartitionMap> CreateUniform(int num_partitions, const std::vector<NodeId>& nodes,
                                            int replication_factor);

  /// The partition containing `key` (always exists: ranges cover the space).
  const PartitionInfo& ForKey(std::string_view key) const;

  /// Lookup by id; nullptr when unknown.
  const PartitionInfo* Get(PartitionId id) const;
  PartitionInfo* GetMutable(PartitionId id);

  /// Splits the partition containing `split_key` at that key. The new right
  /// half gets a fresh id and inherits the replica set. Fails when the key
  /// already is a boundary.
  Result<PartitionId> Split(std::string_view split_key);

  /// Merges the partition `id` with its right neighbour (which must have an
  /// identical replica set).
  Status MergeWithRight(PartitionId id);

  /// Replaces the replica set (first entry = primary).
  Status SetReplicas(PartitionId id, std::vector<NodeId> replicas);

  /// All partitions in key order.
  const std::vector<PartitionInfo>& partitions() const { return partitions_; }
  size_t size() const { return partitions_.size(); }

  /// Every partition id that `node` replicates (optionally only as primary).
  std::vector<PartitionId> PartitionsOnNode(NodeId node, bool primary_only = false) const;

  int replication_factor() const { return replication_factor_; }

 private:
  size_t IndexForKey(std::string_view key) const;

  std::vector<PartitionInfo> partitions_;  // sorted by start
  PartitionId next_id_ = 0;
  int replication_factor_ = 1;
};

}  // namespace scads

#endif  // SCADS_CLUSTER_PARTITION_H_
