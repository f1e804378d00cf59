// Rebalancer: online replica movement (the "without downtime" half of
// paper §1.1's scale-up/down).
//
// Move protocol (Cassandra-style bootstrap):
//   1. add the target to the partition's replica set — it starts receiving
//      live replication immediately;
//   2. stream a snapshot of existing data from the source in batches over
//      the network (bandwidth-modelled); version rules make the overlap of
//      snapshot and live stream converge;
//   3. drop the source from the replica set (promoting the target to
//      primary when the source led the partition).

#ifndef SCADS_CLUSTER_REBALANCER_H_
#define SCADS_CLUSTER_REBALANCER_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/event_loop.h"

namespace scads {

/// Moves partition replicas between nodes while serving traffic.
class Rebalancer {
 public:
  Rebalancer(EventLoop* loop, ClusterState* cluster);

  /// Moves `pid`'s replica from `from` to `to`. `done` fires when ownership
  /// has switched. Fails fast when preconditions don't hold (unknown
  /// partition, `from` not a replica, `to` already a replica, move already
  /// in progress).
  void MoveReplica(PartitionId pid, NodeId from, NodeId to, std::function<void(Status)> done);

  /// Re-replication: copies `pid` onto `to`, streaming from the live
  /// replica `from`, which KEEPS its copy — this restores a lost replica
  /// rather than moving one. Same protocol as MoveReplica minus the final
  /// source removal; `done` fires when `to` holds the snapshot and is a
  /// full member of the replica set.
  void CopyReplica(PartitionId pid, NodeId from, NodeId to, std::function<void(Status)> done);

  /// Drops `node` from `pid`'s replica set immediately (no data movement —
  /// the replica is presumed lost). Refuses to remove the last replica.
  /// When the removed node led the partition, the next replica in set order
  /// becomes primary.
  Status RemoveReplica(PartitionId pid, NodeId node);

  /// Moves every replica held by `node` onto `targets`, leaving the node
  /// empty (pre-terminate drain). Each partition goes to the least-loaded
  /// eligible live target by NodeLoad pressure, so an evacuation never
  /// piles partitions onto a node already in trouble; ties break by how
  /// many partitions this drain already assigned, then round-robin order,
  /// so an idle fleet still spreads evenly. `done` fires after the last
  /// move.
  void DrainNode(NodeId node, std::vector<NodeId> targets, std::function<void(Status)> done);

  /// True while `pid` has a move in flight.
  bool IsMoving(PartitionId pid) const { return moving_.count(pid) > 0; }

  int64_t records_streamed() const { return records_streamed_; }

 private:
  /// MoveReplica and CopyReplica: checks the preconditions, adds `to` to
  /// the replica set and starts streaming; `remove_source` drops `from`
  /// once the snapshot has landed.
  void StartCopy(PartitionId pid, NodeId from, NodeId to, bool remove_source,
                 std::function<void(Status)> done);
  void StreamNext(PartitionId pid, NodeId from, NodeId to, std::string cursor, bool remove_source,
                  std::function<void(Status)> done);
  void FinishMove(PartitionId pid, NodeId from, NodeId to, bool remove_source,
                  std::function<void(Status)> done);

  EventLoop* loop_;
  ClusterState* cluster_;
  std::set<PartitionId> moving_;
  int64_t records_streamed_ = 0;
};

}  // namespace scads

#endif  // SCADS_CLUSTER_REBALANCER_H_
