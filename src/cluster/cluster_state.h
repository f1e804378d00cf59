// Shared cluster metadata: the node registry, the partition map, and the
// heartbeat-driven failure detector.
//
// In the real deployment this state would be gossiped / kept in a
// coordination service; in the simulator all components read one
// authoritative copy (a documented substitution — metadata propagation
// delay is not the bottleneck the paper studies).
//
// Liveness has two inputs that compose:
//
//  * An *administrative* flag (`SetNodeAlive`) — boot wiring, failure
//    injection, and scale-down use it. Setting it is the ONE down/up
//    path: it also flips the node object's message-processing switch
//    (StorageNode::set_alive), so the registry view and the node's
//    actual reachability cannot diverge.
//  * A *suspicion detector* fed by heartbeats riding the replication
//    watermark streams plus a per-node liveness beacon
//    (`RecordHeartbeat`). Phi-accrual-lite: an EWMA of the heartbeat
//    inter-arrival estimates the expected gap; suspicion is the current
//    silence divided by a timeout multiple of that estimate. A node
//    whose suspicion crosses 1.0 is treated as dead by `IsAlive` even
//    when no oracle ever flipped the flag — this is what makes liveness
//    *measured* rather than assumed.
//
// Nodes never heard from are presumed alive (suspicion 0): detection
// only ever takes liveness away from nodes that were beaconing and went
// silent, so unit fixtures that never start heartbeats keep oracle
// semantics.

#ifndef SCADS_CLUSTER_CLUSTER_STATE_H_
#define SCADS_CLUSTER_CLUSTER_STATE_H_

#include <map>
#include <shared_mutex>
#include <vector>

#include "cluster/partition.h"
#include "common/clock.h"
#include "common/load_signal.h"
#include "common/status.h"
#include "common/types.h"

namespace scads {

class StorageNode;

/// Failure-detector tunables (phi-accrual-lite).
struct SuspicionConfig {
  /// Floor on the inter-arrival estimate, so a burst of back-to-back
  /// heartbeats cannot make the detector hair-triggered. Scads wires the
  /// configured watermark-heartbeat period here.
  Duration min_interval = 500 * kMillisecond;
  /// Silence of `timeout_multiple` expected intervals = suspicion 1.0
  /// (declared dead). 3x tolerates two dropped/late beacons.
  double timeout_multiple = 3.0;
};

/// Registry of storage nodes plus the partition map.
class ClusterState {
 public:
  /// Control-plane observer pseudo-address: nodes send liveness beacons to
  /// this id over the simulated network (so partitions, gray delays, and
  /// crashes shape detection), and the delivery records a heartbeat here.
  static constexpr NodeId kControlPlane = (1 << 20) - 1;

  /// Suspicion at which the detector declares a node dead: `IsAlive` and
  /// `AliveNodes` leave it out, and a closed circuit breaker opens on it.
  static constexpr double kDeclaredDead = 1.0;

  /// Registers a node (does not take ownership).
  Status AddNode(NodeId id, StorageNode* node);

  /// Unregisters a node (after drain/terminate).
  Status RemoveNode(NodeId id);

  /// Marks a node administratively alive/dead — failure injection, boot
  /// wiring, and scale-down. This is the single down/up path: it also
  /// flips the node object's own message-processing switch, and a
  /// false->true transition resets the node's heartbeat history (fresh
  /// grace period) and kicks its crash-recovery catch-up.
  void SetNodeAlive(NodeId id, bool alive);

  /// Administratively alive AND not suspected by the failure detector.
  bool IsAlive(NodeId id) const;

  /// The node object, or nullptr when unknown.
  StorageNode* GetNode(NodeId id) const;

  std::vector<NodeId> AliveNodes() const;
  /// Every registered node, alive or not (repair loops need the dead ones).
  std::vector<NodeId> AllNodes() const;
  size_t node_count() const { return nodes_.size(); }

  /// Arms the failure detector. Without a clock the detector is inert
  /// (suspicion always 0) and liveness is purely administrative.
  void EnableFailureDetection(const Clock* clock, SuspicionConfig config = SuspicionConfig{});

  /// Heartbeat observation for `id` (watermark-stream receipt or liveness
  /// beacon delivery). Updates the inter-arrival EWMA and clears the
  /// silence counter.
  void RecordHeartbeat(NodeId id, Time now);

  /// Current suspicion level: 0 = freshly heard (or detector inert /
  /// never heard), 1.0+ = silent past the timeout multiple (presumed
  /// dead). Continuous in between, so selectors can deprioritize
  /// going-quiet nodes before the detector commits.
  double Suspicion(NodeId id) const;

  /// Suspicion >= kDeclaredDead.
  bool Suspected(NodeId id) const { return Suspicion(id) >= kDeclaredDead; }

  /// Number of registered nodes currently suspected (Director telemetry).
  int SuspectedCount() const;

  /// The node's exported load signal (zero signal for unknown or dead
  /// nodes — an unreachable node is not a batching target anyway), with
  /// the detector's current suspicion level attached. The Router sizes
  /// sub-batches from this; the Director reads it for overload. In a real
  /// deployment this would ride on the gossip that already carries
  /// liveness.
  NodeLoadSignal NodeLoad(NodeId id) const;

  /// The partition map is NOT guarded by the registry lock: on the
  /// simulator the rebalancer mutates it between events; on the threaded
  /// backend it must be fixed before traffic starts (versioned partition
  /// maps for live topology changes are a ROADMAP follow-up).
  PartitionMap* partitions() { return &partitions_; }
  const PartitionMap& partitions() const { return partitions_; }
  void set_partitions(PartitionMap map) { partitions_ = std::move(map); }

 private:
  struct NodeEntry {
    StorageNode* node = nullptr;
    bool alive = true;
    // Detector state: last heartbeat arrival and the EWMA of inter-arrival
    // gaps. heard == 0 means "never heard" (presumed alive).
    Time last_heartbeat = 0;
    Duration ewma_interval = 0;
    int64_t heard = 0;
  };

  /// Suspicion for an entry already looked up under `mu_`.
  double SuspicionLocked(const NodeEntry& entry) const;

  /// Registry + detector state lock. Reads (routing-path liveness checks,
  /// load pulls) take it shared; heartbeats and membership changes take it
  /// exclusive. Node load itself is read from the node's atomics, so a
  /// shared lock never blocks on node-side work.
  mutable std::shared_mutex mu_;
  std::map<NodeId, NodeEntry> nodes_;
  PartitionMap partitions_;
  const Clock* clock_ = nullptr;  // null = detector inert
  SuspicionConfig suspicion_;
};

}  // namespace scads

#endif  // SCADS_CLUSTER_CLUSTER_STATE_H_
